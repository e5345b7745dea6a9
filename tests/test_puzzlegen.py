"""Puzzle generation, image I/O, and corpus storage."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jigsolve.grid import GridShape
from jigsolve.puzzlegen import (
    FormatError,
    GenOptions,
    ImageTensor,
    PuzzleInstance,
    generate_corpus,
    load_corpus,
    load_image,
    make_puzzle_2d,
    make_puzzle_3d,
    regenerate,
    resize_bilinear,
    save_corpus,
    save_image,
    save_rten,
    synth_image,
    synth_volume,
)

S2 = GridShape((2, 2))
SMALL_GEN = GenOptions(cell=12, crop=8)


class TestPnmIO:
    def test_p5_scaling(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = load_image(path)
        assert img.data.shape == (2, 2, 1)
        assert np.allclose(
            img.data.ravel(), [0.0, 128 / 255, 1.0, 64 / 255]
        )

    def test_p6_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        img = ImageTensor((rng.integers(0, 256, (5, 7, 3)) / 255.0))
        path = tmp_path / "t.ppm"
        save_image(img, path)
        back = load_image(path)
        assert (back.data == img.data).all()
        save_image(back, path)
        assert (load_image(path).data == back.data).all()

    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        img = ImageTensor((rng.integers(0, 256, (4, 4, 1)) / 255.0))
        path = tmp_path / "t.pgm"
        save_image(img, path)
        assert (load_image(path).data == img.data).all()

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x7f")
        assert load_image(path).data.shape == (1, 1, 1)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError, match="offset"):
            load_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(2))
        with pytest.raises(FormatError, match="offset"):
            load_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P4\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            load_image(path)


class TestRtenIO:
    def test_round_trip_2d(self, tmp_path):
        img = ImageTensor(np.random.default_rng(52).random((6, 5, 2)))
        path = tmp_path / "t.rten"
        save_rten(img, path)
        assert (load_image(path).data == img.data).all()

    def test_round_trip_3d(self, tmp_path):
        vol = ImageTensor(np.random.default_rng(53).random((4, 3, 5, 1)))
        path = tmp_path / "v.rten"
        save_image(vol, path)
        back = load_image(path)
        assert back.is_3d
        assert (back.data == vol.data).all()

    def test_truncated_rejected(self, tmp_path):
        img = ImageTensor(np.random.default_rng(54).random((3, 3, 1)))
        path = tmp_path / "t.rten"
        save_rten(img, path)
        blob = path.read_bytes()
        for cut in (3, 7, 13, len(blob) - 2):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_image(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "t.rten"
        save_rten(ImageTensor(np.zeros((3, 3, 1))), path)
        blob = path.read_bytes()  # 24 header bytes, then pixel 4 at byte 40
        for value in (np.nan, np.inf, -np.inf):
            path.write_bytes(blob[:40] + np.array(value, dtype="<f4").tobytes() + blob[44:])
            with pytest.raises(FormatError, match=r"t\.rten: non-finite value \(byte offset 40\)"):
                load_image(path)

    @pytest.mark.parametrize("edit", ["trailing", "zero-width", "zero-channels"])
    def test_trailing_bytes_and_zero_fields_rejected(self, edit, tmp_path):
        path = tmp_path / "t.rten"
        save_rten(ImageTensor(np.zeros((3, 3, 1))), path)
        blob = path.read_bytes()  # version, rank, W, H, C in bytes 4-23, then 36 payload bytes
        bad, message = {
            "trailing": (blob + bytes(7), r"t\.rten: 7 trailing bytes \(byte offset 60\)"),
            "zero-width": (blob[:12] + bytes(4) + blob[16:], r"got 0 \(byte offset 12\)"),
            "zero-channels": (blob[:20] + bytes(4) + blob[24:], r"got 0 \(byte offset 20\)"),
        }[edit]
        path.write_bytes(bad)
        with pytest.raises(FormatError, match=message):
            load_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "absent.rten")


class TestResizeBilinear:
    def test_identity_dims(self):
        img = ImageTensor(np.random.default_rng(55).random((6, 8, 3)))
        out = resize_bilinear(img, (8, 6))
        assert (out.data == img.data).all()

    def test_constant_image(self):
        img = ImageTensor(np.full((4, 4, 1), 0.37, dtype=np.float32))
        out = resize_bilinear(img, (11, 5))
        assert np.allclose(out.data, 0.37, atol=1e-6)

    def test_two_to_four_hand_values(self):
        # half-pixel sample centers: output pixel j samples source coordinate
        # (j + 0.5) / 2 - 0.5, clamped at the edges
        img = ImageTensor(np.array([[[0.0], [1.0]]]))
        out = resize_bilinear(img, (4, 1))
        assert np.allclose(out.data.ravel(), [0.0, 0.25, 0.75, 1.0], atol=1e-6)

    def test_values_stay_in_hull(self):
        img = ImageTensor(np.random.default_rng(56).random((9, 9, 1)))
        out = resize_bilinear(img, (30, 14))
        assert out.data.min() >= img.data.min() - 1e-6
        assert out.data.max() <= img.data.max() + 1e-6


class TestSynthSources:
    def test_deterministic(self):
        for kind in ("gradient", "blobs", "mixed"):
            a = synth_image(kind, 32, 5)
            b = synth_image(kind, 32, 5)
            assert (a.data == b.data).all()
            assert not (a.data == synth_image(kind, 32, 6).data).all()

    def test_values_in_unit_interval(self):
        for kind in ("gradient", "blobs", "mixed"):
            for seed in range(5):
                data = synth_image(kind, 48, seed).data
                assert data.min() >= 0.0 and data.max() <= 1.0

    def test_volume_sources(self):
        vol = synth_volume("mixed", 24, 3)
        assert vol.is_3d
        assert vol.data.shape == (24, 24, 24, 1)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_image("plaid", 32, 0)


class TestMakePuzzle2d:
    def test_default_geometry(self):
        img = synth_image("gradient", 255, 1)
        inst = make_puzzle_2d(img, 3, 3, np.random.default_rng(57))
        assert inst.shape == GridShape((3, 3))
        assert inst.patches.shape == (9, 64, 64, 1)
        assert (inst.meta.offsets >= 0).all() and (inst.meta.offsets <= 21).all()

    def test_center_crop_protocol(self):
        img = synth_image("mixed", 255, 2)
        opts = GenOptions(jitter=False, mirror_p=0.0, scramble=False)
        a = make_puzzle_2d(img, 3, 3, np.random.default_rng(58), opts)
        b = make_puzzle_2d(img, 3, 3, np.random.default_rng(59), opts)
        assert (a.truth == np.arange(9)).all()
        assert (a.patches == b.patches).all()  # rng-independent
        assert (a.meta.offsets == 10).all()  # (85 - 64) // 2
        assert not a.meta.mirror.any()

    def test_mean_subtraction(self):
        img = synth_image("mixed", 128, 3)
        inst = make_puzzle_2d(img, 2, 2, np.random.default_rng(60), SMALL_GEN)
        for patch in inst.patches:
            assert np.abs(patch.mean(axis=(0, 1))).max() < 1e-6

    def test_raw_intensities_without_subtraction(self):
        img = synth_image("gradient", 64, 4)
        opts = GenOptions(cell=12, crop=8, mean_subtract=False)
        inst = make_puzzle_2d(img, 2, 2, np.random.default_rng(61), opts)
        assert inst.patches.min() >= 0.0 and inst.patches.max() <= 1.0

    def test_crop_exceeding_cell_rejected(self):
        # The rule is 2D only: a 3D grid cuts cells and crops of fixed size.
        opts = GenOptions(cell=8, crop=12)
        with pytest.raises(ValueError, match="crop 12 exceeds cell 8"):
            make_puzzle_2d(synth_image("mixed", 64, 5), 2, 2, np.random.default_rng(0), opts)

    def test_scramble_recorded_in_truth(self):
        img = synth_image("mixed", 64, 5)
        opts = GenOptions(cell=12, crop=8, mirror_p=0.0, mean_subtract=False)
        inst = make_puzzle_2d(img, 2, 2, np.random.default_rng(62), opts)
        solved = make_puzzle_2d(
            img, 2, 2, np.random.default_rng(62),
            GenOptions(cell=12, crop=8, mirror_p=0.0, mean_subtract=False,
                       scramble=False),
        )
        # patches[s] holds the tile whose original cell is truth[s]
        for s in range(4):
            assert (inst.patches[s] == solved.patches[inst.truth[s]]).all()


class TestMakePuzzle3d:
    def test_2x2x2_geometry(self):
        vol = synth_volume("gradient", 120, 1)
        inst = make_puzzle_3d(vol, 2, np.random.default_rng(63))
        assert inst.shape == GridShape((2, 2, 2))
        assert inst.patches.shape == (8, 48, 48, 48, 1)
        assert (inst.meta.offsets >= 0).all() and (inst.meta.offsets <= 12).all()

    def test_3x3x3_geometry(self):
        vol = synth_volume("blobs", 124, 2)
        inst = make_puzzle_3d(vol, 3, np.random.default_rng(64))
        assert inst.patches.shape == (27, 32, 32, 32, 1)
        assert (inst.meta.offsets <= 8).all()

    def test_small_volume_rejected(self):
        vol = synth_volume("gradient", 100, 3)
        with pytest.raises(ValueError):
            make_puzzle_3d(vol, 2, np.random.default_rng(65))

    def test_mean_subtraction_3d(self):
        vol = synth_volume("mixed", 120, 4)
        inst = make_puzzle_3d(vol, 2, np.random.default_rng(66))
        for patch in inst.patches:
            assert np.abs(patch.mean(axis=(0, 1, 2))).max() < 1e-5


class TestRegeneration:
    def test_2d_bit_exact(self):
        corpus = generate_corpus("mixed", GridShape((3, 3)), 3, 9, GenOptions())
        for inst in corpus:
            again = regenerate(inst.meta)
            assert (again.truth == inst.truth).all()
            assert (again.patches == inst.patches).all()

    def test_3d_bit_exact(self):
        corpus = generate_corpus("mixed", GridShape((2, 2, 2)), 2, 10)
        for inst in corpus:
            again = regenerate(inst.meta)
            assert (again.patches == inst.patches).all()

    def test_mirror_flags_reproduced(self):
        corpus = generate_corpus(
            "mixed", S2, 8, 11, GenOptions(cell=12, crop=8, mirror_p=0.5)
        )
        flagged = [inst for inst in corpus if inst.meta.mirror.any()]
        assert flagged, "expected at least one mirrored patch in 8 instances"
        for inst in flagged:
            assert (regenerate(inst.meta).patches == inst.patches).all()


@pytest.fixture(scope="module")
def drawn_metas():
    """A drawn 2x2 record (cell 12, crop 8) and a 2x2x2 one (a 120^3 source), by dimension."""
    return {
        2: generate_corpus("mixed", S2, 1, 23, SMALL_GEN)[0].meta,
        3: generate_corpus("mixed", GridShape((2, 2, 2)), 1, 24)[0].meta,
    }


class TestPuzzleMeta:
    """``PuzzleMeta`` refuses every record that ``_cut`` cannot cut as drawn."""

    @pytest.mark.parametrize("dims,change,message", [
        (2, {"grid": (2, 2, 2, 2)}, "grid must be 2D or 3D"),
        (2, {"opts": GenOptions(cell=8, crop=12)}, "crop 12 exceeds cell 8"),
        (3, {"grid": (2, 2, 3)}, "3D grids are 2x2x2 or 3x3x3, got 2x2x3"),
        (3, {"grid": (4, 4, 4)}, "3D grids are 2x2x2 or 3x3x3, got 4x4x4"),
        (2, {"truth": [0, 0, 1, 2]}, "not a permutation"),
        (2, {"truth": [0, 1, 2]}, "length 3, expected 4"),
        (2, {"offsets": np.zeros((3, 2), dtype=np.int64)}, r"offsets of shape \(3, 2\)"),
        (2, {"offsets": np.zeros((4, 3), dtype=np.int64)}, r"offsets of shape \(4, 3\)"),
        (2, {"offsets": np.full((4, 2), 5)}, r"offsets must lie in \[0, 4\]"),
        (2, {"offsets": np.full((4, 2), -1)}, r"offsets must lie in \[0, 4\]"),
        (3, {"offsets": np.full((8, 3), 13)}, r"offsets must lie in \[0, 12\]"),
        (2, {"mirror": np.zeros(3, dtype=bool)}, "3 mirror flags, need 4"),
        (3, {"mirror": np.eye(8, dtype=bool)[0]}, "3D patches are never mirrored"),
        (3, {"region_offset": ()}, "three corners"),
        (3, {"region_offset": (0, 0)}, "three corners"),
        (3, {"region_offset": (1, 0, 0)}, r"three corners in \[0, 0\]"),
        (3, {"region_offset": (0, -1, 0)}, "three corners"),
    ])
    def test_each_rule_raises(self, dims, change, message, drawn_metas):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(drawn_metas[dims], **change)


class TestTruthDistribution:
    def test_uniform_over_s4(self):
        counts = {}
        draws = 60_000
        for i in range(draws):
            key = tuple(PuzzleInstance.scrambled(S2, np.random.default_rng([70, i])).truth)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        for count in counts.values():
            assert abs(count / draws - 1 / 24) < 0.005

    def test_pixel_pipeline_uses_same_scramble(self):
        # coarser check through the full generator
        corpus = generate_corpus("gradient", S2, 1200, 12, SMALL_GEN)
        counts = {}
        for inst in corpus:
            key = tuple(inst.truth)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        for count in counts.values():
            assert abs(count / 1200 - 1 / 24) < 0.04


class TestCorpusStorage:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus("mixed", S2, 5, 13, SMALL_GEN)
        root = tmp_path / "corpus"
        save_corpus(root, corpus)
        back = load_corpus(root)
        assert len(back) == 5
        for a, b in zip(corpus, back):
            assert a.shape == b.shape
            assert (a.truth == b.truth).all()
            assert (a.patches == b.patches).all()

    def test_loaded_meta_regenerates(self, tmp_path):
        corpus = generate_corpus("gradient", S2, 2, 14, SMALL_GEN)
        root = tmp_path / "corpus"
        save_corpus(root, corpus)
        for inst in load_corpus(root):
            assert (regenerate(inst.meta).patches == inst.patches).all()

    def test_3d_round_trip(self, tmp_path):
        corpus = generate_corpus("blobs", GridShape((2, 2, 2)), 1, 15)
        root = tmp_path / "vol_corpus"
        save_corpus(root, corpus)
        back = load_corpus(root)
        assert back[0].shape.is_3d
        assert (back[0].patches == corpus[0].patches).all()

    def test_patch_shapes_must_agree(self, tmp_path):
        corpus = generate_corpus("mixed", S2, 2, 19, SMALL_GEN)
        root = tmp_path / "corpus"
        for bad in ("inst_00000/patch_001.rten", "inst_00001/patch_000.rten"):
            save_corpus(root, corpus)
            save_rten(ImageTensor(np.zeros((8, 8, 3))), root / bad)
            with pytest.raises(FormatError, match=bad):
                load_corpus(root)

    def test_patches_must_have_the_records_tile(self, tmp_path):
        # cell 12, crop 8; crop 6 keeps every offset in range, so only the
        # stored 8x8 patches disagree with the record.
        save_corpus(tmp_path, generate_corpus("mixed", S2, 2, 23, SMALL_GEN))
        manifest = tmp_path / "inst_00000" / "manifest.txt"
        good = manifest.read_text()
        manifest.write_text(good.replace("\ncrop=8\n", "\ncrop=6\n"))
        with pytest.raises(FormatError, match=r"patch_000.rten: patch shape \(8, 8, 1\) differs from \(6, 6, 1\)"):
            load_corpus(tmp_path)
        # A later record that agrees with its own patches must still agree
        # with the first instance's.
        manifest.write_text(good)
        inst = generate_corpus("mixed", S2, 1, 24, GenOptions(cell=12, crop=6))
        save_corpus(tmp_path / "other", inst)
        (tmp_path / "other" / "inst_00000").rename(tmp_path / "inst_00002")
        with pytest.raises(FormatError, match=r"inst_00002: manifest tile \(6, 6, 1\) differs from \(8, 8, 1\)"):
            load_corpus(tmp_path)

    def test_grids_must_agree(self, tmp_path):
        save_corpus(tmp_path / "a", generate_corpus("mixed", S2, 2, 20, SMALL_GEN))
        save_corpus(tmp_path / "b", generate_corpus("mixed", GridShape((3, 3)), 1, 20, SMALL_GEN))
        (tmp_path / "b" / "inst_00000").rename(tmp_path / "a" / "inst_00002")
        with pytest.raises(FormatError, match="inst_00002: grid 3x3 differs from 2x2"):
            load_corpus(tmp_path / "a")

    def test_every_option_round_trips(self, tmp_path):
        # Every field off its default, so a field the manifest drops or
        # misreads comes back different.
        opts = GenOptions(cell=14, crop=9, jitter=False, mirror_p=0.25, mean_subtract=False,
                          mean_scope="image", scramble=False)
        for f in dataclasses.fields(GenOptions):
            assert getattr(opts, f.name) != f.default, f.name
        save_corpus(tmp_path, generate_corpus("mixed", S2, 2, 21, opts))
        for inst in load_corpus(tmp_path):
            assert inst.meta.opts == opts
            assert (regenerate(inst.meta).patches == inst.patches).all()

    def test_3d_mirror_flag_rejected(self, tmp_path):
        save_corpus(tmp_path, generate_corpus("mixed", GridShape((2, 2, 2)), 1, 22))
        manifest = tmp_path / "inst_00000" / "manifest.txt"
        good = manifest.read_text()
        assert "mirror=0,0,0,0,0,0,0,0\n" in good
        manifest.write_text(good.replace("mirror=0,", "mirror=1,", 1))
        with pytest.raises(FormatError, match="3D patches are never mirrored"):
            load_corpus(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises((FileNotFoundError, NotADirectoryError, FormatError)):
            load_corpus(tmp_path / "nope")

    def test_corrupt_manifest(self, tmp_path):
        corpus = generate_corpus("mixed", S2, 1, 16, SMALL_GEN)
        root = tmp_path / "corpus"
        save_corpus(root, corpus)
        manifest = next(root.glob("inst_*/manifest.txt"))
        good = manifest.read_text()
        for pattern, repl in (
            (r"(?s).*", "not a manifest\n"),
            (r"(?m)^cell=.*\n", ""),
            (r"(?m)^cell=.*$", "cell=x"),
            (r"(?m)^grid=.*$", "grid=0x4"),
            (r"(?m)^truth=.*$", "truth=0,0,1,2"),
            (r"(?m)^truth=.*$", "truth=0,1,2"),
            (r"(?m)^offsets=.*$", "offsets=1:1"),
            (r"(?m)^offsets=.*$", "offsets=1;1;1;1"),
            (r"(?m)^mirror=.*$", "mirror=0"),
            (r"(?m)^offsets=\d+:\d+", "offsets=5:0"),  # cell 12, crop 8: offsets lie in [0, 4]
            (r"(?m)^offsets=\d+:\d+", "offsets=0:-1"),
        ):
            text = re.sub(pattern, repl, good, count=1)
            assert text != good
            manifest.write_text(text)
            with pytest.raises(FormatError):
                load_corpus(root)


class TestGenerateCorpus:
    @pytest.mark.parametrize("grid", [(4, 4, 4), (2, 3, 2), (3, 3, 2)])
    def test_3d_grid_is_a_cube_it_can_cut(self, grid):
        with pytest.raises(ValueError, match="3D grids are 2x2x2 or 3x3x3"):
            generate_corpus("mixed", GridShape(grid), 1, 0)

    def test_deterministic(self):
        a = generate_corpus("mixed", S2, 4, 17, SMALL_GEN)
        b = generate_corpus("mixed", S2, 4, 17, SMALL_GEN)
        for x, y in zip(a, b):
            assert (x.patches == y.patches).all()
            assert (x.truth == y.truth).all()

    def test_instances_differ(self):
        corpus = generate_corpus("mixed", S2, 3, 18, SMALL_GEN)
        assert not (corpus[0].patches == corpus[1].patches).all()


class TestImageTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ImageTensor(np.full((2, 2, 1), np.inf))

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ImageTensor(np.zeros((4, 4)))

    def test_dims_ordering(self):
        img = ImageTensor(np.zeros((3, 5, 1)))  # H=3, W=5
        assert img.dims == (5, 3)
        vol = ImageTensor(np.zeros((2, 3, 4, 1)))  # Z=2, H=3, W=4
        assert vol.dims == (4, 3, 2)


def test_demo_04_round_trips_and_regenerates():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "demos" / "04_puzzle_generation.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "round trip intact: True" in lines
    assert "regenerated from manifest, bit-identical: True" in lines
