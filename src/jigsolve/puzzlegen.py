"""Puzzle instance construction: image I/O, synthetic sources, crops, corpora.

Geometry follows the 85-per-cell / 64-crop 2D protocol and the 120^3-region
3D protocol (60^3 or 40^3 cells with 48^3 / 32^3 jittered sub-crops).  One
maker draws an instance's metadata in 2D and 3D alike; ``PuzzleMeta`` refuses
any metadata the cutter cannot cut, whether drawn or read from a manifest;
one cutter turns a source and that metadata into the patches, so
``regenerate`` rebuilds every instance bit-exactly through the same path.

File formats owned here:
  * PGM (P5) / PPM (P6), maxval 255 only.
  * "RTEN" raw tensors: magic, version u32, rank u32, per-axis extents u32,
    channels u32, then float32 little-endian values in row-major order.
    JSW1 models (``scorer``) share its header and readers, with (d, recipe)
    in place of the channels.
  * Corpora: one directory per instance holding a UTF-8 key=value manifest
    plus one RTEN file per patch.
A bad file raises ``FormatError``: ``path: msg (byte offset N)`` where the
reader has an offset.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .grid import GridShape, as_permutation, id_to_position, random_permutation

RTEN_MAGIC = b"RTEN"
RTEN_VERSION = 1
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")  # whitespace and comments, then a token

VOLUME_REGION = 120
_3D_CROP = {2: 48, 3: 32}

SYNTH_KINDS = ("gradient", "blobs", "mixed")  # a kind's stream id is its position plus one
MIN_SYNTH_SIZE = 16  # smallest side of a synthetic image or volume
MAX_SYNTH_SIZE = 2048  # largest side; one 2D source then peaks near 170 MB


class FormatError(ValueError):
    """Malformed image, tensor, model or manifest file."""

    @classmethod
    def at(cls, path, msg: str, offset: int) -> "FormatError":
        """The error for ``msg`` found at byte ``offset`` of ``path``."""
        return cls(f"{path}: {msg} (byte offset {offset})")


@dataclass(frozen=True)
class ImageTensor:
    """Pixel data in [0, 1]: shape (H, W, C) in 2D, (Z, H, W, C) in 3D."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim not in (3, 4):
            raise ValueError(f"expected (H,W,C) or (Z,H,W,C) data, got ndim={arr.ndim}")
        if not np.isfinite(arr).all():
            raise ValueError("pixel values must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def is_3d(self) -> bool:
        return self.data.ndim == 4

    @property
    def channels(self) -> int:
        return self.data.shape[-1]

    @property
    def dims(self) -> tuple[int, ...]:
        """Spatial extents as (W, H) or (W, H, Z)."""
        sp = self.data.shape[:-1]
        return tuple(reversed(sp))


@dataclass(frozen=True)
class GenOptions:
    """2D generation knobs; defaults mirror the training protocol."""

    cell: int = 85
    crop: int = 64
    jitter: bool = True
    mirror_p: float = 0.5
    mean_subtract: bool = True
    mean_scope: str = "patch"  # "patch" or "image"
    scramble: bool = True

    def __post_init__(self):
        if self.mean_scope not in ("patch", "image"):
            raise ValueError("mean_scope must be 'patch' or 'image'")
        if not 0.0 <= self.mirror_p <= 1.0:
            raise ValueError("mirror_p must be in [0, 1]")


def check_geometry(grid: tuple[int, ...], opts: GenOptions) -> tuple[int, int]:
    """Cell and crop side that ``_cut`` uses on ``grid``; ``ValueError`` if it cannot cut it.

    A 3D grid is a cube whose side is a key of ``_3D_CROP``, which fixes its
    cell and crop; a 2D grid takes ``opts``' cell and a crop from inside it.
    """
    if len(grid) == 3:
        if len(set(grid)) != 1 or grid[0] not in _3D_CROP:
            cubes = " or ".join(f"{k}x{k}x{k}" for k in sorted(_3D_CROP))
            raise ValueError(f"3D grids are {cubes}, got {'x'.join(map(str, grid))}")
        return VOLUME_REGION // grid[0], _3D_CROP[grid[0]]
    if opts.crop > opts.cell:
        raise ValueError(f"crop {opts.crop} exceeds cell {opts.cell}")
    return opts.cell, opts.crop


@dataclass(frozen=True)
class PuzzleMeta:
    """Everything needed to rebuild the instance bit-exactly.

    Construction raises ``ValueError`` on any record that ``_cut`` could not
    cut as the maker drew it, so drawn and parsed records pass the same rules.
    """

    source: dict
    grid: tuple[int, ...]
    opts: GenOptions
    offsets: np.ndarray  # (n, 2) or (n, 3) crop offsets, per original cell ID
    mirror: np.ndarray  # (n,) bool, per original cell ID
    truth: np.ndarray
    region_offset: tuple[int, ...] = ()  # 3D only: corner of the 120^3 region

    def __post_init__(self):
        shape = GridShape(self.grid)
        cell, crop = check_geometry(shape.extents, self.opts)
        n, dims = shape.n, len(shape.extents)
        object.__setattr__(self, "truth", as_permutation(self.truth, n))
        offsets = np.asarray(self.offsets)
        if offsets.shape != (n, dims):
            raise ValueError(f"offsets of shape {offsets.shape}, need {(n, dims)}")
        if offsets.min() < 0 or offsets.max() > cell - crop:
            raise ValueError(f"offsets must lie in [0, {cell - crop}] for cell {cell}, crop {crop}")
        if np.shape(self.mirror) != (n,):
            raise ValueError(f"{np.size(self.mirror)} mirror flags, need {n}")
        if shape.is_3d:
            if np.any(self.mirror):
                flags = np.count_nonzero(self.mirror)
                raise ValueError(f"3D patches are never mirrored, got {flags} mirror flags set")
            region, src = self.region_offset, self.source
            top = src["size"] - VOLUME_REGION if "size" in src else math.inf
            if len(region) != 3 or not all(0 <= r <= top for r in region):
                raise ValueError(f"region_offset must be three corners in [0, {top}], got {region}")


@dataclass(frozen=True)
class PuzzleInstance:
    """Scrambled patches plus the ground-truth configuration.

    ``patches`` is (n, tile...) in current-slot order; ``patches[s]`` is the
    tile sitting in slot ``s``, and ``truth[s]`` is its original cell ID.
    Pixel-free instances (oracle workflows) carry ``patches=None``.
    """

    shape: GridShape
    truth: np.ndarray
    patches: Optional[np.ndarray] = None
    meta: Optional[PuzzleMeta] = None

    @property
    def n(self) -> int:
        return self.shape.n

    @classmethod
    def scrambled(cls, shape: GridShape, rng: np.random.Generator) -> "PuzzleInstance":
        """Pixel-free instance with a uniform random truth."""
        return cls(shape=shape, truth=random_permutation(shape.n, rng))


# ---------------------------------------------------------------------------
# netpbm + raw tensor I/O


def _read_pnm(blob: bytes, path: str) -> ImageTensor:
    m = _PNM_TOKEN.match(blob)
    if m[1] not in (b"P5", b"P6"):
        msg = f"unsupported magic {m[1]!r}" if m[1] else "truncated header"
        raise FormatError.at(path, msg, m.end())
    channels = 1 if m[1] == b"P5" else 3
    nums = []
    for _ in range(3):  # width, height, maxval
        m = _PNM_TOKEN.match(blob, m.end())
        try:
            nums.append(int(m[1]))
        except ValueError:
            raise FormatError.at(path, "non-integer header field", m.end()) from None
    width, height, maxval = nums
    if width < 1 or height < 1:
        raise FormatError.at(path, f"bad dimensions {width}x{height}", m.end())
    if maxval != 255:
        raise FormatError.at(path, f"maxval must be 255, got {maxval}", m.end())
    pos = m.end() + 1  # single whitespace byte after maxval
    need = width * height * channels
    payload = blob[pos : pos + need]
    if len(payload) < need:
        raise FormatError.at(path, f"payload truncated, need {need} bytes", pos + len(payload))
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return ImageTensor(arr.astype(np.float32) / 255.0)


def read_header(blob: bytes, path, magic: bytes, version: int, extra: int) -> tuple[tuple, tuple, int]:
    """``(extents, extra fields, payload offset)`` of an RTEN or JSW1 file.

    The layout is ``magic``, then u32 fields: the version, the rank (2 or
    3), ``rank`` extents and ``extra`` more fields, each at least 1.
    """
    if blob[:4] != magic:
        raise FormatError.at(path, f"bad magic {blob[:4]!r}", 0)
    if len(blob) < 12:
        raise FormatError.at(path, "truncated header", len(blob))
    found, rank = struct.unpack_from("<2I", blob, 4)
    if found != version:
        raise FormatError.at(path, f"unsupported version {found}", 4)
    if rank not in (2, 3):
        raise FormatError.at(path, f"rank must be 2 or 3, got {rank}", 8)
    end = 12 + 4 * (rank + extra)
    if len(blob) < end:
        raise FormatError.at(path, "truncated header", len(blob))
    words = struct.unpack_from(f"<{rank + extra}I", blob, 12)
    if 0 in words:
        raise FormatError.at(path, "header field must be at least 1, got 0", 12 + 4 * words.index(0))
    return words[:rank], words[rank:], end


def read_floats(blob: bytes, path, off: int, shapes) -> list[np.ndarray]:
    """The float32 arrays of ``shapes``, packed from byte ``off`` to the end of ``blob``."""
    arrays = []
    for shape in shapes:
        need = 4 * math.prod(shape)
        if len(blob) - off < need:  # in Python ints, before any array is made
            raise FormatError.at(path, f"payload truncated, need {need} bytes", len(blob))
        arr = np.frombuffer(blob, dtype="<f4", count=need // 4, offset=off).reshape(shape)
        bad = np.flatnonzero(~np.isfinite(arr))
        if len(bad):
            raise FormatError.at(path, "non-finite value", off + 4 * int(bad[0]))
        arrays.append(arr)
        off += need
    if off != len(blob):
        raise FormatError.at(path, f"{len(blob) - off} trailing bytes", off)
    return arrays


def header_bytes(magic: bytes, version: int, extents, extra) -> bytes:
    """The header that :func:`read_header` reads."""
    words = (version, len(extents), *extents, *extra)
    return magic + struct.pack(f"<{len(words)}I", *words)


def load_image(path) -> ImageTensor:
    """Read a PGM/PPM (maxval 255) or RTEN file, scaled to [0, 1]."""
    blob = Path(path).read_bytes()
    if blob[:4] != RTEN_MAGIC:
        return _read_pnm(blob, str(path))
    extents, (channels,), off = read_header(blob, path, RTEN_MAGIC, RTEN_VERSION, 1)
    (arr,) = read_floats(blob, path, off, [(*reversed(extents), channels)])  # extents are (W, H[, Z])
    return ImageTensor(arr.copy())


def save_image(img: ImageTensor, path) -> None:
    """Write by extension: .pgm (1 channel), .ppm (3 channels), .rten (any)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".rten":
        save_rten(img, path)
        return
    if img.is_3d:
        raise FormatError("netpbm cannot carry volumes; use .rten")
    if suffix == ".pgm" and img.channels != 1:
        raise FormatError("PGM requires a single channel")
    if suffix == ".ppm" and img.channels != 3:
        raise FormatError("PPM requires three channels")
    if suffix not in (".pgm", ".ppm"):
        raise FormatError(f"unsupported output extension {suffix!r}")
    magic = b"P5" if suffix == ".pgm" else b"P6"
    h, w, _ = img.data.shape
    raw = np.clip(np.rint(img.data * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(raw.tobytes())


def save_rten(img: ImageTensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(header_bytes(RTEN_MAGIC, RTEN_VERSION, img.dims, (img.channels,)))
        fh.write(np.ascontiguousarray(img.data, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# resize + synthetic sources


def _axis_weights(src: int, dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Half-pixel sample centers, edge-clamped.
    pos = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    lo = np.clip(np.floor(pos), 0, src - 1).astype(np.intp)
    hi = np.minimum(lo + 1, src - 1)
    t = np.clip(pos - lo, 0.0, 1.0)
    return lo, hi, t


def resize_bilinear(img: ImageTensor, new_dims: tuple[int, int]) -> ImageTensor:
    """Separable bilinear resize (half-pixel centers) of a 2D image."""
    if img.is_3d:
        raise ValueError("resize_bilinear handles 2D images only")
    new_w, new_h = int(new_dims[0]), int(new_dims[1])
    if new_w < 1 or new_h < 1:
        raise ValueError("target dims must be positive")
    h, w, _ = img.data.shape
    if (w, h) == (new_w, new_h):
        return ImageTensor(img.data.copy())
    data = img.data.astype(np.float64)
    lo, hi, t = _axis_weights(w, new_w)
    data = data[:, lo, :] * (1.0 - t)[None, :, None] + data[:, hi, :] * t[None, :, None]
    lo, hi, t = _axis_weights(h, new_h)
    data = data[lo, :, :] * (1.0 - t)[:, None, None] + data[hi, :, :] * t[:, None, None]
    return ImageTensor(data.astype(np.float32))


def _synth_rng(kind: str, size: int, seed: int, dims: int) -> np.random.Generator:
    return np.random.default_rng([SYNTH_KINDS.index(kind) + 1, dims, size, seed])


def _gradient_field(rng: np.random.Generator, size: int, dims: int) -> np.ndarray:
    # Coefficients wide enough that clamping saturates part of the field,
    # which leaves position-dependent texture even after mean subtraction.
    coef = rng.uniform(0.6, 1.2, size=dims)
    bias = rng.uniform(0.0, 0.3)
    axes = np.ix_(*[np.arange(size) / size for _ in range(dims)])
    # 1D ramps along the (z, y, x) index axes; coef[0] scales x, coef[1] y, coef[2] z
    val = bias + sum(c * ax for c, ax in zip(coef, reversed(axes)))
    return np.clip(val, 0.0, 1.0)


def _blob_field(rng: np.random.Generator, size: int, dims: int) -> np.ndarray:
    k = int(rng.integers(3, 7))
    grids = np.ix_(*[np.arange(size, dtype=np.float64) for _ in range(dims)])
    val = np.zeros((size,) * dims)
    for _ in range(k):
        center = rng.uniform(0, size, size=dims)
        sigma = rng.uniform(0.08, 0.25) * size
        amp = rng.uniform(0.5, 1.0)
        d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        val += amp * np.exp(-d2 / (2.0 * sigma**2))
    return np.clip(val, 0.0, 1.0)


def _check_kind(kind: str) -> None:
    if kind not in SYNTH_KINDS:
        raise ValueError(f"kind must be one of {SYNTH_KINDS}, got {kind!r}")


def _synth_field(kind: str, size: int, seed: int, dims: int) -> np.ndarray:
    _check_kind(kind)
    if size < MIN_SYNTH_SIZE:
        raise ValueError(f"size must be >= {MIN_SYNTH_SIZE}")
    if size > MAX_SYNTH_SIZE:
        raise ValueError(f"size must be <= {MAX_SYNTH_SIZE}")
    rng = _synth_rng(kind, size, seed, dims)
    if kind == "gradient":
        return _gradient_field(rng, size, dims)
    if kind == "blobs":
        return _blob_field(rng, size, dims)
    g = _gradient_field(rng, size, dims)
    b = _blob_field(rng, size, dims)
    # Gradient-heavy blend: keeps absolute-position cues dominant while the
    # blobs still provide per-image texture variation.
    return np.clip(0.65 * g + 0.35 * b, 0.0, 1.0)


def synth_image(kind: str, size: int, seed: int) -> ImageTensor:
    """Deterministic single-channel synthetic image of the given kind."""
    return ImageTensor(_synth_field(kind, size, seed, 2)[..., None].astype(np.float32))


def synth_volume(kind: str, size: int, seed: int) -> ImageTensor:
    """Deterministic single-channel synthetic volume (3D analogue)."""
    return ImageTensor(_synth_field(kind, size, seed, 3)[..., None].astype(np.float32))


# ---------------------------------------------------------------------------
# puzzle construction


def _cut(img: ImageTensor, meta: PuzzleMeta) -> np.ndarray:
    """The instance's patches in slot order, cut from its source as ``meta`` says.

    2D: resize to (cell*W) x (cell*H) and take ``meta.opts``' cell and crop.
    3D: take the 120^3 region at ``meta.region_offset``, with fixed cell and
    crop per grid; the mean is always each patch's own.
    """
    shape = GridShape(meta.grid)
    opts = meta.opts
    cell, crop = check_geometry(meta.grid, opts)
    if shape.is_3d:
        data = img.data[tuple(slice(o, o + VOLUME_REGION) for o in reversed(meta.region_offset))]
    else:
        data = resize_bilinear(img, (cell * meta.grid[0], cell * meta.grid[1])).data
        if opts.mean_subtract and opts.mean_scope == "image":
            data = data - data.mean(axis=(0, 1), keepdims=True)
    patch_mean = opts.mean_subtract and (shape.is_3d or opts.mean_scope == "patch")
    spatial = tuple(range(len(meta.grid)))
    tiles = np.empty((shape.n,) + (crop,) * len(meta.grid) + data.shape[-1:], dtype=np.float32)
    for pid in range(shape.n):
        corner = [p * cell + o for p, o in zip(id_to_position(pid, shape), meta.offsets[pid])]
        tile = data[tuple(slice(c, c + crop) for c in reversed(corner))].astype(np.float32)
        if meta.mirror[pid]:
            tile = tile[..., ::-1, :]  # flip x
        if patch_mean:
            tile = tile - tile.mean(axis=spatial, keepdims=True)
        tiles[pid] = tile
    return tiles[meta.truth]


def _make(
    img: ImageTensor, grid: tuple[int, ...], rng: np.random.Generator, opts: GenOptions,
    source: Optional[dict],
) -> PuzzleInstance:
    """Draw an instance's metadata on ``grid`` and cut its patches from ``img``.

    The draws come in a fixed order: the 3D region, the crop offsets (centred
    without jitter), the 2D flips (only when ``opts.mirror_p > 0``), then the
    scramble.
    """
    shape = GridShape(grid)
    cell, crop = check_geometry(shape.extents, opts)
    n, dims = shape.n, len(shape.extents)
    region = ()
    if shape.is_3d:
        exts = img.data.shape[2::-1]  # (x, y, z)
        if min(exts) < VOLUME_REGION:
            raise ValueError(f"volume must be at least {VOLUME_REGION}^3")
        region = tuple(int(rng.integers(0, ext - VOLUME_REGION + 1)) for ext in exts)
    if opts.jitter:
        offsets = rng.integers(0, cell - crop + 1, size=(n, dims)).astype(np.int64)
    else:
        offsets = np.full((n, dims), (cell - crop) // 2, dtype=np.int64)
    flip = not shape.is_3d and opts.mirror_p > 0
    mirror = rng.random(n) < opts.mirror_p if flip else np.zeros(n, dtype=bool)
    truth = random_permutation(n, rng) if opts.scramble else np.arange(n, dtype=np.int64)
    meta = PuzzleMeta(dict(source or {}), shape.extents, opts, offsets, mirror, truth, region)
    return PuzzleInstance(shape=shape, truth=meta.truth, patches=_cut(img, meta), meta=meta)


def make_puzzle_2d(
    img: ImageTensor,
    W: int,
    H: int,
    rng: np.random.Generator,
    opts: GenOptions = GenOptions(),
    source: Optional[dict] = None,
) -> PuzzleInstance:
    """Resize to (cell*W) x (cell*H), cut, jitter-crop, flip, scramble."""
    if img.is_3d:
        raise ValueError("make_puzzle_2d needs a 2D image")
    return _make(img, (W, H), rng, opts, source)


def make_puzzle_3d(
    vol: ImageTensor,
    per_axis: int,
    rng: np.random.Generator,
    opts: GenOptions = GenOptions(),
    source: Optional[dict] = None,
) -> PuzzleInstance:
    """Crop a random 120^3 region, cut into per_axis^3 cells, jitter-crop."""
    if not vol.is_3d:
        raise ValueError("make_puzzle_3d needs a volume")
    return _make(vol, (per_axis,) * 3, rng, opts, source)


def _source(src: dict, dims: int) -> ImageTensor:
    """The image (``dims`` 2) or volume (``dims`` 3) that ``src`` names."""
    if "kind" in src:
        maker = synth_volume if dims == 3 else synth_image
        return maker(src["kind"], int(src["size"]), int(src["seed"]))
    if "path" in src:
        return load_image(src["path"])
    raise ValueError("meta.source names neither a synth kind nor a path")


def regenerate(meta: PuzzleMeta) -> PuzzleInstance:
    """Rebuild an instance bit-exactly from its metadata."""
    img = _source(meta.source, len(meta.grid))
    return PuzzleInstance(
        shape=GridShape(meta.grid), truth=meta.truth.copy(), patches=_cut(img, meta), meta=meta
    )


def synth_size(shape: GridShape, opts: GenOptions) -> int:
    """Side of the square image or cube volume that a synthetic corpus on ``shape`` is cut from."""
    return VOLUME_REGION if shape.is_3d else opts.cell * max(shape.extents)


def generate_corpus(
    kind: str,
    shape: GridShape,
    count: int,
    seed: int,
    opts: GenOptions = GenOptions(),
) -> list[PuzzleInstance]:
    """Deterministic synthetic corpus; instance i uses the stream (seed, i)."""
    return list(iter_corpus(kind, shape, count, seed, opts))


def iter_corpus(
    kind: str,
    shape: GridShape,
    count: int,
    seed: int,
    opts: GenOptions = GenOptions(),
) -> Iterator[PuzzleInstance]:
    """``generate_corpus``'s instances, each drawn when it is asked for.

    The kind and the geometry are checked at the call, before any is drawn.
    """
    _check_kind(kind)
    check_geometry(shape.extents, opts)

    def draw():
        for i in range(count):
            src = {"kind": kind, "size": synth_size(shape, opts), "seed": seed * 1_000_003 + i}
            img = _source(src, len(shape.extents))
            yield _make(img, shape.extents, np.random.default_rng([seed, i]), opts, src)

    return draw()


# ---------------------------------------------------------------------------
# corpus storage


def _manifest_lines(meta: PuzzleMeta) -> list[str]:
    lines = ["format=jigsolve-corpus-v1", "grid=" + "x".join(str(e) for e in meta.grid)]
    for f in fields(GenOptions):  # a flag as 0 or 1
        val = getattr(meta.opts, f.name)
        lines.append(f"{f.name}={int(val) if isinstance(f.default, bool) else val}")
    lines += [
        "offsets=" + ";".join(":".join(str(v) for v in row) for row in meta.offsets),
        "mirror=" + ",".join(str(int(v)) for v in meta.mirror),
        "truth=" + ",".join(str(v) for v in meta.truth),
    ]
    for key, val in sorted(meta.source.items()):
        lines.append(f"source_{key}={val}")
    if meta.region_offset:
        lines.append("region_offset=" + ",".join(str(v) for v in meta.region_offset))
    return lines


def _parse_manifest(blob: bytes, path: str) -> PuzzleMeta:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError.at(path, "manifest is not UTF-8", exc.start) from None
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: bad manifest line {line!r}")
        key, _, val = line.partition("=")
        kv[key] = val
    if kv.get("format") != "jigsolve-corpus-v1":
        raise FormatError(f"{path}: unknown manifest format {kv.get('format')!r}")
    try:
        opts = {}
        for f in fields(GenOptions):  # a flag as 0 or 1
            kind = type(f.default)
            opts[f.name] = bool(int(kv[f.name])) if kind is bool else kind(kv[f.name])
        source = {}
        for key, val in kv.items():
            if key.startswith("source_"):
                name = key[len("source_") :]
                source[name] = int(val) if name in ("size", "seed") else val
        offsets = [[int(v) for v in row.split(":")] for row in kv["offsets"].split(";")]
        region = tuple(map(int, kv["region_offset"].split(","))) if "region_offset" in kv else ()
        return PuzzleMeta(
            source=source,
            grid=tuple(int(v) for v in kv["grid"].split("x")),
            opts=GenOptions(**opts),
            offsets=np.array(offsets, dtype=np.int64),
            mirror=np.array([bool(int(v)) for v in kv["mirror"].split(",")], dtype=bool),
            truth=[int(v) for v in kv["truth"].split(",")],
            region_offset=region,
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad manifest: {exc!r}") from None


def save_corpus(root, instances: Iterable[PuzzleInstance]) -> None:
    """Write each instance in turn; an iterator's instances are held one at a time."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for i, inst in enumerate(instances):
        if inst.meta is None or inst.patches is None:
            raise ValueError("only generated instances with metadata can be stored")
        idir = root / f"inst_{i:05d}"
        idir.mkdir(exist_ok=True)
        (idir / "manifest.txt").write_text("\n".join(_manifest_lines(inst.meta)) + "\n", encoding="utf-8")
        for s in range(inst.n):
            save_rten(ImageTensor(inst.patches[s]), idir / f"patch_{s:03d}.rten")


def load_corpus(root) -> list[PuzzleInstance]:
    root = Path(root)
    dirs = sorted(d for d in root.iterdir() if d.is_dir() and d.name.startswith("inst_"))
    if not dirs:
        raise FormatError(f"{root}: no instance directories found")
    instances = []
    for idir in dirs:
        meta = _parse_manifest((idir / "manifest.txt").read_bytes(), str(idir / "manifest.txt"))
        shape = GridShape(meta.grid)
        if instances and shape != instances[0].shape:
            raise FormatError(f"{idir}: grid {shape} differs from {instances[0].shape}")
        paths = [idir / f"patch_{s:03d}.rten" for s in range(shape.n)]
        tiles = [load_image(path).data for path in paths]
        crop = check_geometry(shape.extents, meta.opts)[1]
        first = instances[0].patches.shape[1:] if instances else tiles[0].shape
        tile = (crop,) * len(shape.extents) + first[-1:]
        if instances and tile != first:
            raise FormatError(f"{idir}: manifest tile {tile} differs from {first}")
        for path, t in zip(paths, tiles):
            if t.shape != tile:
                raise FormatError(f"{path}: patch shape {t.shape} differs from {tile}")
        instances.append(
            PuzzleInstance(shape=shape, truth=meta.truth, patches=np.stack(tiles), meta=meta)
        )
    return instances
