"""How noise, pair terms, and iteration rounds trade off.

The iterative loop physically rearranges patches per each round's prediction
and re-scores the new arrangement, stopping when the predictor proposes the
identity.  This script sweeps the controllable oracle's noise level and shows
the three effects the engine is built around: cleaner scores solve more
puzzles, relative-position terms rescue poor absolute-position scores, and
extra rounds recover puzzles a single shot misses.
"""

import numpy as np

from jigsolve import (
    GridShape,
    OracleScorer,
    PuzzleInstance,
    SolverOptions,
    solve_iterative,
)

shape = GridShape.parse("3x3")
TRIALS = 150


def trajectories(eps, binary_eps=None, use_binary=True):
    """Each puzzle's Hamming distance to the truth after every round of one 20-round solve."""
    out = []
    for i in range(TRIALS):
        inst = PuzzleInstance.scrambled(shape, np.random.default_rng([1, i]))
        provider = OracleScorer(
            eps, rng=np.random.default_rng([2, i]), binary_noise=binary_eps
        )
        trace = solve_iterative(provider, inst, SolverOptions(use_binary=use_binary, max_rounds=20))
        out.append([r.hamming_to_truth for r in trace.rounds])
    return out


def at_cap(trajs, cap=20):
    """Exact rate and mean rounds used at a round cap: a cap-k solve is the first k rounds."""
    used = [min(cap, len(hams)) for hams in trajs]
    solved = sum(hams[u - 1] == 0 for hams, u in zip(trajs, used))
    return solved / TRIALS, sum(used) / TRIALS


print(f"{TRIALS} scrambled 3x3 puzzles per setting\n")

print("noise sweep (binary on, 20 rounds)")
print("  eps   exact   mean rounds")
sweep = {}
for eps in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8):
    sweep[eps] = trajectories(eps)
    rate, mean_rounds = at_cap(sweep[eps])
    print(f"  {eps:<5.1f} {rate:<7.2f} {mean_rounds:.1f}")

print("\npair terms at heavy unary noise (unary 0.5, binary 0.1)")
for use_binary in (True, False):
    rate, _ = at_cap(trajectories(0.5, binary_eps=0.1, use_binary=use_binary))
    label = "binary on " if use_binary else "binary off"
    print(f"  {label}: exact {rate:.2f}")

# The caps cut the noise sweep's 20-round solves at eps = 0.5; none re-solves.
print("\nround cap at eps = 0.5")
for cap in (1, 5, 10, 20):
    rate, mean_rounds = at_cap(sweep[0.5], cap)
    print(f"  max_rounds {cap:<3d}: exact {rate:.2f}  (mean rounds used {mean_rounds:.1f})")
