# Selecting active coordinates from one noisy vector.
#
# We plant a handful of strong coordinates in a long zero vector, add unit
# gaussian noise, and run the two-stage selector: a penalized preselection
# pass fixes a working size, and a per-coordinate threshold derived from
# that size makes the final call. A Mallows-style baseline with a fixed
# per-coordinate charge is shown for contrast: it has no way to adapt its
# threshold to the sparsity it found.

import numpy as np

from hullselect import ObservationVector, SelectorConfig, mallows_cp, select

rng = np.random.default_rng(7)

n, s = 200, 6
theta = np.zeros(n)
theta[:s] = rng.uniform(4.0, 6.0, s) * rng.choice([-1, 1], s)
x = theta + rng.standard_normal(n)

obs = ObservationVector(x, sigma=1.0)
truth = set(np.flatnonzero(theta) + 1)
print(f"planted support: {sorted(truth)}")

# The penalty constant K trades false positives against misses. Sweep it.
for K in (0.5, 1.0, 2.0, 4.0, 8.0):
    result = select(obs, SelectorConfig(K=K, sigma=1.0))
    got = set(result.selected.indices)
    print(
        f"K={K:>4}: preselector size {len(result.preselector):>3}, "
        f"threshold {result.threshold:7.2f}, selected {sorted(got)}, "
        f"errors {len(got ^ truth)}"
    )

# The baseline threshold is 2 sigma^2 regardless of n or sparsity, so pure
# noise coordinates clear it routinely at this dimension.
baseline = set(mallows_cp(obs).indices)
print(f"\nmallows baseline: {len(baseline)} selected, errors {len(baseline ^ truth)}")

# The selected set is always a subset of the preselector, and an empty
# preselector (pure noise, large K) selects nothing.
quiet = select(ObservationVector(rng.standard_normal(n), 1.0), SelectorConfig(K=8.0, sigma=1.0))
print(f"pure noise at K=8: preselector {len(quiet.preselector)}, selected {len(quiet.selected)}")
