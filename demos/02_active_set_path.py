# What "active set" means at the signal level, before any data is drawn.
#
# For a fixed signal, the active set at penalty level A minimizes the
# out-of-set signal energy plus A * sigma^2 times the sparsity penalty.
# Sweeping A from 0 to infinity walks a nested family of level sets of
# theta^2 (the variable selection path); the decomposition below lists the
# exact half-open A-intervals on which each set is the minimizer.

import numpy as np

from hullselect import (
    active_set,
    active_set_path,
    has_distinct_active_set,
    path_lookup,
    strong_signal_vector,
    variable_selection_path,
)

theta = np.array([9.0, 9.0, 4.0, 2.5, 2.5, 1.0, 0.0, 0.0, 0.0, 0.0])
sigma = 1.0

print("nested level-set family (variable selection path):")
for mask in variable_selection_path(theta):
    print(f"  {mask.to_json()}")

print("\nexact interval decomposition of the penalty axis:")
entries = active_set_path(theta, sigma)
for e in entries:
    hi = "inf" if np.isinf(e.a_high) else f"{e.a_high:.4f}"
    print(f"  A in [{e.a_low:9.4f}, {hi:>9}) -> {e.active.to_json()}")

# Pointwise queries reproduce the decomposition at every float level,
# breakpoints included: each a_low is the least level whose weight
# A * sigma^2 reaches the exact crossing, where the smaller set wins.
for e in entries:
    assert active_set(theta, e.a_low, sigma).active == path_lookup(entries, e.a_low) == e.active
for level in (0.0, 1.0, 5.0, 30.0):
    res = active_set(theta, level, sigma)
    assert res.active == path_lookup(entries, level)
    print(f"A={level:>5}: active {res.active.to_json()}, criterion {res.r_squared:.4f}")

# A signal has "distinct" active coordinates over a band when the active
# set does not change across it. Tied middling coordinates break this.
print("\nstable on [0.1, 0.5]?", has_distinct_active_set(theta, sigma, 0.1, 0.5))
print("stable on [0.5, 8.0]?", has_distinct_active_set(theta, sigma, 0.5, 8.0))

# The built-in generator places every supported coordinate just above the
# critical magnitude for a target level, pinning the active set below it.
strong = strong_signal_vector(n=10, s=3, level=8.0, sigma=sigma)
print("\ngenerated strong signal stable on [0, 8]:", has_distinct_active_set(strong, sigma, 0.0, 8.0))
