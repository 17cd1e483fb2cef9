"""Long-timescale RF design walkthrough: the relaxed per-group objective,
the Newton fixed point, and the greedy quantized projection onto the
one-shifter-per-antenna hardware.
"""

import numpy as np

from mphp import (
    ArrayGeometry,
    grfp_assign,
    group_users,
    leakage_correlation,
    make_scenario,
    relaxed_step,
    scenario_correlations,
    solve_relaxed,
    sslnr,
    validate_rf_precoder,
)

m_ant, n_users, n_groups, bits, power = 32, 6, 3, 4, 1.0
geometry = ArrayGeometry(m_ant)
scenario = make_scenario(n_users, n_groups, seed=2)
grouping = group_users(scenario_correlations(scenario, geometry), n_groups)

print("=== relaxed objective along the leakage weight ===")
# The group's correlation and leakage, reduced to the users' joint subspace
# (b x b); the column-norm floor still takes M.
g = 0
signal_corr = grouping.joint.reduced[g]
leak_corr = leakage_correlation(grouping, g)
streams = len(grouping.members[g])
slope = n_users * streams / power
for alpha in (0.0, 0.5, 1.0, 2.0, 4.0):
    _, value = relaxed_step(signal_corr, leak_corr, alpha, streams, antenna_count=m_ant)
    print(f"alpha = {alpha:4.1f}: objective {value:8.4f}   line {slope * alpha:8.4f}")

relaxed = solve_relaxed(grouping, power=power)
print("\n=== fixed points (safeguarded Newton) ===")
for g, alpha in enumerate(relaxed.alpha_star):
    print(f"group {g}: alpha* = {alpha:.6f} (columns: {relaxed.f_star[g].shape[1]})")

print("\n=== greedy quantized projection ===")
rf = grfp_assign(relaxed, grouping, bits=bits)
validate_rf_precoder(rf)
counts = np.bincount(rf.antenna_to_chain, minlength=n_users)
print(f"antennas per chain: {counts.tolist()} (sum {counts.sum()} = M)")
print(f"phase indices in [0, {2**bits - 1}]: min {rf.phase_index.min()} max {rf.phase_index.max()}")
print("\nper-group statistical SLNR, relaxed vs hardware-constrained:")
for g in range(grouping.group_count):
    loose = sslnr(relaxed.f_star[g], grouping, g, power)
    tight = sslnr(rf.f[:, grouping.rf_chains[g]], grouping, g, power)
    print(f"group {g}: relaxed {loose:.4f} -> quantized partial {tight:.4f}")
