"""One slot of the mixed-timescale pipeline, end to end: statistics-based
analog precoding held fixed, per-slot effective channel, zero-forcing
baseband, power normalization, and the resulting per-user link quality.
"""

import numpy as np

from mphp import SchemeId, SystemConfig, build_precoders, design_long_term, draw_channel
from mphp.metrics import build_context, evaluate_slot, intra_group_leakage

config = SystemConfig(M=32, K=6, L=6, G=3, n_slots=1)
grouping, scenario, geometry = build_context(config, seed=12)

print(f"groups: {[list(m) for m in grouping.members]}")
long_state = design_long_term(SchemeId.MPHP, grouping, config)

h = draw_channel(scenario, geometry, seed=12, slot=0)
precoders = build_precoders(SchemeId.MPHP, long_state, h, grouping, config)

print("\n=== per-group baseband stage ===")
for g in range(grouping.group_count):
    f_g = precoders.f_groups[g]
    effective = h[:, grouping.members[g]].conj().T @ f_g
    product = effective @ precoders.w_groups[g]
    print(f"group {g}: effective channel {effective.shape}, "
          f"|diag(HW)| = {np.round(np.abs(np.diag(product)), 4)}, "
          f"max off-diagonal {np.max(np.abs(product - np.diag(np.diag(product)))):.2e}")

radiated = sum(
    float(np.sum(precoders.power[grouping.members[g]]
                 * np.sum(np.abs(precoders.f_groups[g] @ precoders.w_groups[g]) ** 2, axis=0)))
    for g in range(grouping.group_count)
)
print(f"\ntotal radiated power: {radiated:.12f} (budget P = {config.P})")

slot = evaluate_slot(h, precoders, grouping)
print("\n=== per-user link quality ===")
print(f"{'user':>4} {'p_k':>8} {'SINR':>8} {'rate':>8}")
for k in range(config.K):
    print(f"{k:>4} {precoders.power[k]:>8.3f} {slot.sinr[k]:>8.3f} {slot.rate[k]:>8.3f}")
leak = intra_group_leakage(h, precoders.f_groups, precoders.w_groups, precoders.power, grouping)
print(f"residual intra-group leakage (diagnostic): max {leak.max():.2e}")
