"""One slot of the mixed-timescale pipeline, end to end: statistics-based
analog precoding held fixed, per-slot effective channel, zero-forcing
baseband, power normalization, and the resulting per-user link quality.
The per-slot stages take a stack of slots; here it is a stack of one.
"""

import numpy as np

from mphp import SchemeId, SystemConfig, build_precoders, design_long_term, draw_channel
from mphp.baseband import effective_channel, zf_precoder
from mphp.metrics import build_context, evaluate_slot, intra_group_leakage, sinr_per_user

config = SystemConfig(M=32, K=6, G=3, n_slots=1)
grouping, scenario, geometry = build_context(config, seed=12)

print(f"groups: {[list(m) for m in grouping.members]}")
long_state = design_long_term(SchemeId.MPHP, grouping, config)

stack = draw_channel(scenario, geometry, seed=12, slot=[0])
precoders = build_precoders(SchemeId.MPHP, long_state, stack, grouping, config)
h, beams, power = stack[0], precoders.beams[0], precoders.power[0]

print("\n=== per-group baseband stage ===")
for g in range(grouping.group_count):
    f_g = long_state.f[:, grouping.rf_chains[g]]
    effective = effective_channel(h[:, grouping.members[g]], f_g)
    product = effective @ zf_precoder(effective)
    print(f"group {g}: effective channel {effective.shape}, "
          f"|diag(HW)| = {np.round(np.abs(np.diag(product)), 4)}, "
          f"max off-diagonal {np.max(np.abs(product - np.diag(np.diag(product)))):.2e}")

radiated = sum(
    float(np.sum(power[members] * np.sum(np.abs(beams[:, members]) ** 2, axis=0)))
    for members in grouping.members
)
print(f"\ntotal radiated power: {radiated:.12f} (budget P = {config.P})")

sinr, rate = sinr_per_user(stack, precoders, grouping)[0], evaluate_slot(stack, precoders, grouping)[0]
print("\n=== per-user link quality ===")
print(f"{'user':>4} {'p_k':>8} {'SINR':>8} {'rate':>8}")
for k in range(config.K):
    print(f"{k:>4} {power[k]:>8.3f} {sinr[k]:>8.3f} {rate[k]:>8.3f}")
leak = intra_group_leakage(stack, precoders, grouping)
print(f"residual intra-group leakage (diagnostic): max {leak.max():.2e}")
