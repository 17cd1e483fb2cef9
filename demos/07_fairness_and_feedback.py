"""Fairness comparison and CSI-feedback accounting: Jain's index per
scheme at the reference scenario, and the scalar feedback each scheme
needs per statistics period.
"""

from mphp import SchemeId, SystemConfig, monte_carlo_rates
from mphp.metrics import build_context

config = SystemConfig(n_slots=300)
context = build_context(config, seed=41)

# One engine call at one point: every scheme sees the same channel draws.
(runs,) = monte_carlo_rates(list(SchemeId), [config], 41, contexts=[context])

print(f"{'scheme':<18} {'jain':>7} {'worst rate':>11} {'sum rate':>9} {'feedback':>9} {'stats part':>10}")
for scheme, run in zip(SchemeId, runs):
    print(
        f"{scheme.value:<18} {run.jain_index:>7.4f} {run.worst_user_rate:>11.3f} "
        f"{run.sum_rate:>9.3f} {run.feedback_total:>9d} {run.feedback_statistics:>10d}"
    )

print(f"""
Feedback model over one statistics period of T = {config.T} slots:
  real-time schemes report the full M x K channel every slot (M*K*T);
  mixed-timescale schemes report the per-group effective channels every
  slot (T * sum of squared group sizes) plus the dominant eigenpairs of
  each group correlation once (the 'stats part').
""")
