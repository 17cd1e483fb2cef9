"""Average per-user rate against the antenna count for every scheme
(the antenna sweep the CLI exposes as `mphp sweep-m`), written to CSV.
"""

from dataclasses import replace

from mphp import SystemConfig, run_experiment, write_csv

config = replace(
    SystemConfig(n_slots=200, seed=21),
    sweep_parameter="M",
    sweep_values=(16.0, 32.0, 64.0),
)
rows = run_experiment(config)
write_csv(rows, "rate_vs_antennas.csv")
print("wrote rate_vs_antennas.csv")

print(f"\n{'M':>4} {'scheme':<18} {'avg rate':>9} {'sum rate':>9} {'worst':>8}")
for row in rows:
    print(
        f"{row.sweep_value:>4.0f} {row.scheme.value:<18} {row.metrics.avg_rate_per_user:>9.3f} "
        f"{row.metrics.sum_rate:>9.3f} {row.metrics.worst_user_rate:>8.3f}"
    )
print("\nExpected ordering at each M: FULL_DIGITAL_ZF above MPHP above FIXED_SUBARRAY,")
print("with every scheme improving as the array grows.")
