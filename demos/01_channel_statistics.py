"""Channel model walkthrough: steering vectors, spatial correlation, and
agreement between sampled channels and the analytic second-order statistics.
"""

import numpy as np

from mphp import (
    ArrayGeometry,
    UserChannelParams,
    draw_channel,
    hermitian_eig,
    scenario_correlations,
    steering_vector,
)

geometry = ArrayGeometry(antenna_count=16)
params = UserChannelParams(mean_aod=0.3, angular_spread=0.08, path_count=6)

print("=== array response ===")
a = steering_vector(params.mean_aod, geometry)
print(f"steering vector at {params.mean_aod} rad: first entries {np.round(a[:3], 3)}")
print(f"all entries unit modulus: {np.allclose(np.abs(a), 1.0)}")

print("\n=== spatial correlation ===")
corr = scenario_correlations([params], geometry)[0]
values, vectors = hermitian_eig(corr)
print(f"trace (should be M = {geometry.antenna_count}): {np.real(np.trace(corr)):.6f}")
print(f"top five eigenvalues: {np.round(values[:5], 4)}")
alignment = abs(vectors[:, 0].conj() @ a) / np.sqrt(geometry.antenna_count)
print(f"dominant eigenvector alignment with the mean direction: {alignment:.4f}")

print("\n=== sample statistics vs analytic correlation ===")
n_draws = 4000
acc = np.zeros((16, 16), dtype=complex)
energy = 0.0
for slot in range(n_draws):
    h = draw_channel([params], geometry, seed=7, slot=slot)[:, 0]
    acc += np.outer(h, h.conj())
    energy += float(np.sum(np.abs(h) ** 2))
sample = acc / n_draws
rel_error = np.linalg.norm(sample - corr) / np.linalg.norm(corr)
print(f"{n_draws} draws: Frobenius relative error {rel_error:.4f}")
print(f"mean channel energy {energy / n_draws:.3f} (expected {geometry.antenna_count})")
