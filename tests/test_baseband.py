import numpy as np
import pytest

from mphp.baseband import DegenerateBeamError, effective_channel, power_allocation, zf_precoder


class TestEffectiveChannel:
    def test_identity_selection(self, rng):
        h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        f = np.eye(4, dtype=complex)[:, :2]
        assert np.allclose(effective_channel(h, f), h.conj().T[:, :2])

    def test_zero_channel(self):
        assert np.array_equal(
            effective_channel(np.zeros((3, 2)), np.ones((3, 2))), np.zeros((2, 2))
        )

    def test_matches_elementwise_definition(self, rng):
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        f = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        eff = effective_channel(h, f)
        for k in range(3):
            for l in range(3):
                assert eff[k, l] == pytest.approx(h[:, k].conj() @ f[:, l], rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(np.zeros((3, 2)), np.zeros((4, 2)))


class TestZfPrecoder:
    def test_identity(self):
        assert np.allclose(zf_precoder(np.eye(3, dtype=complex)), np.eye(3))

    def test_scaling_removed_by_normalization(self):
        assert np.allclose(zf_precoder(2.0 * np.eye(2, dtype=complex)), np.eye(2))

    def test_hand_case(self):
        eff = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        w = zf_precoder(eff)
        expected = np.column_stack([[1.0, 0.0], np.array([-1.0, 1.0]) / np.sqrt(2.0)])
        assert np.allclose(w, expected, atol=1e-12)
        product = eff @ w
        assert np.allclose(product, np.diag([1.0, 1.0 / np.sqrt(2.0)]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_product_diagonal_real_positive(self, seed):
        rng = np.random.default_rng(seed)
        eff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w = zf_precoder(eff)
        assert np.allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-10)
        product = eff @ w
        off = product - np.diag(np.diag(product))
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(product)
        diag = np.diag(product)
        assert np.all(np.real(diag) > 0)
        # phase-convention-free positivity check
        assert np.all(np.abs(np.angle(diag)) <= 1e-8)

    def test_near_singular_is_outage(self):
        assert not zf_precoder(np.ones((2, 2), dtype=complex)).any()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            zf_precoder(np.zeros((2, 3)))


class TestPowerAllocation:
    def test_direct_formula(self):
        # ||F w||^2 = 0.5 with P = 1, K = 2 gives p = 1
        f = np.array([[1.0 / np.sqrt(2.0)], [0.0]], dtype=complex)
        p = power_allocation(f, np.eye(1, dtype=complex), total_power=1.0, n_users=2)
        assert p[0] == pytest.approx(1.0, rel=1e-12)

    def test_uniform_when_beams_unit_norm(self):
        f = np.eye(3, dtype=complex)
        p = power_allocation(f, np.eye(3, dtype=complex), total_power=2.0, n_users=3)
        assert np.allclose(p, 2.0 / 3.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_power_conservation(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        w = zf_precoder(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        total_power, n_users = 1.7, 3
        p = power_allocation(f, w, total_power, n_users)
        radiated = float(np.sum(p * np.sum(np.abs(f @ w) ** 2, axis=0)))
        assert radiated == pytest.approx(total_power * 3 / n_users, rel=1e-9)

    def test_zero_beam_rejected(self):
        f = np.zeros((4, 1), dtype=complex)
        with pytest.raises(DegenerateBeamError):
            power_allocation(f, np.eye(1, dtype=complex), 1.0, 2)


def complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStacks:
    """A stack of slots gives, slice by slice, the bits of single calls."""

    def test_effective_channel_broadcasts_a_shared_analog_stage(self, rng):
        h, f = complex_stack(rng, (5, 8, 3)), complex_stack(rng, (8, 3))
        stacked = effective_channel(h, f)
        assert stacked.shape == (5, 3, 3)
        for t in range(5):
            assert np.array_equal(stacked[t], effective_channel(h[t], f))

    def test_zf_outage_slices_are_zero_and_leave_the_rest(self, rng):
        eff = complex_stack(rng, (5, 3, 3))
        eff[1] = np.ones((3, 3))  # rank one
        eff[3, :, 2] = 0.0  # zero column
        eff[4] = np.diag([1e165, 1e155, 1e155])  # well conditioned, but ||column 0||^2 underflows
        w = zf_precoder(eff)
        for t in range(5):
            assert np.array_equal(w[t], zf_precoder(eff[t]))
        for t in (1, 3, 4):
            assert not w[t].any()

    def test_power_allocation_per_slice(self, rng):
        f, w = complex_stack(rng, (4, 6, 2)), zf_precoder(complex_stack(rng, (4, 2, 2)))
        stacked = power_allocation(f, w, 1.5, 5)
        assert stacked.shape == (4, 2)
        for t in range(4):
            assert np.array_equal(stacked[t], power_allocation(f[t], w[t], 1.5, 5))
        with pytest.raises(DegenerateBeamError):
            power_allocation(np.zeros((6, 2)), w, 1.5, 5)
