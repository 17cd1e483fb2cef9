from statistics import NormalDist

import numpy as np
import pytest

from mphp.channel import (
    AOD_TRUNCATION_SIGMAS,
    STEERING_FINE,
    ArrayGeometry,
    _path_draws,
    _path_sum,
    _steering_matrix,
    UserChannelParams,
    draw_channel,
    make_scenario,
    scenario_correlations,
    steering_vector,
    truncated_normal_ppf,
)
from mphp.numerics import hermitian_eig, hermitian_part


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        a = steering_vector(0.0, ArrayGeometry(4))
        assert np.array_equal(a, np.ones(4, dtype=complex))

    def test_endfire_limit(self):
        # theta -> pi/2 with half-wavelength spacing: entry m -> exp(j*pi*m)
        a = steering_vector(np.pi / 2 - 1e-12, ArrayGeometry(6))
        expected = np.exp(1j * np.pi * np.arange(6))
        assert np.allclose(a, expected, atol=1e-9)

    @pytest.mark.parametrize("theta", [-1.2, -0.3, 0.0, 0.7, 1.5])
    def test_unit_modulus(self, theta):
        a = steering_vector(theta, ArrayGeometry(8, element_spacing=0.37))
        assert np.allclose(np.abs(a), 1.0)


class TestCorrelation:
    def test_zero_spread_is_rank_one(self):
        geom = ArrayGeometry(8)
        params = UserChannelParams(mean_aod=0.3, angular_spread=0.0, path_count=4)
        corr = scenario_correlations([params], geom)[0]
        a = steering_vector(0.3, geom)
        assert np.allclose(corr, np.outer(a, a.conj()))
        values, _ = hermitian_eig(corr)
        assert values[0] == pytest.approx(8.0, rel=1e-12)
        assert np.all(np.abs(values[1:]) <= 1e-10)

    def test_identical_params_identical_output(self):
        geom = ArrayGeometry(16)
        p = UserChannelParams(mean_aod=-0.4, angular_spread=0.05, path_count=6)
        r1 = scenario_correlations([p], geom, quadrature_points=128)[0]
        r2 = scenario_correlations([p], geom, quadrature_points=128)[0]
        assert np.array_equal(r1, r2)

    def test_against_high_resolution_quadrature(self):
        # Independent midpoint-rule oracle at 10x the resolution.
        geom = ArrayGeometry(8)
        mean_aod, spread = 0.25, 0.1
        params = UserChannelParams(mean_aod=mean_aod, angular_spread=spread, path_count=4)
        corr = scenario_correlations([params], geom, quadrature_points=256)[0]

        n = 2560
        lo, hi = mean_aod - 2 * spread, mean_aod + 2 * spread
        step = (hi - lo) / n
        oracle = np.zeros((8, 8), dtype=complex)
        weight_sum = 0.0
        for i in range(n):
            theta = lo + (i + 0.5) * step
            w = np.exp(-0.5 * ((theta - mean_aod) / spread) ** 2)
            a = np.exp(2j * np.pi * 0.5 * np.arange(8) * np.sin(theta))
            oracle += w * np.outer(a, a.conj())
            weight_sum += w
        oracle /= weight_sum

        assert np.linalg.norm(corr - oracle) <= 1e-4 * np.linalg.norm(oracle)
        values, vectors = hermitian_eig(corr)
        assert values.sum() == pytest.approx(8.0, abs=1e-6)
        mean_response = steering_vector(mean_aod, geom)
        alignment = abs(vectors[:, 0].conj() @ mean_response) / np.sqrt(8.0)
        assert alignment > 0.99

    @pytest.mark.parametrize("spread,power", [(0.02, 1.0), (0.15, 2.5), (0.0, 0.7)])
    def test_psd_and_trace(self, spread, power):
        geom = ArrayGeometry(12)
        params = UserChannelParams(0.1, spread, path_count=3, mean_power=power)
        corr = scenario_correlations([params], geom)[0]
        assert np.array_equal(corr, corr.conj().T)
        values, _ = hermitian_eig(corr)
        assert np.all(values >= -1e-10 * np.real(np.trace(corr)))
        assert np.real(np.trace(corr)) == pytest.approx(12 * power, rel=1e-6)

    @pytest.mark.parametrize("spread", [0.02, 0.1, 0.3])
    @pytest.mark.parametrize("m_ant", [8, 32, 64, 128])
    def test_psd_without_projection(self, m_ant, spread):
        # A * diag(w) * A^H is PSD by construction: with no eigenvalue clamp,
        # the computed negative eigenvalues stay at rounding level even where
        # almost all of the M eigenvalues are zero.
        corr = scenario_correlations([UserChannelParams(0.3, spread, path_count=3)], ArrayGeometry(m_ant))[0]
        assert np.array_equal(corr, corr.conj().T)
        values, _ = hermitian_eig(corr)
        assert values[-1] >= -64 * np.finfo(float).eps * np.real(np.trace(corr))

    def test_too_few_quadrature_points(self):
        with pytest.raises(ValueError):
            scenario_correlations([UserChannelParams(0.0, 0.1, 1)], ArrayGeometry(4), 16)


def steering_product_correlation(params, geometry, quadrature_points=256):
    """The correlation as the steering product A diag(w) A^H over the same
    midpoint quadrature, symmetrized and trace-renormalized: the oracle for
    the lag-sum Toeplitz construction."""
    half_width = AOD_TRUNCATION_SIGMAS * params.angular_spread
    step = 2.0 * half_width / quadrature_points
    thetas = params.mean_aod - half_width + (np.arange(quadrature_points) + 0.5) * step
    weights = np.exp(-0.5 * ((thetas - params.mean_aod) / params.angular_spread) ** 2)
    weights /= weights.sum()
    a = _steering_matrix(thetas, geometry)
    corr = hermitian_part(params.mean_power * ((a * weights[None, :]) @ a.conj().T))
    return corr * (geometry.antenna_count * params.mean_power) / float(np.real(np.trace(corr)))


class TestToeplitzCorrelation:
    @pytest.mark.parametrize("power", [1.0, 2.5])
    @pytest.mark.parametrize("spread", [0.01, 0.03, 0.5])
    @pytest.mark.parametrize("m_ant", [1, 2, 8, 128, 1024])
    def test_matches_steering_product(self, m_ant, spread, power):
        for mean_aod, spacing in ((0.7, 0.5), (-1.3, 0.37)):
            geom = ArrayGeometry(m_ant, element_spacing=spacing)
            params = UserChannelParams(mean_aod, spread, path_count=3, mean_power=power)
            corr = scenario_correlations([params], geom)[0]
            oracle = steering_product_correlation(params, geom)
            assert np.linalg.norm(corr - oracle) <= 1e-12 * np.linalg.norm(oracle)
            assert np.array_equal(corr, corr.conj().T)
            assert corr.flags.writeable and corr.flags.c_contiguous

    def test_is_a_fresh_array(self):
        params = UserChannelParams(0.2, 0.05, path_count=3)
        first = scenario_correlations([params], ArrayGeometry(16))[0]
        second = scenario_correlations([params], ArrayGeometry(16))[0]
        first[3, 5] = 7.0
        assert not np.shares_memory(first, second)
        assert first[5, 3] != 7.0 and second[3, 5] != 7.0

    def test_is_toeplitz(self):
        corr = scenario_correlations([UserChannelParams(-0.4, 0.1, path_count=3)], ArrayGeometry(12))[0]
        for lag in range(-11, 12):
            assert np.all(np.diagonal(corr, lag) == np.diagonal(corr, lag)[0])


def per_user_lag_correlation(params, geometry, quadrature_points=256):
    """One user's correlation by its own lag sum, written out per user: the
    oracle, byte for byte, for the batched pass of ``scenario_correlations``."""
    m_ant = geometry.antenna_count
    if params.angular_spread == 0.0:
        thetas, weights = np.array([params.mean_aod]), np.array([1.0])
    else:
        half_width = AOD_TRUNCATION_SIGMAS * params.angular_spread
        step = 2.0 * half_width / quadrature_points
        thetas = (params.mean_aod - half_width) + (np.arange(quadrature_points) + 0.5) * step
        weights = np.exp(-0.5 * ((thetas - params.mean_aod) / params.angular_spread) ** 2)
        weights /= weights.sum()
    phi = 2.0 * np.pi * geometry.element_spacing * np.sin(thetas)
    b = int(np.ceil(np.sqrt(m_ant)))
    coarse = np.exp(1j * np.outer(b * np.arange(-(-m_ant // b)), phi)) * weights
    lags = (coarse @ np.exp(1j * np.outer(np.arange(b), phi)).T).ravel()[:m_ant]
    lags *= params.mean_power / lags[0].real
    both = np.append(lags[:0:-1].conj(), lags)
    return np.array(np.lib.stride_tricks.sliding_window_view(both, m_ant)[:, ::-1], order="C")


class TestBatchedCorrelations:
    """All users' correlations come from one batched lag sum, byte-equal to
    each user's own."""

    @staticmethod
    def mixed_users():
        spreads = [0.0, 0.1, 0.3, 0.0, 0.02, 0.5, 0.0]
        counts = [1, 6, 3, 6, 2, 6, 4]
        powers = [1.0, 2.0, 0.5, 1.0, 3.0, 1.0, 0.7]
        aods = np.linspace(-1.2, 1.1, len(spreads))
        return [UserChannelParams(float(a), s, c, w) for a, s, c, w in zip(aods, spreads, counts, powers)]

    @pytest.mark.parametrize("quadrature", [32, 256])
    @pytest.mark.parametrize("spacing", [0.5, 0.37])
    @pytest.mark.parametrize("m_ant", [1, 7, 16, 128])
    def test_bytes_equal_per_user(self, m_ant, spacing, quadrature):
        geom = ArrayGeometry(m_ant, element_spacing=spacing)
        params = self.mixed_users()
        stacked = scenario_correlations(params, geom, quadrature)
        assert len(stacked) == len(params)
        for p, corr in zip(params, stacked):
            alone = scenario_correlations([p], geom, quadrature)[0]
            assert corr.dtype == alone.dtype == complex and corr.shape == (m_ant, m_ant)
            assert corr.tobytes() == alone.tobytes()
            assert corr.tobytes() == per_user_lag_correlation(p, geom, quadrature).tobytes()

    @pytest.mark.parametrize("spread", [0.0, 0.1])
    def test_one_spread_class(self, spread):
        # Every user in one quadrature class, none in the other.
        geom = ArrayGeometry(16)
        params = [UserChannelParams(a, spread, 3, w) for a, w in ((-0.4, 1.0), (0.2, 2.0), (0.9, 0.5))]
        for p, corr in zip(params, scenario_correlations(params, geom)):
            assert corr.tobytes() == per_user_lag_correlation(p, geom).tobytes()

    def test_neighbours_do_not_matter(self):
        geom = ArrayGeometry(32)
        params = self.mixed_users()
        together = scenario_correlations(params, geom)
        for k in range(len(params)):
            assert together[k].tobytes() == scenario_correlations(params[k:] + params[:k], geom)[0].tobytes()


class TestPathSum:
    """``draw_channel`` sums each user's paths over a padded (..., K,
    paths) view, byte-equal to the per-user, per-path loop of
    ``scalar_draw_channel``."""

    @pytest.mark.parametrize("counts", [(1, 6, 3), (6, 6, 6), (2, 1), (1,)])
    @pytest.mark.parametrize("m_ant", [1, 7, 16, 64])
    def test_bytes_equal_per_path_loop(self, m_ant, counts):
        params = [
            UserChannelParams(0.3 * k - 0.4, 0.1 * (k % 2), count, 1.0 + k) for k, count in enumerate(counts)
        ]
        for spacing in (0.5, 0.37):
            geom = ArrayGeometry(m_ant, element_spacing=spacing)
            h = draw_channel(params, geom, seed=11, slot=range(30))
            assert h.shape == (30, m_ant, len(counts)) and h.flags.c_contiguous
            expected = np.stack([scalar_draw_channel(params, geom, 11, slot) for slot in range(30)])
            assert h.tobytes() == expected.tobytes()

    def test_paths_are_not_modified(self):
        # Equal path counts take the drawn arrays unpadded, unequal ones copy them into the padding.
        for params in ([UserChannelParams(0.1, 0.1, 1), UserChannelParams(-0.5, 0.2, 4)], [UserChannelParams(0.3, 0.1, 3)] * 2):
            aods, gains = _path_draws(params, 2, list(range(5)))
            kept = aods.copy(), gains.copy()
            _path_sum(aods, gains, params, ArrayGeometry(16))
            assert np.array_equal(aods, kept[0]) and np.array_equal(gains, kept[1])


@pytest.fixture(scope="module")
def channel_draws():
    """10^4 single-user draws shared by the moment-matching tests."""
    geom = ArrayGeometry(8)
    params = [UserChannelParams(mean_aod=0.2, angular_spread=0.1, path_count=8)]
    draws = np.stack([draw_channel(params, geom, seed=42, slot=t)[:, 0] for t in range(10_000)])
    return geom, params[0], draws


class TestDrawChannel:
    def test_deterministic_for_same_seed(self):
        geom = ArrayGeometry(6)
        params = make_scenario(3, 2, seed=5)
        h1 = draw_channel(params, geom, seed=9, slot=4)
        h2 = draw_channel(params, geom, seed=9, slot=4)
        assert np.array_equal(h1, h2)

    def test_distinct_slots_differ(self):
        geom = ArrayGeometry(6)
        params = make_scenario(3, 2, seed=5)
        assert not np.allclose(
            draw_channel(params, geom, seed=9, slot=0), draw_channel(params, geom, seed=9, slot=1)
        )

    def test_single_path_zero_spread_is_scaled_steering(self):
        geom = ArrayGeometry(5)
        params = [UserChannelParams(mean_aod=-0.6, angular_spread=0.0, path_count=1)]
        h = draw_channel(params, geom, seed=3)[:, 0]
        a = steering_vector(-0.6, geom)
        gain = h[0] / a[0]
        assert np.allclose(h, gain * a)

    def test_sample_correlation_matches_analytic(self, channel_draws):
        geom, params, draws = channel_draws
        sample = (draws.conj()[:, :, None] * draws[:, None, :]).mean(axis=0).T
        corr = scenario_correlations([params], geom)[0]
        rel = np.linalg.norm(sample - corr) / np.linalg.norm(corr)
        assert rel <= 0.05

    def test_mean_energy_matches_antenna_count(self, channel_draws):
        _, _, draws = channel_draws
        energy = np.sum(np.abs(draws) ** 2, axis=1)
        stderr = energy.std(ddof=1) / np.sqrt(energy.size)
        assert abs(energy.mean() - 8.0) <= 3 * stderr


def scalar_truncated_normal_ppf(u):
    """The inverse CDF of the standard normal truncated to +-2 sigma, one value at a time."""
    normal = NormalDist()
    low, high = normal.cdf(-AOD_TRUNCATION_SIGMAS), normal.cdf(AOD_TRUNCATION_SIGMAS)
    return np.array([normal.inv_cdf(low + x * (high - low)) for x in u])


def scalar_draw_channel(params, geometry, seed, slot):
    """Reference draw: one generator per slot, whose 3 p uniforms per user
    (AoDs, gain moduli, gain phases) are read user by user, and per user one
    inverse CDF, one coarse-times-fine steering matrix and a path-by-path sum."""
    h = np.empty((geometry.antenna_count, len(params)), dtype=complex)
    uniforms = np.random.default_rng([seed, slot]).random(3 * sum(p.path_count for p in params))
    m = np.arange(geometry.antenna_count)[:, None]
    c = 2.0 * np.pi * geometry.element_spacing
    offset = 0
    for user, p in enumerate(params):
        u, offset = uniforms[offset : offset + 3 * p.path_count].reshape(3, p.path_count), offset + 3 * p.path_count
        if p.angular_spread == 0.0:
            thetas = np.full(p.path_count, p.mean_aod)
        else:
            thetas = scalar_truncated_normal_ppf(u[0]) * p.angular_spread + p.mean_aod
        gains = np.sqrt(-np.log1p(-u[1])) * np.exp(2j * np.pi * u[2])
        sines = np.sin(thetas)[None, :]
        coarse = np.exp(1j * (c * (STEERING_FINE * (m // STEERING_FINE)) * sines))
        fine = np.exp(1j * (c * (m % STEERING_FINE) * sines))
        terms = (coarse * fine) * (np.sqrt(p.mean_power / p.path_count) * gains)[None, :]
        h[:, user] = sum(terms[:, i] for i in range(p.path_count))
    return h


# scipy.stats.truncnorm.ppf(u, -2, 2) (scipy 1.17.1), the AoD inverse the
# draw used before the standard-library one.
TRUNCNORM_PPF = [
    (0.0, -2.0),
    (1e-09, -1.9999999823211216),
    (0.001, -1.9826256205020178),
    (0.02, -1.729720337191119),
    (0.1, -1.184032466693905),
    (0.2, -0.7938201191289554),
    (0.3, -0.4984028824219384),
    (0.4, -0.2415871851410768),
    (0.45, -0.11991557506520169),
    (0.5, 2.782916424671767e-16),
    (0.55, 0.11991557506520183),
    (0.6, 0.2415871851410771),
    (0.7, 0.49840288242193825),
    (0.8, 0.7938201191289558),
    (0.9, 1.184032466693906),
    (0.98, 1.729720337191119),
    (0.999, 1.9826256205020192),
    (0.9999999999999999, 1.9999999999999984),
]


class TestTruncatedNormalPpf:
    def test_matches_scalar_inverse(self):
        u = np.random.default_rng(3).uniform(size=500)
        assert np.array_equal(truncated_normal_ppf(u.tolist()), scalar_truncated_normal_ppf(u))

    def test_matches_scipy_table(self):
        # Both inverses sit within a few ulps of the support's end (2.0);
        # near the median both lose relative accuracy to cancellation, so
        # the bound is absolute.  Over 2e5 random uniforms the largest gap
        # was 2.4e-15, about 5.5 ulps of 2.0.
        u, expected = np.array(TRUNCNORM_PPF).T
        gap = np.abs(truncated_normal_ppf(u.tolist()) - expected)
        assert np.all(gap <= 8 * np.spacing(AOD_TRUNCATION_SIGMAS))

    def test_support_and_monotone(self):
        values = truncated_normal_ppf(np.linspace(0.0, 1.0 - 2**-53, 1001).tolist())
        assert np.all(np.diff(values) > 0)
        assert values[0] == -AOD_TRUNCATION_SIGMAS and values[-1] < AOD_TRUNCATION_SIGMAS


class TestMatchesScalarDraw:
    """The batched draw reproduces the per-user draw bit for bit."""

    @staticmethod
    def mixed_users(n_users, seed):
        # Mixed path counts and powers; every third user has zero spread.
        rng = np.random.default_rng([seed, 77])
        return [
            UserChannelParams(
                mean_aod=float(rng.uniform(-1.4, 1.4)),
                angular_spread=0.0 if u % 3 == 1 else float(rng.uniform(0.01, 0.3)),
                path_count=int(rng.integers(1, 10)),
                mean_power=float(rng.uniform(0.2, 3.0)),
            )
            for u in range(n_users)
        ]

    @pytest.mark.parametrize("antennas", [1, 16, 128])
    @pytest.mark.parametrize("n_users", [1, 8])
    @pytest.mark.parametrize("seed", [0, 3, 1234])
    def test_mixed_users(self, antennas, n_users, seed):
        geom = ArrayGeometry(antennas)
        params = self.mixed_users(n_users, seed)
        for slot in (0, 1, 17):
            assert np.array_equal(
                draw_channel(params, geom, seed=seed, slot=slot), scalar_draw_channel(params, geom, seed, slot)
            )
        stacked = np.stack([scalar_draw_channel(params, geom, seed, slot) for slot in (17, 0, 1)])
        assert np.array_equal(draw_channel(params, geom, seed=seed, slot=[17, 0, 1]), stacked)

    def test_all_users_zero_spread(self):
        geom = ArrayGeometry(16)
        params = [UserChannelParams(0.2, 0.0, 3, 1.5), UserChannelParams(-0.7, 0.0, 1)]
        for slot in range(3):
            assert np.array_equal(draw_channel(params, geom, seed=5, slot=slot), scalar_draw_channel(params, geom, 5, slot))
        stacked = np.stack([scalar_draw_channel(params, geom, 5, slot) for slot in range(3)])
        assert np.array_equal(draw_channel(params, geom, seed=5, slot=range(3)), stacked)

    @pytest.mark.parametrize("slots", [[], [2, -1]])
    def test_bad_slot_sequence_rejected(self, slots):
        with pytest.raises(ValueError):
            draw_channel(make_scenario(2, 1), ArrayGeometry(4), seed=1, slot=slots)

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_clustered_scenario(self, seed):
        geom = ArrayGeometry(64, element_spacing=0.37)
        params = make_scenario(8, 3, seed=seed)
        stacked = draw_channel(params, geom, seed=seed, slot=range(5))
        for slot in range(5):
            assert np.array_equal(
                draw_channel(params, geom, seed=seed, slot=slot), scalar_draw_channel(params, geom, seed, slot)
            )
            assert np.array_equal(stacked[slot], scalar_draw_channel(params, geom, seed, slot))


class TestPathSplit:
    """``draw_channel``'s path draw and per-array path sum compose to the channel draw."""

    @pytest.mark.parametrize("antennas", [1, 16, 64])
    @pytest.mark.parametrize("spread", ["mixed", "zero"])
    def test_composition_is_the_channel_draw(self, antennas, spread):
        geom = ArrayGeometry(antennas)
        params = TestMatchesScalarDraw.mixed_users(8, 3)
        if spread == "zero":
            params = [UserChannelParams(p.mean_aod, 0.0, p.path_count, p.mean_power) for p in params]
        slots = [17, 0, 5, 1]
        h = _path_sum(*_path_draws(params, 3, slots), params, geom)
        assert np.array_equal(h, draw_channel(params, geom, seed=3, slot=slots))
        assert np.array_equal(h, np.stack([scalar_draw_channel(params, geom, 3, slot) for slot in slots]))

    def test_one_path_draw_serves_two_arrays(self):
        params = make_scenario(8, 3, seed=7)
        aods, gains = _path_draws(params, 7, list(range(4)))
        for geom in (ArrayGeometry(16), ArrayGeometry(64, element_spacing=0.37)):
            expected = np.stack([scalar_draw_channel(params, geom, 7, slot) for slot in range(4)])
            assert np.array_equal(_path_sum(aods, gains, params, geom), expected)


class TestDrawContract:
    """Slot t's draw depends on (seed, t) alone, each user's numbers sit at
    an offset fixed by the users before it, and a steering row does not
    depend on the array size."""

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_users_keep_their_channels_when_users_are_added(self, seed):
        few, many = make_scenario(3, 2, seed=seed), make_scenario(8, 2, seed=seed)
        assert many[:3] == few
        geom = ArrayGeometry(32)
        for slot in (0, 5, 40):
            assert np.array_equal(
                draw_channel(many, geom, seed=seed, slot=slot)[:, :3], draw_channel(few, geom, seed=seed, slot=slot)
            )

    def test_zero_spread_users_keep_the_offsets(self):
        # A zero-spread user still takes its AoD uniforms, so the users after it draw the same paths.
        users = TestMatchesScalarDraw.mixed_users(4, 9)
        spread, still = (
            [UserChannelParams(p.mean_aod, s, p.path_count, p.mean_power) if u == 1 else p for u, p in enumerate(users)]
            for s in (0.2, 0.0)
        )
        geom = ArrayGeometry(16)
        first, second = draw_channel(spread, geom, seed=9, slot=range(3)), draw_channel(still, geom, seed=9, slot=range(3))
        assert np.array_equal(np.delete(first, 1, axis=2), np.delete(second, 1, axis=2))
        # The still user's gains are read where the oracle reads them, and all its paths leave at its mean AoD.
        assert np.array_equal(second, np.stack([scalar_draw_channel(still, geom, 9, slot) for slot in range(3)]))
        steering = steering_vector(still[1].mean_aod, geom)
        assert np.allclose(second[:, :, 1], second[:, :1, 1] * steering, rtol=0.0, atol=1e-12)
        assert not np.allclose(first[:, :, 1], first[:, :1, 1] * steering)

    @pytest.mark.parametrize("spacing", [0.5, 0.37])
    def test_narrower_arrays_are_the_leading_rows(self, spacing):
        params = TestMatchesScalarDraw.mixed_users(6, 4)
        wide = draw_channel(params, ArrayGeometry(256, spacing), seed=4, slot=range(5))
        for m_ant in (1, 4, 7, 16, 33, 64, 255):
            assert np.array_equal(draw_channel(params, ArrayGeometry(m_ant, spacing), seed=4, slot=range(5)), wide[:, :m_ant])
        other = draw_channel(params, ArrayGeometry(64, 0.5 if spacing != 0.5 else 0.37), seed=4, slot=range(5))
        assert not np.allclose(other, wide[:, :64])

    @pytest.mark.parametrize("spacing", [0.5, 0.37])
    def test_table_steering_matches_the_exponential(self, spacing):
        thetas = np.linspace(-1.5, 1.5, 301)
        geom = ArrayGeometry(1024, spacing)
        exact = np.exp(2j * np.pi * spacing * np.arange(1024)[:, None] * np.sin(thetas)[None, :])
        assert np.max(np.abs(_steering_matrix(thetas, geom) - exact)) <= 1e-12

    def test_gains_are_unit_power(self):
        # On one antenna, a one-path user at AoD 0 has its path's gain as its channel.
        gains = draw_channel([UserChannelParams(0.0, 0.0, path_count=1)] * 50, ArrayGeometry(1), seed=3, slot=range(400))[:, 0]
        assert gains.shape == (400, 50)
        # |g|^2 is Exp(1): mean 1 with standard deviation 1 / sqrt(20000).
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) <= 4 / np.sqrt(gains.size)
        assert abs(np.mean(gains)) <= 4 / np.sqrt(gains.size)


class TestScenario:
    def test_round_robin_clusters(self):
        params = make_scenario(6, 3, aod_jitter=0.0, seed=0)
        aods = np.array([p.mean_aod for p in params])
        assert np.allclose(aods[:3], aods[3:])
        assert len(set(np.round(aods[:3], 9))) == 3

    def test_single_cluster_centered(self):
        params = make_scenario(2, 1, aod_jitter=0.0, seed=0)
        assert params[0].mean_aod == pytest.approx(0.0, abs=1e-12)

    def test_jitter_bounded_and_deterministic(self):
        a = make_scenario(8, 3, aod_jitter=0.02, seed=11)
        b = make_scenario(8, 3, aod_jitter=0.02, seed=11)
        assert a == b
        reference = make_scenario(8, 3, aod_jitter=0.0, seed=11)
        offsets = [abs(x.mean_aod - y.mean_aod) for x, y in zip(a, reference)]
        assert max(offsets) <= 0.02

    def test_scenario_correlations_shapes(self):
        geom = ArrayGeometry(10)
        corrs = scenario_correlations(make_scenario(4, 2, seed=1), geom, 64)
        assert len(corrs) == 4
        assert all(c.shape == (10, 10) for c in corrs)

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            make_scenario(2, 3)


class TestValidation:
    def test_bad_mean_aod(self):
        with pytest.raises(ValueError):
            UserChannelParams(mean_aod=2.0, angular_spread=0.1, path_count=1)

    def test_bad_path_count(self):
        with pytest.raises(ValueError):
            UserChannelParams(mean_aod=0.0, angular_spread=0.1, path_count=0)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)
        with pytest.raises(ValueError):
            ArrayGeometry(4, element_spacing=0.0)
