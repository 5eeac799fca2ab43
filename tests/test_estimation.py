import numpy as np
import pytest

from tppdepth import (
    DataError,
    SampleSet,
    SimConfig,
    fit_mahalanobis,
    fit_params,
    simulate,
)


@pytest.fixture
def two_point_sample():
    return SampleSet(0.0, [[1.0, 2.0], [3.0, 6.0]])


class TestFitParams:
    def test_hand_arithmetic(self, two_point_sample):
        params = fit_params(two_point_sample)
        assert params.mu_last == 4.0
        assert params.var_last == 8.0
        assert params.u_bar == (0.5, 0.5)
        assert params.eta == 4.0
        assert params.big_m == 4.0
        assert params.center == (2.0, 4.0)

    def test_big_m_override(self, two_point_sample):
        params = fit_params(two_point_sample, horizon=9.0)
        assert params.big_m == 9.0
        assert params.eta == 4.0

    def test_identical_realizations_rejected(self):
        sample = SampleSet(0.0, [[1.0, 2.0]] * 5)
        with pytest.raises(DataError, match="variance"):
            fit_params(sample)

    def test_single_realization_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_params(SampleSet(0.0, [[1.0, 2.0]]))

    def test_zero_duration_rejected(self):
        sample = SampleSet(1.0, [[1.0, 1.0], [2.0, 3.0]])
        with pytest.raises(DataError, match="zero duration"):
            fit_params(sample)

    def test_proportions_form_probability_vector(self):
        sample = simulate(SimConfig(kind="hpp", rates=(3.0,), k=4, n=500, seed=5))
        params = fit_params(sample)
        assert all(u > 0 for u in params.u_bar)
        assert sum(params.u_bar) == pytest.approx(1.0, abs=1e-12)

    def test_order_independence(self):
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=3, n=200, seed=9))
        shuffled = SampleSet(0.0, sample.times[::-1].copy())
        a = fit_params(sample)
        b = fit_params(shuffled)
        assert a.mu_last == pytest.approx(b.mu_last, rel=1e-12)
        assert a.var_last == pytest.approx(b.var_last, rel=1e-12)
        assert a.u_bar == pytest.approx(b.u_bar, rel=1e-12)

    def test_equivariance_identities(self):
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=300, seed=3))
        base = fit_params(sample)
        a, b = 2.5, -1.25
        moved = fit_params(sample.affine(a, b))
        assert moved.mu_last == pytest.approx(a * base.mu_last, rel=1e-12)
        assert moved.var_last == pytest.approx(a * a * base.var_last, rel=1e-12)
        assert moved.u_bar == pytest.approx(base.u_bar, rel=1e-12)
        assert moved.eta == pytest.approx(a * base.eta + b, rel=1e-12)
        assert moved.center == pytest.approx(
            tuple(a * c + b for c in base.center), rel=1e-12
        )

    def test_monte_carlo_constant_rate(self):
        # rate 2, k 2: duration mean 1.0 (variance 0.5), first-gap
        # proportion mean 0.5 (variance 1/12).
        n = 10000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=42))
        params = fit_params(sample)
        se_mu = np.sqrt(0.5 / n)
        assert abs(params.mu_last - 1.0) < 3 * se_mu
        se_u = np.sqrt((1 / 12) / n)
        assert abs(params.u_bar[0] - 0.5) < 3 * se_u
        assert abs(params.u_bar[1] - 0.5) < 3 * se_u


class TestFitMahalanobis:
    def test_hand_arithmetic(self, two_point_sample):
        mean, cov = fit_mahalanobis(two_point_sample)
        np.testing.assert_allclose(mean, [2.0, 4.0])
        np.testing.assert_allclose(cov, [[2.0, 4.0], [4.0, 8.0]])

    def test_single_point_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_mahalanobis(SampleSet(0.0, [[1.0, 2.0]]))

    def test_k1_shape(self):
        mean, cov = fit_mahalanobis(SampleSet(0.0, [[1.0], [3.0]]))
        assert mean.shape == (1,)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == 2.0

    def test_monte_carlo_mean(self):
        # Event i of a rate-2 process has mean i/2.
        n = 10000
        sample = simulate(SimConfig(kind="hpp", rates=(2.0,), k=2, n=n, seed=77))
        mean, _ = fit_mahalanobis(sample)
        se1 = np.sqrt(0.25 / n)
        se2 = np.sqrt(0.5 / n)
        assert abs(mean[0] - 0.5) < 3 * se1
        assert abs(mean[1] - 1.0) < 3 * se2
