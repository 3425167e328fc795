"""Tests for sample-quality diagnostics."""

import math

import numpy as np
import pytest

from temperlab.diagnostics import (
    empirical_tv,
    integrated_autocorr,
    mode_masses,
    modes_separated,
)
from temperlab.oracles import BaseFunction, MixtureTarget


def two_mode_target(a=5.0, sigma=1.0, weights=(0.5, 0.5)):
    return MixtureTarget(
        weights=np.array(weights),
        centers=np.array([[-a], [a]]),
        base=BaseFunction.isotropic_gaussian(sigma),
        dim=1,
    )


def draw_from_target(target, n, rng):
    """Direct sampler: pick a component by weight, then the base Gaussian."""
    comp = rng.choice(target.m, size=n, p=target.weights)
    sigma = target.base.sigma_equiv
    return target.centers[comp] + sigma * rng.standard_normal((n, target.dim))


def erf_bin_masses(edges, mean, sigma):
    """Gaussian mass of each bin [edges[k], edges[k+1]] from math.erf."""
    cdf = [0.5 * (1.0 + math.erf((e - mean) / (sigma * math.sqrt(2.0)))) for e in edges]
    return np.diff(cdf)


class TestEmpiricalTV:
    def test_direct_samples_land_below_noise_floor(self):
        target = two_mode_target()
        rng = np.random.default_rng(8)
        samples = draw_from_target(target, 100_000, rng)
        tv, hist = empirical_tv(samples, target, bins=40)
        assert tv < 0.05
        assert hist.num_bins == 40

    def test_exact_masses_sum_to_one_with_tail_bin(self):
        target = two_mode_target()
        rng = np.random.default_rng(9)
        samples = draw_from_target(target, 5_000, rng)
        _, hist = empirical_tv(samples, target, bins=50)
        assert hist.exact.sum() + hist.exact_out == pytest.approx(1.0, abs=1e-9)
        assert hist.empirical.sum() + hist.out_fraction == pytest.approx(1.0)

    def test_point_mass_tv_is_one_minus_bin_mass(self):
        target = two_mode_target()
        samples = np.full(10_000, 5.0)
        tv, hist = empirical_tv(samples, target, bins=100)
        k = np.searchsorted(hist.edges, 5.0) - 1
        expected = 1.0 - hist.exact[k]
        assert tv == pytest.approx(expected, abs=1e-12)

    def test_far_away_samples_give_tv_one(self):
        target = two_mode_target()
        samples = np.linspace(400.0, 500.0, 2_000)
        tv, hist = empirical_tv(samples, target, bins=60)
        assert hist.out_fraction == 1.0
        assert tv == pytest.approx(1.0, abs=1e-6)

    def test_permutation_invariance(self):
        target = two_mode_target()
        rng = np.random.default_rng(10)
        samples = draw_from_target(target, 3_000, rng)
        tv_a, _ = empirical_tv(samples, target, bins=30)
        tv_b, _ = empirical_tv(samples[::-1], target, bins=30)
        assert tv_a == tv_b

    def test_default_span_covers_six_sigma(self):
        target = two_mode_target(a=5.0, sigma=1.0)
        _, hist = empirical_tv(np.zeros(100), target, bins=20)
        assert hist.edges[0] == pytest.approx(-11.0)
        assert hist.edges[-1] == pytest.approx(11.0)

    def test_one_dimensional_bin_masses_match_erf(self):
        target = MixtureTarget(
            weights=np.array([1.0]),
            centers=np.array([[0.7]]),
            base=BaseFunction.isotropic_gaussian(1.3),
            dim=1,
        )
        _, hist = empirical_tv(np.zeros(10), target, bins=40)
        expected = erf_bin_masses(hist.edges, 0.7, 1.3)
        np.testing.assert_allclose(hist.exact, expected, rtol=0.0, atol=1e-12)

    def test_matrix_base_exact_masses_are_normalized(self):
        # H = 1.75, so a normalizer that drops or misreads det(H) shows here
        target = MixtureTarget(
            weights=np.array([0.4, 0.6]),
            centers=np.array([[-2.0], [1.0]]),
            base=BaseFunction.quadratic_form(np.array([[1.75]])),
            dim=1,
        )
        _, hist = empirical_tv(np.zeros(10), target, bins=30)
        assert hist.exact.sum() + hist.exact_out == pytest.approx(1.0, abs=1e-9)
        assert hist.exact_out < 1e-6

    def test_multidimensional_target_rejected(self):
        target = MixtureTarget(
            weights=np.array([1.0]),
            centers=np.zeros((1, 2)),
            base=BaseFunction.isotropic_gaussian(1.0),
            dim=2,
        )
        with pytest.raises(ValueError, match="1-d target"):
            empirical_tv(np.zeros((10, 2)), target)

    def test_bin_floor_and_empty_samples(self):
        target = two_mode_target()
        with pytest.raises(ValueError, match="20 bins"):
            empirical_tv(np.zeros(100), target, bins=10)
        with pytest.raises(ValueError, match="at least one sample"):
            empirical_tv(np.zeros(0), target)


class TestModeMasses:
    def test_symmetric_two_mode(self):
        target = two_mode_target()
        rng = np.random.default_rng(21)
        samples = draw_from_target(target, 100_000, rng)
        masses = mode_masses(samples, target)
        assert masses.sum() == 1.0
        se = math.sqrt(0.25 / 100_000)
        assert abs(masses[0] - 0.5) < 3 * se

    def test_unequal_weights(self):
        target = two_mode_target(weights=(0.3, 0.7))
        rng = np.random.default_rng(22)
        n = 100_000
        samples = draw_from_target(target, n, rng)
        masses = mode_masses(samples, target)
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(masses[0] - 0.3) < 3 * se
        assert abs(masses[1] - 0.7) < 3 * se

    def test_trapped_run_reads_as_one_zero(self):
        target = two_mode_target()
        rng = np.random.default_rng(23)
        samples = 5.0 + rng.standard_normal((20_000, 1))
        masses = mode_masses(samples, target)
        assert masses[1] > 0.999
        assert masses[0] < 0.001

    def test_flat_sample_array_accepted_for_1d(self):
        target = two_mode_target()
        masses = mode_masses(np.array([-5.0, -4.0, 5.0, 6.0]), target)
        np.testing.assert_allclose(masses, [0.5, 0.5])

    def test_close_centers_rejected(self):
        target = MixtureTarget(
            weights=np.array([0.5, 0.5]),
            centers=np.array([[-1.0], [1.0]]),
            base=BaseFunction.isotropic_gaussian(1.0),
            dim=1,
        )
        assert not modes_separated(target)
        with pytest.raises(ValueError, match="separation"):
            mode_masses(np.zeros((10, 1)), target)
        single = MixtureTarget(weights=np.array([1.0]), centers=np.array([[0.0]]),
                               base=BaseFunction.isotropic_gaussian(1.0), dim=1)
        assert modes_separated(single)
        # 4 base standard deviations apart counts as separated, a hair less does not
        assert modes_separated(two_mode_target(a=2.0))
        assert not modes_separated(two_mode_target(a=2.0 - 1e-9))
        assert modes_separated(two_mode_target(a=3.0, sigma=1.5))
        assert not modes_separated(two_mode_target(a=3.0, sigma=1.5 + 1e-9))

    def test_dimension_mismatch_rejected(self):
        target = two_mode_target()
        with pytest.raises(ValueError, match="dimension"):
            mode_masses(np.zeros((10, 2)), target)

    def test_single_component_is_trivially_one(self):
        target = MixtureTarget(
            weights=np.array([1.0]),
            centers=np.array([[0.0]]),
            base=BaseFunction.isotropic_gaussian(1.0),
            dim=1,
        )
        masses = mode_masses(np.linspace(-50, 50, 99), target)
        np.testing.assert_allclose(masses, [1.0])


class TestIntegratedAutocorr:
    def test_iid_series_is_near_one(self):
        rng = np.random.default_rng(31)
        est = integrated_autocorr(rng.standard_normal(50_000))
        assert 0.8 <= est.tau_int <= 1.3
        assert not est.degenerate
        assert est.ess == pytest.approx(50_000 / est.tau_int)

    def test_ar1_matches_closed_form(self):
        # AR(1) with coefficient phi has tau = (1 + phi) / (1 - phi) = 19
        phi = 0.9
        rng = np.random.default_rng(32)
        n = 400_000
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0] / math.sqrt(1 - phi**2)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        est = integrated_autocorr(x)
        assert est.tau_int == pytest.approx(19.0, rel=0.2)
        assert est.lag > 0

    def test_constant_series_is_degenerate(self):
        est = integrated_autocorr(np.full(100, 2.5))
        assert est.degenerate
        assert est.tau_int == 1.0
        assert est.ess == 100.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            integrated_autocorr(np.array([1.0, 2.0, 3.0]))

    def test_alternating_series_truncates_at_lag_zero(self):
        x = np.tile([1.0, -1.0], 500)
        est = integrated_autocorr(x)
        assert est.tau_int == 1.0
        assert est.lag == 0
        assert not est.degenerate

    def test_tau_at_least_ess_consistent(self):
        rng = np.random.default_rng(34)
        x = np.cumsum(rng.standard_normal(5_000))  # strongly correlated
        est = integrated_autocorr(x)
        assert est.tau_int > 10.0
        assert est.ess < 5_000 / 10.0
