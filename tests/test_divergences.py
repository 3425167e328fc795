"""Divergence computations and the inequality checks built on them.

The Gaussian chi-squared closed form is compared against plain quadrature
throughout; scalar oracle values below are hand-derived (noted inline).
Quadrature divergences take log-densities; a zero density is -inf.
"""

import json
import math

import numpy as np
import pytest

from temperlab import (
    INFINITY,
    CheckReport,
    NormalizationError,
    QuadratureGrid,
    chi2_gaussian,
    chi2_numeric,
    check_partition_ratio_bound,
    check_temp_scaling_bounds,
    get_fixture,
    kl_mixture_upper_bound_check,
)

# -inf - (-inf) or log(0) in the log-space code must fail, not become nan
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def gauss_logpdf(mean, sigma):
    c = -math.log(sigma * math.sqrt(2 * math.pi))

    def logpdf(x):
        return c - 0.5 * ((x - mean) / sigma) ** 2

    return logpdf


def gauss2_logpdf(mean, cov):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    inv = np.linalg.inv(cov)
    c = -math.log(2 * math.pi * math.sqrt(np.linalg.det(cov)))

    def logpdf(pts):
        d = pts - mean
        quad = np.einsum("ni,ij,nj->n", d, inv, d)
        return c - 0.5 * quad

    return logpdf


# ---------------------------------------------------------------------------
# grids


class TestQuadratureGrid:
    def test_gauss_rule_integrates_cubics_exactly(self):
        grid = QuadratureGrid.build([(0.0, 2.0)], nodes_per_axis=64, rule="gauss-legendre")
        val = float(grid.weights @ grid.evaluate(lambda x: x**3))
        assert val == pytest.approx(4.0, rel=1e-14)

    def test_gauss_legendre_is_the_only_rule(self):
        for build in (lambda rule: QuadratureGrid.build([(-9.0, 9.0)], rule=rule),
                      lambda rule: QuadratureGrid.for_gaussians([[0.0]], [1.0], rule=rule)):
            with pytest.raises(ValueError, match="unknown quadrature rule"):
                build("trapezoid")

    def test_two_dim_product_weights(self):
        grid = QuadratureGrid.build(
            [(-7.0, 7.0), (-7.0, 7.0)], nodes_per_axis=128, rule="gauss-legendre"
        )
        val = float(grid.weights @ np.exp(grid.evaluate(gauss2_logpdf([0.0, 0.0], np.eye(2)))))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_for_gaussians_covers_all_means(self):
        grid = QuadratureGrid.for_gaussians([[-3.0], [5.0]], [1.0, 2.0])
        (lo, hi), = grid.bounds
        assert lo <= -3.0 - 8.0 and hi >= 5.0 + 16.0

    def test_dimension_and_size_limits(self):
        with pytest.raises(ValueError):
            QuadratureGrid.build([(-1, 1)] * 3)
        with pytest.raises(ValueError):
            QuadratureGrid.build([(-1, 1)], nodes_per_axis=16)
        with pytest.raises(ValueError):
            QuadratureGrid.build([(2.0, -2.0)])


# ---------------------------------------------------------------------------
# chi-squared, closed form vs quadrature


def test_forced_unit_shift_value():
    # chi^2(N(1,1) || N(0,1)) = e - 1
    got = chi2_gaussian([1.0], [[1.0]], [0.0], [[1.0]])
    assert got == pytest.approx(math.e - 1.0, rel=1e-12)


def test_identical_gaussians_give_zero():
    assert chi2_gaussian([0.3], [[2.0]], [0.3], [[2.0]]) == pytest.approx(
        0.0, abs=1e-14
    )


def test_closed_form_matches_quadrature_one_dim():
    cases = [
        (0.0, 1.0, 0.5, 1.2),
        (-1.0, 0.8, 1.0, 1.1),
        (2.0, 1.4, 0.0, 1.3),
    ]
    for mq, sq, mp, sp in cases:
        grid = QuadratureGrid.for_gaussians(
            [[mq], [mp]], [sq, sp], nodes_per_axis=800, rule="gauss-legendre"
        )
        num = chi2_numeric(gauss_logpdf(mq, sq), gauss_logpdf(mp, sp), grid)
        closed = chi2_gaussian([mq], [[sq**2]], [mp], [[sp**2]])
        assert closed == pytest.approx(num, rel=1e-6)


def test_closed_form_matches_quadrature_two_dim():
    mq, mp = np.array([0.5, -0.2]), np.zeros(2)
    cq = np.array([[1.0, 0.2], [0.2, 0.8]])
    cp = np.array([[1.2, 0.0], [0.0, 1.1]])
    grid = QuadratureGrid.build(
        [(-10.0, 10.0), (-10.0, 10.0)], nodes_per_axis=220, rule="gauss-legendre"
    )
    num = chi2_numeric(gauss2_logpdf(mq, cq), gauss2_logpdf(mp, cp), grid)
    closed = chi2_gaussian(mq, cq, mp, cp)
    assert closed == pytest.approx(num, rel=1e-5)


def test_closed_form_matches_quadrature_where_p_underflows():
    # the grid covers q^2/p out to x = 26.9, where p is e^-852 and q e^-405:
    # in linear space p is 0 there while q is not
    mq, sq, mp, sp = 2.0, 0.875, -2.0, 0.7
    a = 2.0 / sq**2 - 1.0 / sp**2
    b = 2.0 * mq / sq**2 - mp / sp**2
    grid = QuadratureGrid.for_gaussians(
        [[mq], [mp], [b / a]], [sq, sp, 1.0 / math.sqrt(a)], nodes_per_axis=640
    )
    assert np.exp(gauss_logpdf(mp, sp)(grid.points)).min() == 0.0
    closed = chi2_gaussian([mq], [[sq**2]], [mp], [[sp**2]])
    assert closed > 1e18
    num = chi2_numeric(gauss_logpdf(mq, sq), gauss_logpdf(mp, sp), grid)
    assert num == pytest.approx(closed, rel=1e-5)


def test_divergent_pair_returns_infinity():
    # q twice as wide as p makes the integrand grow like exp(+x^2/8)
    assert chi2_gaussian([0.0], [[4.0]], [0.0], [[1.0]]) == INFINITY
    # the numeric route must agree once q has mass where p has none
    grid = QuadratureGrid.build([(-12.0, 12.0)], nodes_per_axis=400)
    got = chi2_numeric(gauss_logpdf(0.0, 2.0), gauss_logpdf(0.0, 1.0), grid)
    assert got > 1e4 or got == INFINITY


def test_support_violation_is_infinite():
    grid = QuadratureGrid.build([(-8.0, 8.0)], nodes_per_axis=400)

    def half_line(x):
        # normalized density that is exactly zero for x <= 0
        return np.where(x > 0, math.log(2.0) + gauss_logpdf(0.0, 1.0)(x), -np.inf)

    got = chi2_numeric(gauss_logpdf(0.0, 1.0), half_line, grid)
    assert got == INFINITY


def test_chi2_never_negative_numerically():
    grid = QuadratureGrid.for_gaussians([[0.0]], [1.0], nodes_per_axis=600)
    p = gauss_logpdf(0.0, 1.0)
    assert chi2_numeric(p, p, grid) >= 0.0


def test_same_variance_shift_formula():
    # equal covariances: 1 + chi^2 = exp(shift^2 / sigma^2)
    s2 = 1.7
    shift = 0.9
    got = chi2_gaussian([shift], [[s2]], [0.0], [[s2]])
    assert got == pytest.approx(math.expm1(shift**2 / s2), rel=1e-12)


def test_normalization_guard():
    grid = QuadratureGrid.build([(-9.0, 9.0)], nodes_per_axis=300)

    def half_density(x):
        return math.log(0.5) + gauss_logpdf(0.0, 1.0)(x)

    with pytest.raises(NormalizationError):
        chi2_numeric(half_density, gauss_logpdf(0.0, 1.0), grid)


# ---------------------------------------------------------------------------
# KL


def kl_by_quadrature(log_p, log_q, grid):
    """KL(P || Q): the left side of the mixture check with one component each."""
    return kl_mixture_upper_bound_check([1.0], [log_p], [1.0], [log_q], grid).details["lhs"]


def test_kl_gaussian_closed_form():
    # KL(N(mu, s^2) || N(0,1)) = ln(1/s) + (s^2 + mu^2 - 1)/2
    for mu, s in ((0.0, 0.5), (1.2, 1.0), (-0.7, 1.4)):
        grid = QuadratureGrid.for_gaussians(
            [[mu], [0.0]], [s, 1.0], nodes_per_axis=1200, rule="gauss-legendre"
        )
        num = kl_by_quadrature(gauss_logpdf(mu, s), gauss_logpdf(0.0, 1.0), grid)
        closed = math.log(1.0 / s) + (s**2 + mu**2 - 1.0) / 2.0
        assert num == pytest.approx(closed, abs=1e-8)


def test_kl_support_violation_infinite():
    grid = QuadratureGrid.build([(-8.0, 8.0)], nodes_per_axis=400)

    def clipped(x):
        v = gauss_logpdf(0.0, 1.0)(x)
        out = np.where(x > 0, math.log(2.0) + v, -np.inf)
        return out

    # q vanishes on half the line where p is positive
    assert kl_by_quadrature(gauss_logpdf(0.0, 1.0), clipped, grid) == INFINITY
    # the reverse direction is finite: 0 * log 0 contributes nothing
    val = kl_by_quadrature(clipped, gauss_logpdf(0.0, 1.0), grid)
    assert val == pytest.approx(math.log(2.0), abs=1e-6)


# ---------------------------------------------------------------------------
# report-producing checks


def test_temp_scaling_report_no_violations():
    fx = get_fixture("two-mode-asymmetric")
    rng = np.random.default_rng(2)
    probes = rng.normal(size=(500, 1)) * 4.0
    report = check_temp_scaling_bounds(
        fx.target, betas=[0.1, 0.5, 0.9, 1.0], points=probes
    )
    assert report.passed
    assert report.violations == 0
    assert report.num_cases == 2 * 4 * 500  # both sandwich sides per probe
    assert report.worst_margin <= 0.0
    payload = json.dumps(report.to_dict())
    assert "temp-scaling" in payload



def test_report_details_serialize_as_plain_json():
    report = CheckReport(
        check="demo",
        num_cases=1,
        violations=0,
        worst_margin=0.0,
        passed=True,
        details={"flag": True, "bound": np.float64(np.inf), "values": np.arange(3.0)},
    )
    details = json.loads(json.dumps(report.to_dict()))["details"]
    assert details["flag"] is True
    assert details["bound"] == "inf"
    assert details["values"] == [0.0, 1.0, 2.0]


def test_infinite_margin_report_is_strict_json():
    grid = QuadratureGrid.build([(-8.0, 8.0)], nodes_per_axis=400)

    def clipped(x):
        return np.where(x > 0, math.log(2.0) + gauss_logpdf(0.0, 1.0)(x), -np.inf)

    # the second pair's KL is infinite, so the right-hand side is too
    std = gauss_logpdf(0.0, 1.0)
    report = kl_mixture_upper_bound_check([0.5, 0.5], [std, std], [0.5, 0.5], [std, clipped], grid)
    assert report.passed and report.worst_margin == INFINITY
    doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert doc["worst_margin"] == "inf"
    assert doc["details"]["rhs"] == "inf"

def test_temp_scaling_rejects_bad_beta():
    fx = get_fixture("two-mode-symmetric")
    with pytest.raises(ValueError):
        check_temp_scaling_bounds(fx.target, betas=[1.5], points=np.zeros((1, 1)))


def test_partition_ratio_bound_reports():
    fx = get_fixture("two-mode-symmetric")
    grid = QuadratureGrid.for_gaussians(
        fx.target.centers, fx.target.base.sigma, nodes_per_axis=1200, rule="gauss-legendre"
    )
    report = check_partition_ratio_bound(fx.target, 0.3, 0.5, grid)
    assert report.passed
    assert report.check == "partition-ratio-envelope"
    with pytest.raises(ValueError):
        check_partition_ratio_bound(fx.target, 0.5, 0.3, grid)


def test_kl_mixture_bound_holds_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = int(rng.integers(2, 4))
        wp = rng.dirichlet(np.ones(m))
        wq = rng.dirichlet(np.ones(m))
        mus_p = rng.uniform(-3, 3, m)
        mus_q = mus_p + rng.uniform(-0.5, 0.5, m)
        sig = rng.uniform(0.8, 1.3, m)
        comps_p = [gauss_logpdf(mu, s) for mu, s in zip(mus_p, sig)]
        comps_q = [gauss_logpdf(mu, s) for mu, s in zip(mus_q, sig)]
        grid = QuadratureGrid.for_gaussians(
            np.concatenate([mus_p, mus_q]).reshape(-1, 1),
            np.concatenate([sig, sig]),
            nodes_per_axis=1100,
            rule="gauss-legendre",
        )
        report = kl_mixture_upper_bound_check(wp, comps_p, wq, comps_q, grid)
        assert report.passed, report.details


def test_kl_mixture_bound_identical_components_reduce_to_weight_kl():
    # P_i = Q_i makes the component sum vanish; the bound is KL(w || w')
    w = np.array([0.3, 0.7])
    w2 = np.array([0.6, 0.4])
    comps = [gauss_logpdf(-1.0, 1.0), gauss_logpdf(1.0, 1.0)]
    grid = QuadratureGrid.for_gaussians(
        [[-1.0], [1.0]], [1.0, 1.0], nodes_per_axis=1100, rule="gauss-legendre"
    )
    report = kl_mixture_upper_bound_check(w, comps, w2, comps, grid)
    assert report.passed
    lhs = report.details["lhs"]
    rhs = report.details["rhs"]
    weight_kl = float(np.sum(w * np.log(w / w2)))
    assert rhs == pytest.approx(weight_kl, rel=1e-9)
    assert lhs <= rhs + 1e-6


# ---------------------------------------------------------------------------
# discrete inequality properties (grid-distribution forms)


def make_discrete(rng, n):
    p = rng.uniform(0.05, 1.0, n)
    return p / p.sum()


def test_change_of_measure_inequality_on_grids():
    # (E_P g - E_Q g)^2 <= Var_P(g) * chi^2(Q || P)
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(8, 64))
        p = make_discrete(rng, n)
        q = make_discrete(rng, n)
        g = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        gap = float(p @ g - q @ g) ** 2
        var = float(p @ (g - p @ g) ** 2)
        chi2 = float(np.sum(q * q / p) - 1.0)
        assert gap <= var * chi2 + 1e-9


def test_overlap_min_measure_chi2_bound():
    # R = min(P, Q), delta = total mass of R; chi^2(R/delta || P) <= 1/delta
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(8, 64))
        p = make_discrete(rng, n)
        q = make_discrete(rng, n)
        r = np.minimum(p, q)
        delta = float(r.sum())
        r_norm = r / delta
        chi2 = float(np.sum(r_norm**2 / p) - 1.0)
        assert chi2 <= 1.0 / delta + 1e-6
