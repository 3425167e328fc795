"""Oracle-layer tests: values, gradients, mixtures, the adversarial pair.

Gradient checks run central finite differences against every builtin
fixture's oracle.  Closed-form values are frozen from independent hand
computations noted inline.
"""

import math

import numpy as np
import pytest

from temperlab import (
    AdversarialTwoGaussian,
    BaseFunction,
    DimensionMismatch,
    FunctionOracle,
    MixtureOracle,
    MixtureTarget,
    PartitionUnavailable,
    Perturbation,
    PerturbedOracle,
    adversarial_bump_h,
    adversarial_bump_h_prime,
    builtin_fixture_names,
    gaussian_log_partition,
    get_fixture,
    mixture_grad,
    mixture_log_density,
    mixture_log_density_many,
)
from temperlab.oracles import _logsumexp


def central_diff(value_fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (value_fn(x + step) - value_fn(x - step)) / (2.0 * h)
    return g


def probe_points(fixture, rng, count):
    """Random probes spread over the regions the fixture cares about."""
    d = fixture.dim
    scale = max(1.0, fixture.D)
    pts = rng.normal(size=(count, d)) * (0.5 * scale)
    if fixture.kind == "adversarial":
        adv = fixture.oracle
        u = adv.u
        # park a third of the probes around the far center and the glue shell
        k = count // 3
        pts[:k] = 2.0 * u + rng.normal(size=(k, d))
        pts[k : 2 * k] = 2.0 * u + rng.normal(size=(k, d)) * (
            0.06 * np.linalg.norm(u)
        ) + 1.55 * np.linalg.norm(u) * _unit_rows(rng, k, d)
    elif fixture.target is not None:
        centers = fixture.target.centers
        for i in range(count // 2):
            pts[i] += centers[i % len(centers)]
    return pts


def _unit_rows(rng, k, d):
    v = rng.normal(size=(k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("name", builtin_fixture_names())
def test_gradient_matches_finite_differences(name):
    fixture = get_fixture(name)
    oracle = fixture.oracle
    rng = np.random.default_rng(hash(name) % 2**32)
    for x in probe_points(fixture, rng, 100):
        g = oracle.grad(x)
        fd = central_diff(oracle.value, x)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)


def test_log_density_permutation_invariant():
    rng = np.random.default_rng(7)
    base = BaseFunction.isotropic_gaussian(1.3)
    w = np.array([0.2, 0.5, 0.3])
    centers = rng.normal(size=(3, 2)) * 3.0
    t1 = MixtureTarget(dim=2, weights=w, centers=centers, base=base)
    perm = [2, 0, 1]
    t2 = MixtureTarget(dim=2, weights=w[perm], centers=centers[perm], base=base)
    for x in rng.normal(size=(50, 2)) * 4.0:
        a = mixture_log_density(t1, x)
        b = mixture_log_density(t2, x)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_potential_well_separated_matches_nearest_mode():
    # with the other mode 80 sigma away only the near component contributes
    base = BaseFunction.isotropic_gaussian(1.0)
    t = MixtureTarget(
        dim=1,
        weights=np.array([0.25, 0.75]),
        centers=np.array([[-40.0], [40.0]]),
        base=base,
    )
    x = np.array([-40.5])
    expect = -(math.log(0.25) - 0.5 * 0.25)
    assert abs(mixture_log_density(t, x) - expect) < 1e-12


def test_potential_matches_naive_summation():
    # small exponents, so the plain sum is exact enough to serve as oracle
    base = BaseFunction.isotropic_gaussian(1.0)
    t = MixtureTarget(
        dim=1,
        weights=np.array([0.3, 0.7]),
        centers=np.array([[0.0], [4.0]]),
        base=base,
    )
    x = 1.0
    naive = -math.log(
        0.3 * math.exp(-0.5 * (x - 0.0) ** 2) + 0.7 * math.exp(-0.5 * (x - 4.0) ** 2)
    )
    assert abs(mixture_log_density(t, np.array([x])) - naive) < 1e-12


def test_potential_trivial_cases():
    base = BaseFunction.isotropic_gaussian(1.0)
    single = MixtureTarget(
        dim=2, weights=np.array([1.0]), centers=np.zeros((1, 2)), base=base
    )
    assert mixture_log_density(single, np.zeros(2)) == 0.0
    np.testing.assert_array_equal(mixture_grad(single, np.zeros(2)), np.zeros(2))
    a = 3.0
    sym = MixtureTarget(
        dim=1,
        weights=np.array([0.5, 0.5]),
        centers=np.array([[-a], [a]]),
        base=base,
    )
    assert abs(mixture_log_density(sym, np.zeros(1)) - 0.5 * a * a) < 1e-12
    np.testing.assert_allclose(
        mixture_grad(sym, np.zeros(1)), np.zeros(1), atol=1e-15
    )


def test_two_mode_value_hand_computed():
    # f(1.3) for centers +-5, sigma 1, equal weights:
    # -ln(.5 e^{-.5 (1.3-5)^2} + .5 e^{-.5 (1.3+5)^2})
    fx = get_fixture("two-mode-symmetric")
    x = np.array([1.3])
    a = -0.5 * (1.3 - 5.0) ** 2
    b = -0.5 * (1.3 + 5.0) ** 2
    expect = -(math.log(0.5) + a + math.log1p(math.exp(b - a)))
    assert abs(fx.oracle.value(x) - expect) < 1e-12


def test_batch_density_matches_scalar():
    fx = get_fixture("two-mode-asymmetric")
    t = fx.target
    rng = np.random.default_rng(3)
    X = rng.normal(size=(64, 1)) * 5.0
    batch = mixture_log_density_many(t, X)
    single = np.array([mixture_log_density(t, x) for x in X])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_logsumexp_guards_non_finite_rows_as_it_does_vectors():
    # a slice whose max is -inf, +inf or nan gives that max, without warnings
    A = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [np.nan, 0.0], [0.0, -1.0]])
    by_vector = [_logsumexp(row) for row in A]
    assert by_vector[:2] == [-np.inf, np.inf] and math.isnan(by_vector[2])
    np.testing.assert_allclose(_logsumexp(A), by_vector, rtol=1e-15)
    np.testing.assert_allclose(_logsumexp(A.T, axis=0), by_vector, rtol=1e-15)


def test_mixture_grad_single_component_is_linear():
    base = BaseFunction.isotropic_gaussian(2.0)
    t = MixtureTarget(
        dim=3, weights=np.array([1.0]), centers=np.zeros((1, 3)), base=base
    )
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(mixture_grad(t, x), x / 4.0, rtol=1e-14)


class TestBaseFunction:
    def test_quadratic_form_value_and_grad(self):
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        base = BaseFunction.quadratic_form(H)
        z = np.array([1.0, -1.0])
        assert abs(base.value(z) - 0.5 * z @ H @ z) < 1e-14
        np.testing.assert_allclose(base.grad(z), H @ z, rtol=1e-14)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            BaseFunction.quadratic_form(np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError):
            BaseFunction.quadratic_form(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_envelope_must_contain_spectrum(self):
        H = np.diag([1.0, 4.0])
        with pytest.raises(ValueError):
            BaseFunction.quadratic_form(H, kappa=2.0, K=4.0)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.3])
    @pytest.mark.parametrize("d", [1, 3])
    def test_isotropic_is_the_quadratic_form_of_identity_over_sigma2(self, sigma, d):
        iso = BaseFunction.isotropic_gaussian(sigma)
        quad = BaseFunction.quadratic_form(np.eye(d) / sigma**2)
        assert iso.isotropic and not quad.isotropic
        assert iso.sigma == pytest.approx(sigma, rel=1e-15) and quad.sigma is None
        assert (iso.kappa, iso.K) == pytest.approx((quad.kappa, quad.K), rel=1e-14)
        Z = np.random.default_rng(d).standard_normal((9, d))
        for z in Z:
            assert iso.value(z) == pytest.approx(quad.value(z), rel=1e-14)
            np.testing.assert_allclose(iso.grad(z), quad.grad(z), rtol=1e-14)
        np.testing.assert_allclose(iso.value_many(Z), quad.value_many(Z), rtol=1e-14)
        np.testing.assert_allclose(iso.grad_many(Z), quad.grad_many(Z), rtol=1e-14)

    def test_unit_sigma_reads_back_exactly(self):
        assert BaseFunction.isotropic_gaussian(1.0).sigma == 1.0

    def test_sigma_equiv(self):
        base = BaseFunction.isotropic_gaussian(0.5)
        assert abs(base.sigma_equiv - 0.5) < 1e-15
        quad = BaseFunction.quadratic_form(np.diag([4.0, 9.0]))
        assert abs(quad.sigma_equiv - 0.5) < 1e-15  # 1/sqrt(kappa), kappa=4


class TestMixtureTargetValidation:
    def test_weights_must_sum_to_one(self):
        base = BaseFunction.isotropic_gaussian(1.0)
        with pytest.raises(ValueError):
            MixtureTarget(
                dim=1,
                weights=np.array([0.6, 0.6]),
                centers=np.zeros((2, 1)),
                base=base,
            )

    def test_center_shape_checked(self):
        base = BaseFunction.isotropic_gaussian(1.0)
        with pytest.raises(DimensionMismatch):
            MixtureTarget(
                dim=2,
                weights=np.array([1.0]),
                centers=np.zeros((1, 3)),
                base=base,
            )

    def test_base_dimension_checked(self):
        base = BaseFunction.quadratic_form(np.array([[2.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(DimensionMismatch):
            MixtureTarget(
                dim=3,
                weights=np.array([1.0]),
                centers=np.zeros((1, 3)),
                base=base,
            )

    def test_wrong_probe_dimension_raises(self):
        fx = get_fixture("simplex-centers")
        with pytest.raises(DimensionMismatch):
            fx.oracle.value(np.zeros(2))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: MixtureTarget(dim=1, weights=np.array([np.nan, 0.5]),
                                   centers=np.zeros((2, 1)),
                                   base=BaseFunction.isotropic_gaussian(1.0)), "weights"),
            (lambda: MixtureTarget(dim=1, weights=np.array([0.5, 0.5]),
                                   centers=np.array([[0.0], [np.nan]]),
                                   base=BaseFunction.isotropic_gaussian(1.0)), "centers"),
            (lambda: BaseFunction.isotropic_gaussian(np.nan), "sigma"),
            (lambda: BaseFunction.quadratic_form(np.eye(2), kappa=np.nan), "envelope"),
            (lambda: BaseFunction.isotropic_gaussian(np.inf), "sigma"),
            (lambda: BaseFunction.quadratic_form(np.eye(2), kappa=np.inf), "kappa=inf"),
            (lambda: BaseFunction.quadratic_form(np.eye(2), K=np.inf), "finite K"),
            # 1/sigma^2: sigma^2 overflows, underflows to 0, or is subnormal
            (lambda: BaseFunction.isotropic_gaussian(1e300), "sigma"),
            (lambda: BaseFunction.isotropic_gaussian(1e-200), "sigma"),
            (lambda: BaseFunction.isotropic_gaussian(1e-160), "sigma"),
        ],
        ids=["nan-weight", "nan-center", "nan-sigma", "nan-kappa", "inf-sigma", "inf-kappa",
             "inf-K", "huge-sigma", "tiny-sigma", "subnormal-precision-sigma"],
    )
    def test_nan_input_is_refused_by_name(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestGaussianLogPartition:
    def test_single_component_vs_quadrature(self):
        # ln integral e^{-beta ||x||^2 / (2 s^2)} dx, computed by trapezoid
        base = BaseFunction.isotropic_gaussian(1.5)
        t = MixtureTarget(
            dim=1, weights=np.array([1.0]), centers=np.array([[3.0]]), base=base
        )
        for beta in (0.2, 0.7, 1.0):
            xs = np.linspace(3.0 - 40.0, 3.0 + 40.0, 20001)
            vals = np.exp(-beta * 0.5 * ((xs - 3.0) / 1.5) ** 2)
            numeric = math.log(np.trapezoid(vals, xs))
            closed = gaussian_log_partition(t, beta)
            assert abs(closed - numeric) < 1e-10

    def test_full_temperature_any_mixture(self):
        fx = get_fixture("two-mode-asymmetric")
        sigma = fx.target.base.sigma
        expect = 0.5 * math.log(2.0 * math.pi * sigma**2)
        assert abs(gaussian_log_partition(fx.target, 1.0) - expect) < 1e-14

    def test_tempered_mixture_refused(self):
        fx = get_fixture("two-mode-symmetric")
        with pytest.raises(PartitionUnavailable):
            gaussian_log_partition(fx.target, 0.5)

    def test_quadratic_base_refused(self):
        base = BaseFunction.quadratic_form(np.diag([1.0, 2.0]))
        t = MixtureTarget(
            dim=2, weights=np.array([1.0]), centers=np.zeros((1, 2)), base=base
        )
        with pytest.raises(PartitionUnavailable):
            gaussian_log_partition(t, 0.5)


class TestAdversarialPair:
    """The two-variance construction used for the negative result."""

    def test_bump_endpoints_and_midpoint(self):
        assert adversarial_bump_h(0.0) == 0.0
        assert adversarial_bump_h(1.0) == 1.0
        # h(1/2) = (1/16) + (3/4)^2 = 0.625
        assert abs(adversarial_bump_h(0.5) - 0.625) < 1e-15

    def test_bump_strictly_increasing_inside(self):
        xs = np.linspace(0.01, 0.99, 197)
        hp = np.array([adversarial_bump_h_prime(x) for x in xs])
        assert np.all(hp > 0)
        vals = np.array([adversarial_bump_h(x) for x in xs])
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_bump_derivative_matches_fd(self):
        for x in np.linspace(0.05, 0.95, 31):
            fd = (adversarial_bump_h(x + 1e-6) - adversarial_bump_h(x - 1e-6)) / 2e-6
            assert abs(adversarial_bump_h_prime(x) - fd) < 1e-8

    def test_fixture_oracle_is_the_construction(self):
        adv = get_fixture("adversarial-two-variance").oracle
        assert isinstance(adv, AdversarialTwoGaussian)
        u, un = adv.u, adv.u_norm
        rng = np.random.default_rng(8)
        # the criterion-08 probe mix, at a fifth of its size
        probes = np.concatenate([
            rng.uniform(-2.5 * un, 2.5 * un, (800, 4)),
            rng.standard_normal((300, 4)) * 2.0,
            u + rng.standard_normal((300, 4)) * 2.0,
            2.0 * u + rng.uniform(1.4, 1.7, (600, 1)) * un * _unit_rows(rng, 600, 4),
        ])
        for x in probes:
            v, g = adv.value_grad(x)
            assert adv.value(x) == v
            assert np.array_equal(adv.grad(x), g)

    def test_center_norm(self):
        adv = AdversarialTwoGaussian(dim=4)
        assert abs(np.linalg.norm(adv.u) - 8.0 * 4 * math.log(2.0)) < 1e-12

    def test_g_range_and_regions(self):
        adv = AdversarialTwoGaussian(dim=2)
        u = adv.u
        nu = np.linalg.norm(u)
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = 2.0 * u + rng.normal(size=2) * nu
            g = adv.g_value(x)
            assert 0.0 <= g <= 1.0
            r = np.linalg.norm(x - 2.0 * u)
            if r <= 1.5 * nu:
                assert g == 0.0
            if r >= 1.6 * nu:
                assert g == 1.0

    def test_modified_equals_f1_far_out(self):
        adv = AdversarialTwoGaussian(dim=3)
        u = adv.u
        x = 2.0 * u + 1.7 * np.linalg.norm(u) * np.array([0.0, 1.0, 0.0])
        v, g = adv.value_grad(x)
        assert v == adv.f1_value(x)
        np.testing.assert_array_equal(g, adv.f1_grad(x))

    def test_modified_equals_mixture_near_far_center(self):
        adv = AdversarialTwoGaussian(dim=3)
        x = 2.0 * adv.u
        v, g = adv.value_grad(x)
        assert v == adv.mixture_value(x)
        np.testing.assert_array_equal(g, adv.mixture_grad(x))

    def test_pointwise_gap_below_log2(self):
        adv = AdversarialTwoGaussian(dim=4)
        u, nu = adv.u, np.linalg.norm(adv.u)
        rng = np.random.default_rng(21)
        shell = 2.0 * u + rng.normal(size=(500, 4)) * (0.1 * nu)
        shell += 1.55 * nu * _unit_rows(rng, 500, 4)
        for x in shell:
            v, _ = adv.value_grad(x)
            assert abs(v - adv.mixture_value(x)) <= math.log(2.0) + 1e-12


class TestPerturbedOracle:
    def test_value_and_grad_composition(self):
        fx = get_fixture("single-gaussian")
        pert = Perturbation(
            value=lambda x: 0.2 * math.sin(x[0]),
            grad=lambda x: np.array([0.2 * math.cos(x[0])]),
            delta=0.2,
            tau=0.2,
        )
        po = PerturbedOracle(fx.oracle, pert)
        x = np.array([1.1])
        assert abs(po.value(x) - (fx.oracle.value(x) + 0.2 * math.sin(1.1))) < 1e-14
        assert abs(pert.delta - 0.2) < 1e-15
        assert abs(pert.tau - 0.2) < 1e-15

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            Perturbation(
                value=lambda x: 0.0,
                grad=lambda x: np.zeros(1),
                delta=-0.1,
                tau=0.0,
            )


def test_function_oracle_wraps_callables():
    orc = FunctionOracle(
        value_fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=2
    )
    x = np.array([1.0, 2.0])
    assert orc.value(x) == 5.0
    np.testing.assert_array_equal(orc.grad(x), np.array([2.0, 4.0]))


def test_mixture_oracle_agrees_with_module_functions():
    fx = get_fixture("simplex-centers")
    orc = MixtureOracle(fx.target)
    rng = np.random.default_rng(13)
    for x in rng.normal(size=(20, 3)) * 3.0:
        assert abs(orc.value(x) - mixture_log_density(fx.target, x)) < 1e-12
        np.testing.assert_allclose(
            orc.grad(x), mixture_grad(fx.target, x), rtol=1e-12
        )
