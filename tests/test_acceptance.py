"""Acceptance gate: one test per headline claim, tolerances pinned.

Run with -v to get a one-line verdict per criterion; each test also prints
a short summary of the measured quantities when it passes.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from temperlab.cli import main as cli_main
from temperlab.decomposition import (
    FiniteMarkovProcess,
    chi2_discrete,
    congestion_bound,
    dirichlet_form,
    geodesic_paths,
    random_simple_instance,
    random_tempering_instance,
    verify_simple_decomposition,
    verify_tempering_decomposition,
)
from temperlab.divergences import (
    QuadratureGrid,
    check_temp_scaling_bounds,
    chi2_gaussian,
    chi2_numeric,
    kl_mixture_upper_bound_check,
)
from temperlab.fixtures import get_fixture
from temperlab.ladder import (
    ScheduleConstants,
    build_ladder_gaussian,
    validate_partition_estimates,
)
from temperlab.oracles import (
    AdversarialTwoGaussian,
    BaseFunction,
    MixtureOracle,
    MixtureTarget,
    gaussian_log_partition,
)
from temperlab.sampler import RngStream, run_main, run_plain_langevin, run_stlmc
from temperlab.diagnostics import empirical_tv, mode_masses


def report(num, text):
    print(f"[acceptance] criterion {num:02d} PASS: {text}")


def test_criterion_01_simple_decomposition_bound():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst_slack = math.inf
    for k in range(20):
        inst = random_simple_instance(rng)
        chi2_rep, overlap_rep = verify_simple_decomposition(inst, tol=1e-6)
        assert chi2_rep.passed, (
            f"instance {k}: C*={chi2_rep.C_star} exceeds "
            f"C(1+Cbar/2)={chi2_rep.bound}"
        )
        assert overlap_rep.passed
        assert chi2_rep.identity_residual < 1e-8
        if math.isfinite(chi2_rep.slack):
            worst_slack = min(worst_slack, chi2_rep.slack)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, f"20/20 instances, worst slack {worst_slack:.3g}, {elapsed:.1f}s")


def test_criterion_02_tempering_decomposition_bound():
    rng = np.random.default_rng(77)
    strengths = [0.5, 1.0, 2.0, 0.5, 1.0, 2.0, 0.5, 1.0, 2.0, 1.0]
    t0 = time.monotonic()
    for k, strength in enumerate(strengths):
        inst = random_tempering_instance(rng, strength_choices=(strength,))
        rep = verify_tempering_decomposition(inst, tol=1e-6)
        assert rep.passed, (
            f"instance {k} (K={strength}): C*={rep.C_star} vs bound {rep.bound}"
        )
        assert rep.identity_residual < 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(2, f"10/10 instances over K in {{0.5, 1, 2}}, {elapsed:.1f}s")


def random_lazy_walk(rng, n):
    weights = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        weights[u, v] = weights[v, u] = rng.uniform(0.2, 1.0)
    extra = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1)
    extra *= np.triu(rng.random((n, n)) < 0.25, 1)
    weights += extra + extra.T
    degree = weights.sum(axis=1)
    return weights / degree[:, None], degree / degree.sum()


def test_criterion_03_canonical_path_poincare():
    rng = np.random.default_rng(33)
    violations = 0
    worst_ratio = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        T, p = random_lazy_walk(rng, n)
        paths = geodesic_paths(T)
        rho, _edge = congestion_bound(T, p, paths)
        proc = FiniteMarkovProcess.from_offdiag(T, p)
        for _ in range(100):
            g = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            var = float(p @ (g - p @ g) ** 2)
            energy = dirichlet_form(proc, g)
            if var > rho * energy + 1e-9:
                violations += 1
            if energy > 0:
                worst_ratio = max(worst_ratio, var / (rho * energy))
    assert violations == 0
    assert worst_ratio <= 1.0 + 1e-9
    report(3, f"50 chains x 100 functions, worst Var/(rho E) = {worst_ratio:.4f}")


def gauss_density(mean, cov):
    """Log-density of N(mean, cov); the quadrature divergences take logs."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.size
    C = np.atleast_2d(np.asarray(cov, dtype=float))
    inv = np.linalg.inv(C)
    log_norm = -0.5 * math.log((2.0 * math.pi) ** d * np.linalg.det(C))

    def density(x):
        X = np.asarray(x, dtype=float).reshape(-1, d) - mean
        return log_norm - 0.5 * np.einsum("nd,de,ne->n", X, inv, X)

    return density


def test_criterion_04_gaussian_chi2_closed_form():
    # pinned value first: chi^2(N(1,1) || N(0,1)) = e - 1
    pinned = chi2_gaussian(1.0, 1.0, 0.0, 1.0)
    assert pinned == pytest.approx(math.e - 1.0, rel=1e-12)
    grid = QuadratureGrid.for_gaussians(
        [[1.0], [0.0], [2.0]], [1.0, 1.0, 1.0],
        nodes_per_axis=640, rule="gauss-legendre", span=10.0,
    )
    num = chi2_numeric(gauss_density(1.0, [[1.0]]), gauss_density(0.0, [[1.0]]), grid)
    assert num == pytest.approx(math.e - 1.0, rel=1e-5)

    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(50):
        d = 2 if k % 3 == 0 else 1
        mp = rng.uniform(-1.5, 1.5, d)
        mq = rng.uniform(-1.5, 1.5, d)
        sp = rng.uniform(0.8, 1.2, d)
        sq = sp * rng.uniform(0.85, 1.2, d)
        cov_p = np.diag(sp**2)
        cov_q = np.diag(sq**2)
        closed = chi2_gaussian(mq, cov_q, mp, cov_p)
        # the integrand q^2/p is itself a Gaussian; make the grid cover it
        a = 2.0 / sq**2 - 1.0 / sp**2
        b = 2.0 * mq / sq**2 - mp / sp**2
        means = np.stack([mq, mp, b / a])
        sigmas = [float(sq.max()), float(sp.max()), float((1.0 / np.sqrt(a)).max())]
        grid = QuadratureGrid.for_gaussians(
            means, sigmas, nodes_per_axis=640 if d == 1 else 192,
            rule="gauss-legendre", span=10.0,
        )
        num = chi2_numeric(gauss_density(mq, cov_q), gauss_density(mp, cov_p), grid)
        rel = abs(num - closed) / max(abs(closed), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-5, f"pair {k}: closed {closed} vs quadrature {num}"
    report(4, f"50 pairs + pinned e-1 case, worst relative error {worst:.2e}")


def random_mixture(rng):
    d = int(rng.integers(1, 3))
    m = int(rng.integers(1, 4))
    w = rng.uniform(0.15, 1.0, m)
    return MixtureTarget(
        weights=w / w.sum(),
        centers=rng.uniform(-3.0, 3.0, (m, d)),
        base=BaseFunction.isotropic_gaussian(float(rng.uniform(0.7, 1.5))),
        dim=d,
    )


def test_criterion_05_temperature_scaling_sandwich():
    rng = np.random.default_rng(55)
    betas = [0.1, 0.5, 0.9]
    worst = math.inf
    for _ in range(10):
        target = random_mixture(rng)
        points = rng.uniform(-6.0, 6.0, (10_000, target.dim))
        rep = check_temp_scaling_bounds(target, betas, points)
        assert rep.violations == 0
        assert rep.passed
        worst = min(worst, rep.worst_margin)
    report(5, f"10 mixtures x 1e4 probes x 3 betas, worst margin {worst:.3g}")


def test_criterion_06_partition_estimation_envelope():
    target = MixtureTarget(
        weights=np.array([1.0]),
        centers=np.array([[0.0]]),
        base=BaseFunction.isotropic_gaussian(1.0),
        dim=1,
    )
    oracle = MixtureOracle(target)
    ladder, params = build_ladder_gaussian(
        dim=1, D=1.5, sigma=1.0, w_min=1.0, target_accuracy=0.1
    )
    params = replace(params, total_time=20.0, step_size=0.05, swap_rate=1.0)
    z_true = np.array(
        [math.exp(gaussian_log_partition(target, b)) for b in ladder.betas]
    )
    z_true /= z_true[0]

    t0 = time.monotonic()
    passes = 0
    for seed in range(20):
        res = run_main(
            oracle, ladder, params, RngStream(1000 + seed),
            confidence=0.05, num_final_samples=1,
        )
        full = ladder.with_partition_estimates(res.zhat)
        if validate_partition_estimates(full, z_true).passed:
            passes += 1
    elapsed = time.monotonic() - t0
    assert passes >= 18, f"only {passes}/20 seeds inside the envelope"
    assert elapsed < 300.0
    report(6, f"{passes}/20 seeds inside (1 +- 1/L)^i envelope, {elapsed:.1f}s")


def test_criterion_07_headline_multimodal_separation():
    fx = get_fixture("two-mode-symmetric")
    constants = ScheduleConstants(c_samples=0.1)
    ladder, params = build_ladder_gaussian(
        dim=1, D=5.0, sigma=1.0, w_min=0.5,
        target_accuracy=0.1, constants=constants,
    )
    params = replace(params, total_time=20.0, step_size=0.02, swap_rate=1.0)
    rng = RngStream(101)

    t0 = time.monotonic()
    staged = run_main(fx.oracle, ladder, params, rng, confidence=0.05,
                      num_final_samples=1)
    full = ladder.with_partition_estimates(staged.zhat)
    record = run_stlmc(fx.oracle, full, replace(params, total_time=40_000.0),
                       rng, thin=1)
    samples = record.positions_at_level(ladder.num_levels)
    assert samples.shape[0] >= 200_000

    masses = mode_masses(samples, fx.target)
    tv, _ = empirical_tv(samples, fx.target)
    assert 0.40 <= masses.min() and masses.max() <= 0.60, f"masses {masses}"
    assert tv < 0.10, f"tv {tv}"

    # plain Langevin, same step size and the same total gradient budget,
    # started in the right-hand mode
    baseline = run_plain_langevin(
        fx.oracle, 1.0, params.step_size, record.total_steps,
        np.array([5.0]), rng, thin=1,
    )
    base_masses = mode_masses(baseline.positions[1:], fx.target)
    assert base_masses.min() <= 0.01, f"baseline escaped: {base_masses}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(
        7,
        f"tempering masses {np.round(masses, 3)} tv {tv:.3f} vs "
        f"trapped baseline minority {base_masses.min():.2e} "
        f"({record.total_steps} steps each, {elapsed:.0f}s)",
    )


def test_criterion_08_adversarial_surgery_is_small_and_local():
    adv = AdversarialTwoGaussian(dim=4)
    u, un = adv.u, adv.u_norm
    rng = np.random.default_rng(8)
    probes = np.concatenate([
        rng.uniform(-2.5 * un, 2.5 * un, (4000, 4)),
        rng.standard_normal((1500, 4)) * 2.0,
        u + rng.standard_normal((1500, 4)) * 2.0,
        # stress the glue annulus around radius 1.5..1.6 |u| from 2u
        2.0 * u + rng.uniform(1.4, 1.7, (3000, 1)) * un * _unit_rows(rng, 3000),
    ])
    assert probes.shape[0] == 10_000

    exterior_checked = 0
    bound = math.log(2.0) + 1e-12
    for x in probes:
        f = adv.mixture_value(x)
        ft, grad = adv.value_grad(x)
        assert abs(f - ft) <= bound, f"|f - ftilde| = {abs(f - ft)} at {x}"
        r = float(np.linalg.norm(x - 2.0 * u))
        if r > 1.6 * un * (1.0 + 1e-9):
            assert ft == adv.f1_value(x)
            assert np.array_equal(grad, adv.f1_grad(x))
            exterior_checked += 1
    assert exterior_checked > 1000
    report(
        8,
        f"1e4 probes in d=4, |f - ftilde| <= ln 2; {exterior_checked} "
        "exterior points identical to the wide component",
    )


def _unit_rows(rng, n):
    v = rng.standard_normal((n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_discrete(rng, n):
    v = rng.uniform(0.05, 1.0, n)
    return v / v.sum()


def test_criterion_09_inequality_lemma_suite():
    rng = np.random.default_rng(9)

    # mean shift squared vs variance times chi^2
    for _ in range(100):
        n = int(rng.integers(8, 64))
        p = random_discrete(rng, n)
        q = random_discrete(rng, n)
        g = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
        lhs = (float(p @ g) - float(q @ g)) ** 2
        var = float(p @ (g - p @ g) ** 2)
        assert lhs <= var * chi2_discrete(q, p) + 1e-9

    # normalized min-measure stays chi^2-close to P
    for _ in range(100):
        n = int(rng.integers(8, 64))
        p = random_discrete(rng, n)
        q = random_discrete(rng, n)
        r = np.minimum(p, q)
        delta = float(r.sum())
        assert chi2_discrete(r / delta, p) <= 1.0 / delta + 1e-6

    # mixture KL against weight-plus-component upper bound
    grid = QuadratureGrid.build(((-14.0, 14.0),), nodes_per_axis=512,
                                rule="gauss-legendre")
    for _ in range(100):
        m = int(rng.integers(1, 4))
        wp = random_discrete(rng, m)
        wq = random_discrete(rng, m)
        comps_p = [
            gauss_density(rng.uniform(-3, 3), [[rng.uniform(0.5, 2.0) ** 2]])
            for _ in range(m)
        ]
        comps_q = [
            gauss_density(rng.uniform(-3, 3), [[rng.uniform(0.5, 2.0) ** 2]])
            for _ in range(m)
        ]
        rep = kl_mixture_upper_bound_check(wp, comps_p, wq, comps_q, grid, tol=1e-6)
        assert rep.passed, rep.to_dict()

    report(9, "3 lemma checks x 100 random instances, zero violations")


def test_criterion_10_deterministic_artifacts(tmp_path):
    config = {
        "version": 1,
        "seed": 510,
        "fixture": {
            "dim": 1,
            "weights": [0.5, 0.5],
            "centers": [[-2.0], [2.0]],
            "base": {"kind": "isotropic-gaussian", "sigma": 1.0},
        },
        "schedule": {"c_samples": 0.05},
        "overrides": {"total_time": 10.0, "step_size": 0.05, "swap_rate": 1.0},
        "sample": {"main_time": 40.0, "thin": 5},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    digests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(["--config", str(cfg), "--mode", "sample", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append(manifest["digest"])
    assert digests[0] == digests[1]
    first = (tmp_path / "first" / "samples.csv").read_bytes()
    second = (tmp_path / "second" / "samples.csv").read_bytes()
    assert first == second
    report(10, f"re-run digest {digests[0][:16]}... identical")
