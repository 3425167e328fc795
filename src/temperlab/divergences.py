"""Divergences and inequality checks on low-dimensional grids.

Two independent routes to every quantity: closed forms where they exist
(Gaussian chi-squared) and deterministic quadrature otherwise.  The numeric
route is the referee for the analytic one, so the two are never merged.

Infinite divergences are reported as float("inf"), which makes the bounds
they feed vacuous rather than wrong.  Quadrature is restricted to dimension
one and two; the sampler, not the grid, is the tool above that.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .oracles import (
    MixtureTarget,
    _component_energies,
    _logsumexp,
    mixture_log_density_many,
)

__all__ = [
    "INFINITY",
    "NormalizationError",
    "QuadratureGrid",
    "CheckReport",
    "chi2_gaussian",
    "chi2_numeric",
    "check_temp_scaling_bounds",
    "check_partition_ratio_bound",
    "kl_mixture_upper_bound_check",
]

INFINITY = float("inf")

# beyond this, expm1 overflows float64 anyway; the divergence is effectively
# infinite for every purpose downstream
_LOG_CAP = 700.0

GL_ORDER = 16  # nodes per panel of the gauss-legendre rule

# how far a density's grid integral may stray from 1, and how far a check's
# margin may fall below 0, before the density or the check fails
_NORM_TOL = 1e-4
_SANDWICH_SLACK = 1e-12  # on log-density margins
_RATIO_RTOL = 1e-9  # on log Z_beta / Z_alpha


class NormalizationError(ValueError):
    """A density failed to integrate to 1 within tolerance on its grid."""


def _axis_nodes(lo: float, hi: float, n: int):
    panels = max(1, math.ceil(n / GL_ORDER))
    t, wt = np.polynomial.legendre.leggauss(GL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (half * t + 0.5 * (a + b)).ravel(), (half * wt).ravel()


@dataclass(frozen=True)
class QuadratureGrid:
    """Deterministic integration grid on an axis-aligned box, dim 1 or 2.

    Callables receive points shaped (N,) in one dimension and (N, 2) in two,
    and must return (N,) values; the divergences take log-densities.  The
    integral of values v on the nodes is weights @ v.  The one rule,
    gauss-legendre, puts GL_ORDER nodes in each of ceil(n/GL_ORDER) equal
    panels per axis; 2-d nodes are the ij-ordered product of the two axes.
    """

    dim: int
    bounds: tuple
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @staticmethod
    def build(bounds, nodes_per_axis: int = 256, rule: str = "gauss-legendre") -> "QuadratureGrid":
        if rule != "gauss-legendre":  # callers may name the rule; there is only this one
            raise ValueError(f"unknown quadrature rule {rule!r}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        dim = len(bounds)
        if dim not in (1, 2):
            raise ValueError(f"quadrature grids support dimension 1 or 2 (d <= 2), got d = {dim}")
        if nodes_per_axis < 64:
            raise ValueError("need at least 64 nodes per axis")
        for lo, hi in bounds:
            if not hi > lo:
                raise ValueError("each axis bound must be an increasing pair lo < hi")
        axes = [_axis_nodes(lo, hi, nodes_per_axis) for lo, hi in bounds]
        if dim == 1:
            pts, w = axes[0]
        else:
            (x1, w1), (x2, w2) = axes
            X1, X2 = np.meshgrid(x1, x2, indexing="ij")
            pts = np.column_stack([X1.ravel(), X2.ravel()])
            w = np.outer(w1, w2).ravel()
        return QuadratureGrid(dim=dim, bounds=bounds, points=pts, weights=w)

    @staticmethod
    def for_gaussians(
        means, sigmas, nodes_per_axis: int = 256, rule: str = "gauss-legendre", span: float = 8.0
    ) -> "QuadratureGrid":
        """Box covering every mean plus/minus span standard deviations."""
        M = np.atleast_2d(np.asarray(means, dtype=float))
        if M.ndim != 2:
            raise ValueError("means must be (k, dim)")
        s = np.asarray(sigmas, dtype=float).reshape(-1)
        if s.size == 1:
            s = np.repeat(s, M.shape[0])
        if s.size != M.shape[0] or np.any(s <= 0):
            raise ValueError("need one positive sigma per mean")
        los = np.min(M - span * s[:, None], axis=0)
        his = np.max(M + span * s[:, None], axis=0)
        return QuadratureGrid.build(
            tuple(zip(los, his)), nodes_per_axis=nodes_per_axis, rule=rule
        )

    def evaluate(self, density) -> np.ndarray:
        vals = np.asarray(density(self.points), dtype=float)
        if vals.shape != (self.points.shape[0],):
            raise ValueError("density callable must return one value per node")
        return vals


def _log_normalized(grid: QuadratureGrid, log_density, name: str = "density"):
    """log(p_i w_i), the log of the probability the density puts on node i,
    after checking that it integrates to 1 within _NORM_TOL on the grid."""
    log_mass = grid.evaluate(log_density) + np.log(grid.weights)
    total = _logsumexp(log_mass)
    if not math.log1p(-_NORM_TOL) <= total <= math.log1p(_NORM_TOL):
        raise NormalizationError(
            f"{name} integrates to exp({total!r}) on the grid, outside 1 +- {_NORM_TOL}; "
            "the grid likely misses mass or the density is wrong"
        )
    return log_mass - total


# ---------------------------------------------------------------------------
# chi-squared


def _as_cov(S):
    S = np.asarray(S, dtype=float)
    if S.ndim == 0:
        S = S.reshape(1, 1)
    elif S.ndim == 1:
        S = np.diag(S)
    if S.shape[0] != S.shape[1]:
        raise ValueError("covariance must be square")
    if not np.allclose(S, S.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    if np.linalg.eigvalsh(S)[0] <= 0:
        raise ValueError("covariance must be positive definite")
    return S


def chi2_gaussian(mean_q, cov_q, mean_p, cov_p) -> float:
    """chi^2(Q || P) for Gaussians Q = N(mean_q, cov_q), P = N(mean_p, cov_p).

    Closed form: with A = 2 cov_q^-1 - cov_p^-1 and b = 2 cov_q^-1 mean_q -
    cov_p^-1 mean_p,

      1 + chi^2 = |cov_p|^(1/2) |cov_q|^(-1) |A|^(-1/2)
                  * exp( b.A^-1 b / 2 + mean_p.cov_p^-1 mean_p / 2
                         - mean_q.cov_q^-1 mean_q ).

    A that is not positive definite means the integral diverges: inf.
    Computed via expm1 of the log so tiny divergences keep full precision.
    """
    Sq = _as_cov(cov_q)
    Sp = _as_cov(cov_p)
    d = Sq.shape[0]
    if Sp.shape[0] != d:
        raise ValueError("covariance dimensions disagree")
    mq = np.asarray(mean_q, dtype=float).reshape(-1)
    mp = np.asarray(mean_p, dtype=float).reshape(-1)
    if mq.shape != (d,) or mp.shape != (d,):
        raise ValueError("mean dimensions disagree with covariances")

    Sq_inv = np.linalg.inv(Sq)
    Sp_inv = np.linalg.inv(Sp)
    A = 2.0 * Sq_inv - Sp_inv
    evals = np.linalg.eigvalsh(A)
    if evals[0] <= 0:
        return INFINITY
    b = 2.0 * (Sq_inv @ mq) - Sp_inv @ mp
    _, logdet_p = np.linalg.slogdet(Sp)
    _, logdet_q = np.linalg.slogdet(Sq)
    _, logdet_A = np.linalg.slogdet(A)
    quad = 0.5 * float(b @ np.linalg.solve(A, b))
    logval = (
        0.5 * logdet_p
        - logdet_q
        - 0.5 * logdet_A
        + quad
        + 0.5 * float(mp @ Sp_inv @ mp)
        - float(mq @ Sq_inv @ mq)
    )
    if logval > _LOG_CAP:
        return INFINITY
    return float(np.expm1(logval))


def chi2_numeric(log_q, log_p, grid: QuadratureGrid) -> float:
    """chi^2(Q || P) = int q^2/p - 1 by quadrature on log-densities.

    Summed as expm1(logsumexp(2 log q - log p + log w)) over the nodes where
    q > 0, so neither density can underflow; q > 0 where p = 0 gives inf.
    """
    a = _log_normalized(grid, log_q, name="q")
    b = _log_normalized(grid, log_p, name="p")
    on = a > -np.inf
    with np.errstate(over="ignore"):  # past e^709 the divergence is inf
        val = float(np.expm1(_logsumexp(2.0 * a[on] - b[on])))
    # roundoff can push an exact zero a hair negative
    return max(val, 0.0)


def _kl(a: np.ndarray, b: np.ndarray) -> float:
    """KL from two _log_normalized arrays: 0 log 0 = 0 where P's node
    probability is 0 in floating point, inf where only Q's is."""
    p = np.exp(a)
    on = p > 0.0
    return float(np.sum(p[on] * (a[on] - b[on])))


# ---------------------------------------------------------------------------
# inequality checks


@dataclass
class CheckReport:
    """Outcome of a batch inequality check; to_dict gives strict JSON data."""

    check: str
    num_cases: int
    violations: int
    worst_margin: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _report_dict(self)


def _report_dict(report) -> dict:
    """A report dataclass as _jsonable data, without `details` when empty."""
    out = _jsonable(asdict(report))
    if not report.details:
        del out["details"]
    return out


def _jsonable(obj):
    """Plain JSON data: numpy scalars become Python ones, arrays lists, and
    non-finite floats the strings "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def check_temp_scaling_bounds(
    target: MixtureTarget,
    betas,
    points: np.ndarray,
) -> CheckReport:
    """Sandwich of the tempered mixture between mixtures of tempered parts.

    For beta in (0, 1], with g = (sum_j w_j e^(-f0(x-mu_j)))^beta and
    gtilde = sum_j w_j e^(-beta f0(x-mu_j)), check pointwise in log space:

        gtilde <= g <= gtilde / w_min.

    Reports the worst signed margin over all (beta, point) pairs; a margin
    below -_SANDWICH_SLACK counts as a violation.
    """
    betas = np.asarray(betas, dtype=float).reshape(-1)
    if np.any(betas <= 0) or np.any(betas > 1.0 + 1e-15):
        raise ValueError("the sandwich holds for beta in (0, 1] only")
    log_w = np.log(target.weights)
    log_wmin = math.log(target.w_min)

    worst = math.inf
    violations = 0
    cases = 0
    base_vals = _component_energies(target, points)  # (m, n)
    f_mix = -_logsumexp(log_w[:, None] - base_vals, axis=0)  # the mixture's f, (n,)
    for beta in betas:
        log_g = -beta * f_mix
        log_gt = _logsumexp(log_w[:, None] - beta * base_vals, axis=0)
        lower = log_g - log_gt
        upper = (log_gt - log_wmin) - log_g
        m = float(min(lower.min(), upper.min()))
        worst = min(worst, m)
        violations += int(np.sum(lower < -_SANDWICH_SLACK) + np.sum(upper < -_SANDWICH_SLACK))
        cases += 2 * f_mix.size
    return CheckReport(
        check="temp-scaling-sandwich",
        num_cases=cases,
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        details={"betas": betas, "num_points": f_mix.size},
    )


def check_partition_ratio_bound(
    target: MixtureTarget,
    alpha: float,
    beta: float,
    grid: QuadratureGrid,
) -> CheckReport:
    """Z_beta / Z_alpha against its analytic envelope, alpha <= beta.

    Upper: the ratio never exceeds 1 (f >= 0, so Z is decreasing in beta).
    Lower, isotropic-gaussian base with scale sigma and spread D:
        (1/2) exp(-2 (beta-alpha) (D/sigma + (sqrt(d) + 2 sqrt(ln(2/w_min)))
                                    / sqrt(alpha))^2)
    Lower, quadratic-form base with envelope [kappa, K]:
        (1/2) exp(-(beta-alpha) K C^2 / 2),
        C = D + (sqrt(d) + sqrt(d ln(K/kappa) + 2 ln(2/w_min))) / sqrt(alpha kappa).
    The ratio itself comes from quadrature, in log space.
    """
    if not 0 < alpha <= beta <= 1.0:
        raise ValueError("need 0 < alpha <= beta <= 1")
    if grid.dim != target.dim:
        raise ValueError("grid dimension disagrees with the target")
    d = target.dim
    D = target.scale_bound()
    wm = target.w_min
    if target.base.isotropic:
        s = target.base.sigma
        reach = D / s + (math.sqrt(d) + 2.0 * math.sqrt(math.log(2.0 / wm))) / math.sqrt(alpha)
        log_lower = math.log(0.5) - 2.0 * (beta - alpha) * reach**2
    else:
        kap, K = target.base.kappa, target.base.K
        reach = D + (
            math.sqrt(d) + math.sqrt(d * math.log(K / kap) + 2.0 * math.log(2.0 / wm))
        ) / math.sqrt(alpha * kap)
        log_lower = math.log(0.5) - 0.5 * (beta - alpha) * K * reach**2
    # log Z_beta - log Z_alpha, both over the same grid values of f
    f = mixture_log_density_many(target, grid.points.reshape(-1, d))
    log_w = np.log(grid.weights)
    log_ratio = _logsumexp(log_w - beta * f) - _logsumexp(log_w - alpha * f)
    upper_margin = -log_ratio + _RATIO_RTOL  # log 1 - log ratio
    lower_margin = log_ratio - log_lower + _RATIO_RTOL
    worst = float(min(upper_margin, lower_margin))
    violations = int(upper_margin < 0) + int(lower_margin < 0)
    return CheckReport(
        check="partition-ratio-envelope",
        num_cases=2,
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        details={
            "alpha": alpha,
            "beta": beta,
            "log_ratio": log_ratio,
            "log_lower": log_lower,
        },
    )


def kl_mixture_upper_bound_check(
    weights_p,
    log_comps_p,
    weights_q,
    log_comps_q,
    grid: QuadratureGrid,
    tol: float = 1e-6,
) -> CheckReport:
    """KL between mixtures against the weight-plus-components upper bound.

    KL(sum w_i P_i || sum w'_i Q_i) <= KL(w || w') + sum_i w_i KL(P_i || Q_i).
    Components are log-density callables, paired by index.  An infinite
    right-hand side makes the check vacuously true.
    """
    wp = np.asarray(weights_p, dtype=float)
    wq = np.asarray(weights_q, dtype=float)
    if wp.shape != wq.shape or wp.ndim != 1:
        raise ValueError("weight vectors must be 1-d and the same length")
    if len(log_comps_p) != wp.size or len(log_comps_q) != wq.size:
        raise ValueError("need one component per weight")
    if np.any(wp <= 0) or np.any(wq <= 0):
        raise ValueError("weights must be positive")
    if abs(wp.sum() - 1.0) > 1e-12 or abs(wq.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")

    P = np.array([_log_normalized(grid, c, name=f"P[{i}]") for i, c in enumerate(log_comps_p)])
    Q = np.array([_log_normalized(grid, c, name=f"Q[{i}]") for i, c in enumerate(log_comps_q)])
    log_wp, log_wq = np.log(wp), np.log(wq)
    lhs = _kl(_logsumexp(log_wp[:, None] + P, axis=0), _logsumexp(log_wq[:, None] + Q, axis=0))
    kl_w = float(np.sum(wp * (log_wp - log_wq)))
    comp_kls = [_kl(a, b) for a, b in zip(P, Q)]
    rhs = kl_w + float(np.sum(wp * np.asarray(comp_kls)))
    margin = rhs + tol - lhs if math.isfinite(rhs) else INFINITY
    passed = (not math.isfinite(rhs)) or lhs <= rhs + tol
    return CheckReport(
        check="kl-mixture-upper-bound",
        num_cases=1,
        violations=0 if passed else 1,
        worst_margin=float(margin),
        passed=passed,
        details={"lhs": lhs, "rhs": rhs, "kl_weights": kl_w, "component_kls": comp_kls},
    )
