"""Density oracles: value and gradient of a negative log-density f.

The central target family is a mixture of one strongly-convex base function
translated to m centers,

    f(x) = -log( sum_j w_j exp(-f0(x - mu_j)) ),

with f0(0) = 0 and normalizing constants dropped: the samplers only ever use
ratios, so f is defined up to an additive constant.  All mixture evaluation
goes through log-sum-exp so widely separated centers cannot underflow.

Also here: tempering (beta * f), declared additive perturbations, and an
adversarial two-variance construction, itself an oracle, for a hard fixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionMismatch",
    "PartitionUnavailable",
    "BaseFunction",
    "MixtureTarget",
    "DensityOracle",
    "FunctionOracle",
    "MixtureOracle",
    "Perturbation",
    "PerturbedOracle",
    "AdversarialTwoGaussian",
    "mixture_log_density",
    "mixture_log_density_many",
    "mixture_grad",
    "gaussian_log_partition",
    "adversarial_bump_h",
    "adversarial_bump_h_prime",
]


class DimensionMismatch(ValueError):
    """Input vector dimension disagrees with the target/oracle dimension."""


class PartitionUnavailable(ValueError):
    """No closed-form partition value exists for the requested case."""


def _logsumexp(a, axis: int = -1):
    """log sum exp(a) along `axis`, shifted by the max; a slice whose max is
    -inf, +inf or nan gives that max.  A 1-d input is one sum and gives a float
    logged with math.log, to which the oracle values and partition estimates
    are pinned: numpy's SIMD log can differ from it in the last bit."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        m = float(a.max())
        return m + math.log(float(np.exp(a - m).sum())) if math.isfinite(m) else m
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)  # then a non-finite max comes out as itself
    with np.errstate(divide="ignore", over="ignore"):
        return np.squeeze(m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True)), axis=axis)


def _softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp(a) / sum exp(a) along `axis`, shifted by the max."""
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _as_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1 or x.shape[0] != dim:
        raise DimensionMismatch(
            f"expected a vector of dimension {dim}, got shape {x.shape}"
        )
    return x


@dataclass(frozen=True, eq=False)
class BaseFunction:
    """Strongly-convex quadratic base f0(z) = z . P z / 2, so f0(0) = 0.

    The precision P is a scalar 1/sigma^2 (an isotropic Gaussian) or a
    symmetric matrix H, with kappa*I <= P <= K*I.  Build one with
    isotropic_gaussian(sigma) or quadratic_form(H, kappa, K); they validate.
    """

    precision: float | np.ndarray
    kappa: float
    K: float

    @staticmethod
    def isotropic_gaussian(sigma: float) -> "BaseFunction":
        sigma = float(sigma)
        try:
            k = 1.0 / sigma**2
        except (OverflowError, ZeroDivisionError):  # sigma^2 overflows or underflows to 0
            k = math.nan
        if not (0 < sigma < math.inf and 0 < k < math.inf):
            raise ValueError("isotropic-gaussian base needs a finite sigma > 0 whose precision "
                             f"1/sigma^2 is finite and > 0; got sigma={sigma}")
        return BaseFunction(precision=k, kappa=k, K=k)

    @staticmethod
    def quadratic_form(H, kappa: float | None = None, K: float | None = None) -> "BaseFunction":
        H = np.asarray(H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be a square matrix")
        if not np.allclose(H, H.T, atol=1e-12):
            raise ValueError("H must be symmetric")
        evals = np.linalg.eigvalsh(H)
        lo, hi = float(evals[0]), float(evals[-1])
        if not lo > 0:
            raise ValueError("H must be positive definite")
        kap = kappa if kappa is not None else lo
        big = K if K is not None else hi
        if not big < math.inf:
            raise ValueError(f"the declared envelope needs a finite K, got K={big}")
        # the declared envelope must actually contain the spectrum
        if not kap - 1e-12 <= lo <= hi <= big + 1e-12:
            raise ValueError(
                f"eigenvalues of H in [{lo:.6g}, {hi:.6g}] escape the "
                f"declared envelope [kappa={kap:.6g}, K={big:.6g}]"
            )
        return BaseFunction(precision=H, kappa=float(kap), K=float(big))

    @property
    def isotropic(self) -> bool:
        """True when the precision is a scalar, P = I/sigma^2."""
        return np.ndim(self.precision) == 0

    @property
    def sigma(self) -> float | None:
        """Standard deviation of an isotropic base; None for a matrix precision."""
        return 1.0 / math.sqrt(self.precision) if self.isotropic else None

    @property
    def sigma_equiv(self) -> float:
        """Worst-direction standard-deviation scale, 1/sqrt(kappa)."""
        return 1.0 / math.sqrt(self.kappa)

    def value(self, z: np.ndarray) -> float:
        return 0.5 * float(np.dot(np.dot(z, self.precision), z))

    def grad(self, z: np.ndarray) -> np.ndarray:
        return np.dot(self.precision, z)

    def value_many(self, Z: np.ndarray) -> np.ndarray:
        """Values on rows of Z, shape (n, d) -> (n,)."""
        return 0.5 * np.einsum("ij,ij->i", np.dot(Z, self.precision), Z)

    def grad_many(self, Z: np.ndarray) -> np.ndarray:
        return np.dot(Z, self.precision)


@dataclass(eq=False)
class MixtureTarget:
    """Ground-truth mixture: weights, centers, and a shared base function."""

    weights: np.ndarray
    centers: np.ndarray
    base: BaseFunction
    dim: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        c = np.asarray(self.centers, dtype=float)
        if c.ndim == 1:
            c = c.reshape(-1, 1) if self.dim == 1 else c.reshape(1, -1)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.all(w > 0):
            raise ValueError("all mixture weights must be positive")
        if not abs(float(w.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1 (got {float(w.sum())!r})")
        if c.shape != (w.size, self.dim):
            raise DimensionMismatch(
                f"centers must have shape ({w.size}, {self.dim}), got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("centers must be finite")
        if np.shape(self.base.precision) not in ((), (self.dim, self.dim)):
            raise DimensionMismatch("H dimension disagrees with target dim")
        self.weights = w
        self.centers = c
        self._log_w = np.log(w)

    @property
    def m(self) -> int:
        return self.weights.size

    @property
    def w_min(self) -> float:
        return float(self.weights.min())

    def scale_bound(self) -> float:
        """max(max_j |mu_j|, base length scale); the D a ladder builder wants.
        A norm past the float range is inf, which the ladder builders refuse."""
        with np.errstate(over="ignore"):
            norm = float(np.max(np.linalg.norm(self.centers, axis=1)))
        return max(norm, self.base.sigma_equiv)


def _component_energies(target: MixtureTarget, X) -> np.ndarray:
    """f0(x_i - mu_j) for rows x_i of X, shape (n, d) -> (m, n); (n,) reads as d = 1.

    The component axis comes first, so sums over the few components run
    along axis 0, which numpy does far faster than along a short last axis."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[1] != target.dim:
        raise DimensionMismatch(f"expected points of dimension {target.dim}")
    n, (m, d) = X.shape[0], target.centers.shape
    diffs = X[None, :, :] - target.centers[:, None, :]
    return target.base.value_many(diffs.reshape(m * n, d)).reshape(m, n)


def mixture_log_density(target: MixtureTarget, x) -> float:
    """f(x) = -log sum_j w_j exp(-f0(x - mu_j)), log-sum-exp stabilized."""
    x = _as_vector(x, target.dim)
    return -_logsumexp(target._log_w - target.base.value_many(x[None, :] - target.centers))


def mixture_log_density_many(target: MixtureTarget, X: np.ndarray) -> np.ndarray:
    """f on rows of X, shape (n, d) -> (n,).  Batch twin of mixture_log_density."""
    return -_logsumexp(target._log_w[:, None] - _component_energies(target, X), axis=0)


def mixture_grad(target: MixtureTarget, x) -> np.ndarray:
    """grad f(x) = sum_j softmax_j(x) * grad f0(x - mu_j)."""
    x = _as_vector(x, target.dim)
    diffs = x[None, :] - target.centers
    s = _softmax(target._log_w - target.base.value_many(diffs))
    return s @ target.base.grad_many(diffs)


class DensityOracle:
    """Black-box access to f: value(x) and grad(x), nothing else."""

    dim: int

    def value(self, x) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


class FunctionOracle(DensityOracle):
    """Oracle backed by plain callables; the glue used by tests and fixtures."""

    def __init__(self, value_fn, grad_fn, dim: int):
        self._value = value_fn
        self._grad = grad_fn
        self.dim = int(dim)

    def value(self, x) -> float:
        return float(self._value(_as_vector(x, self.dim)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self._grad(_as_vector(x, self.dim)), dtype=float)


class MixtureOracle(DensityOracle):
    """Oracle view of a MixtureTarget (keeps the target reachable for tests)."""

    def __init__(self, target: MixtureTarget):
        self.target = target
        self.dim = target.dim
        # single-component mixtures reduce to the bare base; skip the softmax
        self._single = target.m == 1

    def value(self, x) -> float:
        if self._single:
            x = _as_vector(x, self.dim)
            return self.target.base.value(x - self.target.centers[0])
        return mixture_log_density(self.target, x)

    def grad(self, x) -> np.ndarray:
        if self._single:
            x = _as_vector(x, self.dim)
            return self.target.base.grad(x - self.target.centers[0])
        return mixture_grad(self.target, x)


def gaussian_log_partition(target: MixtureTarget, beta: float) -> float:
    """ln Z_beta = ln int exp(-beta f) for isotropic-gaussian bases.

    Closed form exists for a single component at any beta, and for any m at
    beta = 1 (the weights sum to 1).  Other tempered mixtures have no closed
    form; integrate numerically with a quadrature grid from the divergences
    module instead.
    """
    if not target.base.isotropic:
        raise PartitionUnavailable("closed form only for isotropic-gaussian bases")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if target.m == 1 or beta == 1.0:
        return 0.5 * target.dim * math.log(2.0 * math.pi * target.base.sigma**2 / beta)
    raise PartitionUnavailable(
        "tempered multi-component mixtures have no closed-form partition value; "
        "use numeric quadrature (divergences.QuadratureGrid)"
    )


# ---------------------------------------------------------------------------
# adversarial two-variance construction


def adversarial_bump_h(x: float) -> float:
    """Monotone C^1 glue: 0 below 0, 1 above 1, x^2(1-x)^2 + (1-(1-x)^2)^2 between."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    y = 1.0 - x
    return x * x * y * y + (1.0 - y * y) ** 2


def adversarial_bump_h_prime(x: float) -> float:
    """Derivative of the glue; 2x(4x^2 - 9x + 5) on (0,1), 0 outside."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return 2.0 * x * (4.0 * x * x - 9.0 * x + 5.0)


@dataclass(eq=False)
class AdversarialTwoGaussian(DensityOracle):
    """Equal-weight pair of Gaussians with unequal covariance, plus the
    surgery that swaps in the wide component far from both modes.  As an
    oracle its value and grad are those of the modified function.

    f1 is the wide component (variance 2), f2 the narrow one (variance 1)
    centered at u = (8 d ln 2) e_1.  The modified function is

        ftilde = g*f1 + (1-g)*f,   g(x) = h(10(|x-2u|/|u| - 1.5)),

    so ftilde = f inside |x-2u| <= 1.5|u| and ftilde = f1 outside 1.6|u|.
    """

    dim: int
    u: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        self.u = np.zeros(self.dim)
        self.u[0] = 8.0 * self.dim * math.log(2.0)

    @property
    def u_norm(self) -> float:
        return float(np.linalg.norm(self.u))

    # wide component, variance 2
    def f1_value(self, x: np.ndarray) -> float:
        c = 0.5 * self.dim * math.log(2.0 * math.sqrt(2.0) * math.pi)
        return 0.25 * float(x @ x) + c

    def f1_grad(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * x

    # narrow component, variance 1, centered at u
    def f2_value(self, x: np.ndarray) -> float:
        z = x - self.u
        return 0.5 * float(z @ z) + 0.5 * self.dim * math.log(2.0 * math.pi)

    def f2_grad(self, x: np.ndarray) -> np.ndarray:
        return x - self.u

    def mixture_value(self, x) -> float:
        """f = -log( (e^{-f1} + e^{-f2}) / 2 )."""
        x = _as_vector(x, self.dim)
        a = np.array([-self.f1_value(x), -self.f2_value(x)]) + math.log(0.5)
        return -_logsumexp(a)

    def mixture_grad(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        s = _softmax(np.array([-self.f1_value(x), -self.f2_value(x)]))
        return s[0] * self.f1_grad(x) + s[1] * self.f2_grad(x)

    def g_value(self, x) -> float:
        x = _as_vector(x, self.dim)
        r = float(np.linalg.norm(x - 2.0 * self.u))
        return adversarial_bump_h(10.0 * (r / self.u_norm - 1.5))

    def g_grad(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        z = x - 2.0 * self.u
        r = float(np.linalg.norm(z))
        hp = adversarial_bump_h_prime(10.0 * (r / self.u_norm - 1.5))
        if hp == 0.0 or r == 0.0:
            return np.zeros(self.dim)
        return hp * (10.0 / self.u_norm) * (z / r)

    def value_grad(self, x) -> tuple[float, np.ndarray]:
        """(ftilde, grad ftilde) assembled with the product rule."""
        x = _as_vector(x, self.dim)
        g = self.g_value(x)
        if g == 0.0:
            return self.mixture_value(x), self.mixture_grad(x)
        if g == 1.0:
            # identically f1 on a neighbourhood, so grad g drops out
            return self.f1_value(x), self.f1_grad(x)
        f1 = self.f1_value(x)
        f = self.mixture_value(x)
        val = g * f1 + (1.0 - g) * f
        grad = (
            g * self.f1_grad(x)
            + (1.0 - g) * self.mixture_grad(x)
            + (f1 - f) * self.g_grad(x)
        )
        return val, grad

    def value(self, x) -> float:
        return self.value_grad(x)[0]

    def grad(self, x) -> np.ndarray:
        return self.value_grad(x)[1]


# ---------------------------------------------------------------------------
# declared perturbations


@dataclass(eq=False)
class Perturbation:
    """Additive perturbation with caller-declared bounds.

    `delta` bounds |perturbation| and `tau` bounds |grad perturbation| in sup
    norm.  The bounds are declared, not measured, and nothing here reads them:
    they record what the caller claims about the perturbation.
    """

    value: object  # callable d-vector -> float
    grad: object  # callable d-vector -> d-vector
    delta: float
    tau: float

    def __post_init__(self):
        if self.delta < 0 or self.tau < 0:
            raise ValueError("declared bounds must be nonnegative")


class PerturbedOracle(DensityOracle):
    def __init__(self, base: DensityOracle, perturbation: Perturbation):
        self.base = base
        self.perturbation = perturbation
        self.dim = base.dim

    def value(self, x) -> float:
        x = _as_vector(x, self.dim)
        return self.base.value(x) + float(self.perturbation.value(x))

    def grad(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return self.base.grad(x) + np.asarray(self.perturbation.grad(x), dtype=float)
