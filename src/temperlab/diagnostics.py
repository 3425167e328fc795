"""Sample-quality diagnostics: binned TV distance (exact bin masses on the
divergences module's QuadratureGrid), mode occupancy, and integrated
autocorrelation time."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import GL_ORDER, QuadratureGrid
from .oracles import MixtureTarget, mixture_log_density_many

__all__ = [
    "HistogramEstimate",
    "AutocorrEstimate",
    "empirical_tv",
    "mode_masses",
    "integrated_autocorr",
]


@dataclass(frozen=True)
class HistogramEstimate:
    """Empirical vs exact bin masses on a common binning.

    edges is (bins+1,) in one dimension and (2, bins+1) in two; the mass
    arrays follow with shapes (bins,) and (bins, bins).
    """

    edges: np.ndarray
    empirical: np.ndarray
    exact: np.ndarray
    out_fraction: float
    exact_out: float

    @property
    def dimension(self) -> int:
        return self.empirical.ndim

    @property
    def num_bins(self) -> int:
        return self.empirical.shape[0]


def _axis_span(target: MixtureTarget, axis: int) -> tuple[float, float]:
    mus = target.centers[:, axis]
    pad = 6.0 * target.base.sigma_equiv
    return float(mus.min() - pad), float(mus.max() + pad)


def empirical_tv(
    samples: np.ndarray,
    target: MixtureTarget,
    bins: int = 100,
    span: tuple | None = None,
) -> tuple[float, HistogramEstimate]:
    """Binned total-variation distance between samples and a 1-d or 2-d target.

    Exact bin masses are the node masses of the normalized beta = 1 density
    on the Gauss-Legendre QuadratureGrid with GL_ORDER * bins nodes per axis,
    whose panels are the histogram bins.  Mass outside the span is its own
    bin on both sides of the comparison, so samples that wander far from the
    target still register: TV tends to 1, not to 0, when the chain runs away.

    Default span per axis: 6 base standard deviations beyond the extreme
    centers.  For a 2-d target, pass span as ((xlo, xhi), (ylo, yhi)).
    """
    if bins < 20:
        raise ValueError("use at least 20 bins")
    d = target.dim
    X = np.asarray(samples, dtype=float).reshape(-1, d)
    if X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if span is None:
        span = tuple(_axis_span(target, k) for k in range(d))
    elif d == 1:
        span = (span,)
    grid = QuadratureGrid.build(span, nodes_per_axis=GL_ORDER * bins, rule="gauss-legendre")
    edges = np.array([np.linspace(lo, hi, bins + 1) for lo, hi in grid.bounds])
    counts = (
        np.histogram(X[:, 0], bins=edges[0])[0] if d == 1
        else np.histogram2d(X[:, 0], X[:, 1], bins=tuple(edges))[0]
    )
    emp = counts / X.shape[0]
    # log(1 / int exp(-f0)) for f0(z) = z . P z / 2
    _, logdet = np.linalg.slogdet(np.dot(target.base.precision, np.eye(d)))
    log_norm = 0.5 * (logdet - d * math.log(2.0 * math.pi))
    mass = np.exp(log_norm - mixture_log_density_many(target, grid.points)) * grid.weights
    exact = mass.reshape((bins, GL_ORDER) * d).sum(axis=tuple(range(1, 2 * d, 2)))

    out_frac = 1.0 - float(emp.sum())
    exact_out = max(0.0, 1.0 - float(exact.sum()))
    tv = 0.5 * (float(np.abs(emp - exact).sum()) + abs(out_frac - exact_out))
    hist = HistogramEstimate(
        edges=edges[0] if d == 1 else edges,
        empirical=emp,
        exact=exact,
        out_fraction=out_frac,
        exact_out=exact_out,
    )
    return tv, hist


def mode_masses(samples: np.ndarray, target: MixtureTarget) -> np.ndarray:
    """Fraction of samples nearest each center, in center order.

    Only meaningful when the modes are actually separated; requires all
    pairwise center distances to be at least 4 base standard deviations.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[1] != target.dim:
        raise ValueError("sample dimension disagrees with the target")
    C = target.centers
    if target.m >= 2:
        d2 = np.sum((C[:, None, :] - C[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        sep = math.sqrt(float(d2.min()))
        if sep < 4.0 * target.base.sigma_equiv:
            raise ValueError(
                f"centers are only {sep:.3g} apart; nearest-center masses "
                "need separation of at least 4 base standard deviations"
            )
    d2 = np.sum((X[:, None, :] - C[None, :, :]) ** 2, axis=2)
    nearest = np.argmin(d2, axis=1)
    counts = np.bincount(nearest, minlength=target.m)
    return counts / X.shape[0]


@dataclass(frozen=True)
class AutocorrEstimate:
    """Integrated autocorrelation time and the effective sample size."""

    tau_int: float
    ess: float
    lag: int
    degenerate: bool


def integrated_autocorr(series: np.ndarray, max_lag: int | None = None) -> AutocorrEstimate:
    """Initial-positive-sequence estimate of the autocorrelation time.

    Pairs consecutive autocorrelations (rho_2m + rho_2m+1) and truncates at
    the first nonpositive pair, which is the standard conservative rule for
    reversible chains.  A constant series is flagged degenerate with tau 1.
    """
    x = np.asarray(series, dtype=float).reshape(-1)
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 points")
    x = x - x.mean()
    var = float(x @ x) / n
    if var <= 0.0 or not math.isfinite(var):
        return AutocorrEstimate(tau_int=1.0, ess=float(n), lag=0, degenerate=True)
    limit = n - 1 if max_lag is None else min(max_lag, n - 1)

    # autocovariances by FFT; biased normalization (divide by n) keeps the
    # sequence positive definite
    size = 1
    while size < 2 * n:
        size *= 2
    F = np.fft.rfft(x, size)
    acov = np.fft.irfft(F * np.conjugate(F), size)[: limit + 1] / n
    rho = acov / acov[0]

    tau = -1.0
    lag = 0
    m = 0
    while 2 * m + 1 <= limit:
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        tau += 2.0 * gamma
        lag = 2 * m + 1
        m += 1
    if tau < 0.0:  # first pair already nonpositive; fall back to lag 0
        tau = 1.0
        lag = 0
    ess = n / tau
    return AutocorrEstimate(tau_int=float(tau), ess=float(ess), lag=int(lag), degenerate=False)
