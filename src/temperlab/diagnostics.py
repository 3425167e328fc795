"""Sample-quality diagnostics: binned TV distance, mode occupancy, and
integrated autocorrelation time."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import MixtureTarget, _component_energies

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


def _gaussian_density(target: MixtureTarget):
    """Normalized density of a mixture target (the beta = 1 law), d <= 2."""
    d = target.dim
    if d > 2:
        raise ValueError("binned TV masses are implemented for d <= 2")
    # 1 / integral of exp(-f0) for f0(z) = z . P z / 2
    P = np.dot(target.base.precision, np.eye(d))
    norm = math.sqrt(float(np.linalg.det(P)) / (2.0 * math.pi) ** d)
    w = target.weights

    def density(pts):
        return (np.exp(-_component_energies(target, pts)) * w[:, None]).sum(axis=0) * norm

    return density


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

    Exact bin masses come from 16-point quadrature per axis inside each bin.
    Mass outside the span is its own bin on both sides of the comparison, so
    samples that wander far from the target still register: TV tends to 1,
    not to 0, when the chain runs away.

    Default span per axis: 6 base standard deviations beyond the extreme
    centers.  For a 2-d target, pass span as ((xlo, xhi), (ylo, yhi)).
    """
    if bins < 20:
        raise ValueError("use at least 20 bins")
    density = _gaussian_density(target)
    d = target.dim
    X = np.asarray(samples, dtype=float)
    X = X.reshape(-1) if d == 1 else X.reshape(-1, d)
    if X.shape[0] == 0:
        raise ValueError("need at least one sample")

    t, wt = np.polynomial.legendre.leggauss(16)

    def axis_nodes(edges):
        a = edges[:-1]
        half = 0.5 * (edges[1:] - a)
        mid = a + half
        return mid[:, None] + half[:, None] * t[None, :], half

    if d == 1:
        if span is None:
            span = _axis_span(target, 0)
        lo, hi = float(span[0]), float(span[1])
        if not hi > lo:
            raise ValueError("span must be an increasing pair")
        edges = np.linspace(lo, hi, bins + 1)
        counts, _ = np.histogram(X, bins=edges)
        emp = counts / X.size
        nodes, half = axis_nodes(edges)
        vals = density(nodes.ravel()).reshape(bins, 16)
        exact = (vals * wt[None, :]).sum(axis=1) * half
    else:
        if span is None:
            span = (_axis_span(target, 0), _axis_span(target, 1))
        (xlo, xhi), (ylo, yhi) = span
        if not (xhi > xlo and yhi > ylo):
            raise ValueError("each axis span must be an increasing pair")
        ex = np.linspace(float(xlo), float(xhi), bins + 1)
        ey = np.linspace(float(ylo), float(yhi), bins + 1)
        counts, _, _ = np.histogram2d(X[:, 0], X[:, 1], bins=(ex, ey))
        emp = counts / X.shape[0]
        nx, hx = axis_nodes(ex)
        ny, hy = axis_nodes(ey)
        pts = np.stack(
            [
                np.broadcast_to(nx[:, None, :, None], (bins, bins, 16, 16)),
                np.broadcast_to(ny[None, :, None, :], (bins, bins, 16, 16)),
            ],
            axis=-1,
        )
        vals = density(pts.reshape(-1, 2)).reshape(bins, bins, 16, 16)
        exact = np.einsum("abij,i,j->ab", vals, wt, wt)
        exact *= hx[:, None] * hy[None, :]
        edges = np.stack([ex, ey])

    out_frac = 1.0 - float(emp.sum())
    exact_out = max(0.0, 1.0 - float(exact.sum()))
    tv = 0.5 * (float(np.abs(emp - exact).sum()) + abs(out_frac - exact_out))
    hist = HistogramEstimate(
        edges=edges,
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
