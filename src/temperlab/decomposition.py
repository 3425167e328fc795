"""Finite-state laboratory for variance-decomposition bounds.

Everything here is a reversible continuous-time chain on at most a few
hundred states, where Poincare constants are exact eigenvalue computations.
The point is to check, at desk scale, that the projected-chain machinery
gives real bounds: build a mixture (or tempering) chain whose Dirichlet form
decomposes exactly, compute the true Poincare constant by brute force, and
compare it against the bound assembled from component constants plus a tiny
projected chain.

A chain is its stationary flows pi(x) Q(x, y), the terms of its Dirichlet
form: a builder writes each pair's flow once on both sides of the diagonal,
FiniteMarkovProcess stores them with pi and checks their symmetry (the one
reversibility check), and the Dirichlet form and the spectrum are read off
them.  The jump rates are derived on demand, and the spectral gap is the one
test that a chain connects.

Discrete sums replace integrals throughout; the quadrature twins of the
divergences live in divergences.py and are deliberately not reused here, so
the two routes stay independent.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .divergences import _report_dict
from .oracles import _softmax

__all__ = [
    "MAX_STATES",
    "RATE_CAP",
    "INFINITY",
    "ReducibleChainError",
    "FiniteMarkovProcess",
    "discretize_density",
    "mixture_chain",
    "dirichlet_form",
    "variance",
    "poincare_constant",
    "chi2_discrete",
    "chi2_max_discrete",
    "overlap_discrete",
    "build_tempering_chain",
    "build_projected_chain",
    "CanonicalPathSet",
    "geodesic_paths",
    "congestion_bound",
    "DecompositionReport",
    "SimpleInstance",
    "TemperingInstance",
    "verify_simple_decomposition",
    "verify_tempering_decomposition",
    "random_simple_instance",
    "random_tempering_instance",
    "instance_hash",
]

MAX_STATES = 512
# stands in for an infinite move rate when two components coincide exactly
RATE_CAP = 1e12
INFINITY = float("inf")
# random probes of the Dirichlet decomposition identity, drawn from a fixed seed
_NUM_PROBES = 20
_PROBE_SEED = 0


class ReducibleChainError(RuntimeError):
    """The chain does not connect all states; no spectral gap exists."""


@dataclass(frozen=True)
class FiniteMarkovProcess:
    """Reversible continuous-time chain, stored as its stationary flows.

    flows[x, y] = pi(x) Q(x, y) for x != y, the terms of the Dirichlet form;
    the diagonal is ignored.  Symmetry of the flows (reversibility) is
    validated on construction, not assumed.
    """

    flows: np.ndarray
    stationary: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        F = np.array(self.flows, dtype=float)
        pi = np.asarray(self.stationary, dtype=float)
        n = pi.size
        if F.shape != (n, n):
            raise ValueError("flows must be square and match the stationary vector")
        if n < 1:
            raise ValueError("need at least one state")
        if n > MAX_STATES:
            raise ValueError(f"at most {MAX_STATES} states (got {n})")
        for name, a in (("stationary", pi), ("flows", F)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        if np.any(pi <= 0):
            raise ValueError("stationary probabilities must all be positive")
        if abs(float(pi.sum()) - 1.0) > 1e-12:
            raise ValueError("stationary distribution must sum to 1")
        np.fill_diagonal(F, 0.0)
        if float(F.min()) < 0.0:
            raise ValueError("off-diagonal flows must be nonnegative")
        asym = float(np.abs(F - F.T).max())
        if asym > 1e-10 * max(float(F.max()), 1e-300):
            raise ValueError(
                f"stationary flows are asymmetric by {asym:.3g}; "
                "the chain is not reversible"
            )
        object.__setattr__(self, "flows", F)
        object.__setattr__(self, "stationary", pi)

    @property
    def num_states(self) -> int:
        return self.stationary.size

    @property
    def rates(self) -> np.ndarray:
        """The generator Q: jump rates off the diagonal, rows summing to zero."""
        Q = self.flows / self.stationary[:, None]
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return Q

    @staticmethod
    def from_offdiag(off: np.ndarray, stationary: np.ndarray, labels: tuple = ()):
        """The chain with jump rates off[x, y] for x != y; off's diagonal is ignored."""
        pi = np.asarray(stationary, dtype=float)
        flows = pi[:, None] * np.asarray(off, dtype=float)
        return FiniteMarkovProcess(flows=flows, stationary=pi, labels=labels)


def _uniform_spacing(grid: np.ndarray) -> float:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be 1-d with at least two points")
    d = np.diff(grid)
    h = float(d[0])
    if h <= 0 or np.any(np.abs(d - h) > 1e-9 * abs(h)):
        raise ValueError("grid points must be uniformly spaced and increasing")
    return h


def discretize_density(grid: np.ndarray, density) -> FiniteMarkovProcess:
    """Birth-death Metropolis chain on a uniform 1-d grid targeting `density`.

    density: callable on the grid or an array of (unnormalized) masses.
    Neighbour rates are min(1, pi_nb / pi_x) / h^2, so each neighbour pair
    carries the flow min(pi_x, pi_nb) / h^2; the rate 1/h^2 makes the chain a
    discrete Langevin diffusion in the small-h limit.
    """
    grid = np.asarray(grid, dtype=float)
    h = _uniform_spacing(grid)
    if grid.size > MAX_STATES:
        raise ValueError(f"at most {MAX_STATES} grid points")
    rate = 1.0 / h**2
    vals = np.asarray(density(grid) if callable(density) else density, dtype=float)
    if vals.shape != grid.shape:
        raise ValueError("need one density value per grid point")
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError(
            "density must be positive and finite on the whole grid; shrink "
            "the grid or fatten the tails"
        )
    pi = vals / vals.sum()
    flow = np.zeros((grid.size, grid.size))
    idx = np.arange(grid.size - 1)
    flow[idx, idx + 1] = flow[idx + 1, idx] = rate * np.minimum(pi[idx], pi[idx + 1])
    return FiniteMarkovProcess(flow, pi)


def mixture_chain(
    components: list,
    weights,
) -> FiniteMarkovProcess:
    """Chain whose Dirichlet form is exactly the weighted sum of components'.

    All components must share a state space.  The stationary law is
    pi = sum_j w_j pi_j and the flows add: pi(x) Q(x,y) =
    sum_j w_j pi_j(x) Q_j(x,y).  Both sides of the decomposition identity
    then agree to rounding, which is the whole point of this construction.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != len(components) or w.size == 0:
        raise ValueError("need one weight per component")
    if not (np.all(w > 0) and abs(float(w.sum()) - 1.0) <= 1e-12):
        raise ValueError(f"weights must be positive and sum to 1 (got {w!r})")
    n = components[0].num_states
    if any(c.num_states != n for c in components):
        raise ValueError("components must share one state space")
    pi = sum(wj * c.stationary for wj, c in zip(w, components))
    flow = sum(wj * c.flows for wj, c in zip(w, components))
    return FiniteMarkovProcess(flow, pi)


def variance(proc: FiniteMarkovProcess, g: np.ndarray) -> float:
    g = np.asarray(g, dtype=float)
    pi = proc.stationary
    mean = float(pi @ g)
    return float(pi @ (g - mean) ** 2)


def dirichlet_form(proc: FiniteMarkovProcess, g, f=None) -> float:
    """E(f, g) = -<f, Q g>_pi = sum_x f(x) sum_y F(x, y) (g(x) - g(y)) over
    the flows F; with f omitted, the quadratic form E(g, g)."""
    g = np.asarray(g, dtype=float)
    f = g if f is None else np.asarray(f, dtype=float)
    F = proc.flows
    return float(f @ (F.sum(axis=1) * g - F @ g))


def poincare_constant(proc: FiniteMarkovProcess) -> float:
    """Smallest C with Var(g) <= C E(g, g): one over the spectral gap.

    The spectrum is that of -Q symmetrized by pi: off the diagonal
    -F(x, y) / sqrt(pi(x)) / sqrt(pi(y)), on it the row sums of F over pi.
    A single state has no variance to bound, so its constant is 0.  A chain
    that fails to connect has the eigenvalue 0 more than once, so its gap is
    numerically zero and it raises ReducibleChainError; callers that want a
    vacuous bound should catch it and use inf.
    """
    if proc.num_states == 1:
        return 0.0
    pi, F = proc.stationary, proc.flows
    sq = np.sqrt(pi)  # one root at a time: pi(x) pi(y) can underflow to 0
    M = -F / sq[:, None] / sq[None, :]
    np.fill_diagonal(M, F.sum(axis=1) / pi)
    evals = np.linalg.eigvalsh(M)
    scale = max(float(evals[-1]), 1.0)
    if abs(float(evals[0])) > 1e-9 * scale:
        raise ValueError(f"ground eigenvalue {evals[0]:.3g} is not numerically zero")
    gap = float(evals[1])
    if gap <= 1e-12 * scale:
        raise ReducibleChainError("spectral gap is numerically zero")
    return 1.0 / gap


# ---------------------------------------------------------------------------
# discrete divergences (finite-lab twins of the quadrature versions)


def chi2_discrete(q: np.ndarray, p: np.ndarray) -> float:
    """chi^2(q || p) = sum q^2/p - 1 for finite distributions."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape:
        raise ValueError("distributions must have the same length")
    if np.any(q < 0) or np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    for name, v in (("q", q), ("p", p)):
        if abs(float(v.sum()) - 1.0) > 1e-10:
            raise ValueError(f"{name} must sum to 1")
    off = p <= 0.0
    if np.any(q[off] > 0.0):
        return INFINITY
    on = ~off
    return max(float(np.sum(q[on] ** 2 / p[on])) - 1.0, 0.0)


def chi2_max_discrete(a: np.ndarray, b: np.ndarray) -> float:
    return max(chi2_discrete(a, b), chi2_discrete(b, a))


def overlap_discrete(p: np.ndarray, q: np.ndarray) -> float:
    """sum_x min(p, q); the vertical-move overlap mass."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    return float(np.minimum(p, q).sum())


# ---------------------------------------------------------------------------
# tempering chain on level x position states


def build_tempering_chain(
    level_processes: list,
    rel_probs,
    swap_rate: float,
) -> FiniteMarkovProcess:
    """Assemble the joint simulated-tempering chain from per-level chains.

    States are (level, position) with level 1..L, flat index
    (level - 1) * positions + position.  Within level i the flows are
    r_i times the level chain's.  Between (i, x) and (i+1, x) the flow is
    (swap_rate / 2) * min(r_i pi_i(x), r_(i+1) pi_(i+1)(x)): propose each
    neighbour level with probability 1/2, accept by stationary ratio.  Joint
    stationary law: r_i pi_i(x).
    """
    r = np.asarray(rel_probs, dtype=float)
    L = r.size
    if L != len(level_processes) or L == 0:
        raise ValueError("need one relative probability per level")
    if not (np.all(r > 0) and abs(float(r.sum()) - 1.0) <= 1e-12):
        raise ValueError("rel_probs must be positive and sum to 1")
    if not swap_rate > 0:
        raise ValueError("swap_rate must be > 0")
    n = level_processes[0].num_states
    if any(p.num_states != n for p in level_processes):
        raise ValueError("levels must share one position grid")
    if L * n > MAX_STATES:
        raise ValueError(f"joint chain would have {L * n} > {MAX_STATES} states")

    pi = np.concatenate([ri * p.stationary for ri, p in zip(r, level_processes)])
    flow = np.zeros((L * n, L * n))
    for i, p in enumerate(level_processes):
        sl = slice(i * n, (i + 1) * n)
        flow[sl, sl] = r[i] * p.flows
    lo = np.arange((L - 1) * n)
    flow[lo, lo + n] = flow[lo + n, lo] = 0.5 * swap_rate * np.minimum(pi[lo], pi[lo + n])
    labels = tuple((i + 1, x) for i in range(L) for x in range(n))
    return FiniteMarkovProcess(flow, pi, labels)


# ---------------------------------------------------------------------------
# projected chains


def _capped_inverse(chi2: float) -> float:
    """1/chi2 with chi2 floored at 1/RATE_CAP; inf divergence gives rate 0."""
    if chi2 == INFINITY:
        return 0.0
    if chi2 < 1.0 / RATE_CAP:
        warnings.warn(
            "chi-squared divergence is numerically zero; capping the "
            f"projected rate at {RATE_CAP:.0e}",
            RuntimeWarning,
            stacklevel=4,
        )
        return RATE_CAP
    return 1.0 / chi2


def _component_flows(w: np.ndarray, dens: np.ndarray, kind: str) -> np.ndarray:
    """Flows between mixture components j != k: w_j w_k / chi2_max(p_j, p_k)
    for kind "chi2", w_j w_k sum_x min(p_j, p_k) for kind "overlap"."""
    if kind not in ("chi2", "overlap"):
        raise ValueError(f"unknown projected-chain kind {kind!r}")
    m = w.size
    flow = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            p, q = dens[j], dens[k]
            v = _capped_inverse(chi2_max_discrete(p, q)) if kind == "chi2" else overlap_discrete(p, q)
            flow[j, k] = flow[k, j] = w[j] * w[k] * v
    return flow


def build_projected_chain(
    comp_weights: np.ndarray,
    rel_probs: np.ndarray,
    densities: np.ndarray,
    swap_strength: float,
) -> FiniteMarkovProcess:
    """Projected chain on (level, component) labels for a tempering mixture.

    comp_weights[i, j] and densities[i, j, :] describe level i's mixture.
    Stationary law: r_i w[i, j].  Flows: within the hottest level (i = 1),
    r_1 w[1, j] w[1, j'] / chi2_max(p_(1,j), p_(1,j')); between adjacent
    levels at the same j, swap_strength times the overlap of the two masses,
    sum_x min(r_i w[i, j] p_(i,j)(x), r_(i+1) w[i+1, j] p_(i+1,j)(x)).
    Everything else is zero.
    """
    w = np.asarray(comp_weights, dtype=float)
    r = np.asarray(rel_probs, dtype=float)
    dens = np.asarray(densities, dtype=float)
    if w.ndim != 2:
        raise ValueError("comp_weights must be (levels, components)")
    L, m = w.shape
    if dens.shape[:2] != (L, m):
        raise ValueError("densities must be (levels, components, states)")
    if r.shape != (L,):
        raise ValueError("rel_probs must have one entry per level")
    if not (np.all(w > 0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-10)):
        raise ValueError("comp_weights must be positive and each level's row must sum to 1")
    if not swap_strength > 0:
        raise ValueError("swap_strength must be > 0")

    bar = r[:, None] * w  # stationary law on (level, component)
    mass = bar[:, :, None] * dens
    flow = np.zeros((L * m, L * m))
    flow[:m, :m] = r[0] * _component_flows(w[0], dens[0], "chi2")
    lo = np.arange((L - 1) * m)
    flow[lo, lo + m] = flow[lo + m, lo] = (
        swap_strength * np.minimum(mass[:-1], mass[1:]).sum(axis=2).ravel()
    )
    labels = tuple((i + 1, j) for i in range(L) for j in range(m))
    return FiniteMarkovProcess(flow, bar.ravel(), labels)


def build_simple_projected_chain(
    weights: np.ndarray,
    densities: np.ndarray,
    kind: str = "chi2",
) -> FiniteMarkovProcess:
    """Projected chain over plain mixture components (single level).

    kind "chi2":    rate j -> k is w_k / chi2_max(p_j, p_k).
    kind "overlap": rate j -> k is w_k * sum_x min(p_j, p_k).
    """
    w = np.asarray(weights, dtype=float)
    dens = np.asarray(densities, dtype=float)
    if dens.shape[0] != w.size:
        raise ValueError("need one density per weight")
    return FiniteMarkovProcess(_component_flows(w, dens, kind), w, tuple(range(w.size)))


# ---------------------------------------------------------------------------
# canonical paths


@dataclass(frozen=True)
class CanonicalPathSet:
    """One path of adjacent states for every ordered pair of distinct states."""

    paths: dict

    def __post_init__(self):
        for (x, y), p in self.paths.items():
            if len(p) < 2 or p[0] != x or p[-1] != y:
                raise ValueError(f"path for ({x}, {y}) must run from x to y")
            if len(set(p)) != len(p):
                raise ValueError(f"path for ({x}, {y}) revisits a state")

    def __getitem__(self, pair):
        return self.paths[pair]


def _bfs_parents(adj: np.ndarray, s: int) -> np.ndarray:
    """Breadth-first tree from s, neighbours in index order.  parent[s] = s;
    states that s cannot reach get -1."""
    parent = np.full(adj.shape[0], -1, dtype=int)
    parent[s] = s
    queue = [s]
    for x in queue:  # the queue grows while it is walked
        for y in np.nonzero(adj[x])[0]:
            if parent[y] < 0:
                parent[y] = x
                queue.append(int(y))
    return parent


def geodesic_paths(adjacency: np.ndarray) -> CanonicalPathSet:
    """Shortest paths for all ordered pairs by BFS, lowest-index tie-break."""
    A = np.asarray(adjacency) > 0
    n = A.shape[0]
    paths = {}
    for s in range(n):
        parent = _bfs_parents(A, s)
        for t in range(n):
            if t == s:
                continue
            if parent[t] < 0:
                raise ReducibleChainError(
                    f"no path from state {s} to state {t}"
                )
            rev = [t]
            while rev[-1] != s:
                rev.append(int(parent[rev[-1]]))
            paths[(s, t)] = tuple(reversed(rev))
    return CanonicalPathSet(paths=paths)


def congestion_bound(
    transition: np.ndarray,
    stationary: np.ndarray,
    paths: CanonicalPathSet,
) -> tuple:
    """Worst edge congestion rho for a discrete-time reversible walk.

    transition is row-stochastic; the walk's Dirichlet form is the one of
    T - I.  Returns (rho, (z, w)) where (z, w) attains the maximum, so
    Var_p(g) <= rho * E(g, g) for every g.
    """
    T = np.asarray(transition, dtype=float)
    p = np.asarray(stationary, dtype=float)
    n = p.size
    if T.shape != (n, n):
        raise ValueError("transition matrix shape disagrees with stationary")
    off = T.copy()
    np.fill_diagonal(off, 0.0)
    if float(off.min()) < 0:
        raise ValueError("transition probabilities must be nonnegative")
    if float(np.abs(T.sum(axis=1) - 1.0).max()) > 1e-10:
        raise ValueError("transition rows must sum to 1")
    load = {}
    for (x, y), path in paths.paths.items():
        length = len(path) - 1
        contrib = length * p[x] * p[y]
        for z, w in zip(path[:-1], path[1:]):
            if T[z, w] <= 0.0:
                raise ValueError(
                    f"path for ({x}, {y}) uses edge ({z}, {w}) with zero "
                    "transition probability"
                )
            load[(z, w)] = load.get((z, w), 0.0) + contrib
    rho, arg = 0.0, None
    for (z, w), tot in load.items():
        val = tot / (p[z] * T[z, w])
        if val > rho:
            rho, arg = val, (z, w)
    return rho, arg


# ---------------------------------------------------------------------------
# instances and verification


@dataclass(frozen=True)
class SimpleInstance:
    """Mixture of discretized 1-d densities sharing a uniform grid; each
    component chain has discretize_density's rate 1/h^2."""

    grid: np.ndarray
    weights: np.ndarray
    densities: np.ndarray  # (m, n) rows sum to 1

    def hash(self) -> str:
        # the base rate 1/h^2 is part of the instance's identity
        h = float(self.grid[1] - self.grid[0])
        return instance_hash(self.grid, self.weights, self.densities, np.array([1.0 / h**2]))


@dataclass(frozen=True)
class TemperingInstance:
    """Tempering ladder of mixtures on a shared grid, plus exchange rates."""

    grid: np.ndarray
    betas: np.ndarray
    rel_probs: np.ndarray
    comp_weights: np.ndarray  # (L, m)
    densities: np.ndarray  # (L, m, n) rows sum to 1
    swap_rate: float
    swap_strength: float

    def hash(self) -> str:
        return instance_hash(
            self.grid, self.betas, self.rel_probs, self.comp_weights,
            self.densities, np.array([self.swap_rate, self.swap_strength]),
        )


def instance_hash(*arrays) -> str:
    """Short stable identifier: sha256 over shapes and raw bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


@dataclass
class DecompositionReport:
    """Bound check for one instance: the pieces and the verdict."""

    theorem: str
    instance_hash: str
    C: float
    C_bar: float
    C_star: float
    bound: float
    slack: float
    passed: bool
    identity_residual: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _report_dict(self)


def _safe_poincare(proc: FiniteMarkovProcess) -> float:
    try:
        return poincare_constant(proc)
    except ReducibleChainError:
        return INFINITY


def _judged(theorem, tag, C, C_bar, C_star, bound_of, tol, residual, details):
    """The report for one bound: bound_of(C_bar), or inf (a vacuous pass)
    when the projected chain is reducible; passed when C_star is within
    bound * (1 + tol)."""
    bound = bound_of(C_bar) if math.isfinite(C_bar) else INFINITY
    slack = bound * (1.0 + tol) - C_star if math.isfinite(bound) else INFINITY
    return DecompositionReport(
        theorem=theorem,
        instance_hash=tag,
        C=C,
        C_bar=C_bar,
        C_star=C_star,
        bound=bound,
        slack=slack,
        passed=bool(slack >= 0.0),
        identity_residual=residual,
        details=dict(details),
    )


def _identity_residual(sides) -> float:
    """Worst relative gap |lhs - rhs| / max(|lhs|, |rhs|, 1e-12) over the
    (lhs, rhs) pairs of a decomposition identity."""
    return max(abs(a - b) / max(abs(a), abs(b), 1e-12) for a, b in sides)


def verify_simple_decomposition(
    instance: SimpleInstance,
    tol: float = 1e-6,
) -> list:
    """Check both mixture-decomposition bounds on one finite instance.

    Builds the mixture chain, confirms the Dirichlet decomposition identity
    on random probes, computes the exact Poincare constant, and compares it
    with the two projected-chain bounds:

        chi2 rates:    C_star <= C (1 + C_bar / 2)
        overlap rates: C_star <= C (1 + 2 C_bar)

    An unreachable projected chain gives C_bar = inf and a vacuous pass.
    """
    w = instance.weights
    comps = [discretize_density(instance.grid, d) for d in instance.densities]
    mix = mixture_chain(comps, w)
    rng = np.random.Generator(np.random.PCG64(_PROBE_SEED))
    n = mix.num_states
    probes = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(_NUM_PROBES)]
    residual = _identity_residual(
        (dirichlet_form(mix, g, f), sum(wj * dirichlet_form(c, g, f) for wj, c in zip(w, comps)))
        for f, g in probes
    )
    C = max(poincare_constant(c) for c in comps)
    C_star = poincare_constant(mix)
    tag = instance.hash()
    details = {"num_components": int(w.size), "num_states": int(n)}
    return [
        _judged(
            theorem, tag, C,
            _safe_poincare(build_simple_projected_chain(w, instance.densities, kind=kind)),
            C_star, bound_of, tol, residual, details,
        )
        for kind, theorem, bound_of in (
            ("chi2", "mixture-decomposition-chi2", lambda cb: C * (1.0 + cb / 2.0)),
            ("overlap", "mixture-decomposition-overlap", lambda cb: C * (1.0 + 2.0 * cb)),
        )
    ]


def verify_tempering_decomposition(
    instance: TemperingInstance,
    tol: float = 1e-6,
) -> DecompositionReport:
    """Check the tempering decomposition bound on one finite instance.

    The joint chain couples per-level mixture chains with adjacent-level
    exchange moves.  With C the worst component Poincare constant, C_bar the
    projected chain's, K the vertical strength, and lam the exchange rate:

        C_star <= max( C (1 + (1/2 + 6 K) C_bar), 6 K C_bar / lam ).
    """
    L, m, n = instance.densities.shape
    K = instance.swap_strength
    lam = instance.swap_rate
    comp_chains = [
        [
            discretize_density(instance.grid, instance.densities[i, j])
            for j in range(m)
        ]
        for i in range(L)
    ]
    level_chains = [
        mixture_chain(comp_chains[i], instance.comp_weights[i]) for i in range(L)
    ]
    joint = build_tempering_chain(level_chains, instance.rel_probs, lam)

    # Dirichlet identity: joint form = sum_i r_i E_i + exchange half-sum, where
    # the ordered pairs (i, i+1) and (i+1, i) contribute equally
    level_pi = joint.stationary.reshape(L, n)
    cross = 0.5 * lam * np.minimum(level_pi[:-1], level_pi[1:])

    def sides(g):
        G = g.reshape(L, n)
        levels = sum(
            instance.rel_probs[i] * dirichlet_form(level_chains[i], G[i]) for i in range(L)
        )
        return dirichlet_form(joint, g), levels + float((cross * np.diff(G, axis=0) ** 2).sum())

    rng = np.random.Generator(np.random.PCG64(_PROBE_SEED))
    worst = _identity_residual(sides(rng.standard_normal(L * n)) for _ in range(_NUM_PROBES))

    C = max(
        poincare_constant(comp_chains[i][j]) for i in range(L) for j in range(m)
    )
    proj = build_projected_chain(
        instance.comp_weights, instance.rel_probs, instance.densities, K
    )
    return _judged(
        "tempering-decomposition", instance.hash(), C, _safe_poincare(proj),
        poincare_constant(joint),
        lambda cb: max(C * (1.0 + (0.5 + 6.0 * K) * cb), 6.0 * K * cb / lam),
        tol, worst,
        {
            "levels": int(L),
            "components": int(m),
            "positions": int(n),
            "swap_rate": float(lam),
            "swap_strength": float(K),
        },
    )


def random_simple_instance(rng: np.random.Generator) -> SimpleInstance:
    """Random mixture of 1 to 3 discretized Gaussians on a shared grid."""
    n = int(rng.integers(24, 65))
    m = int(rng.integers(1, 4))
    grid = np.linspace(-6.0, 6.0, n)
    centers = rng.uniform(-2.0, 2.0, m)
    sigmas = rng.uniform(0.6, 1.5, m)
    w = rng.uniform(0.1, 1.0, m)
    w = w / w.sum()
    logmass = -0.5 * ((grid[None, :] - centers[:, None]) / sigmas[:, None]) ** 2
    return SimpleInstance(grid=grid, weights=w, densities=_softmax(logmass))


def random_tempering_instance(
    rng: np.random.Generator,
    strength_choices: Sequence[float] = (1.0,),
) -> TemperingInstance:
    """Random 3-level tempering ladder over a shared pair of bumps.

    The vertical-rate constant is drawn uniformly from strength_choices.
    """
    n = int(rng.integers(48, 65))
    L = 3
    m = 2
    grid = np.linspace(-6.0, 6.0, n)
    beta1 = float(rng.uniform(0.05, 0.3))
    betas = np.array([beta1, math.sqrt(beta1), 1.0])
    centers = rng.uniform(-2.5, 2.5, m)
    sigmas = rng.uniform(0.6, 1.2, m)
    logmass = -betas[:, None, None] * 0.5 * (
        (grid[None, None, :] - centers[None, :, None]) / sigmas[None, :, None]) ** 2
    cw = rng.uniform(0.1, 1.0, (L, m))
    cw = cw / cw.sum(axis=1, keepdims=True)
    rel = np.full(L, 1.0 / L)
    lam = float(rng.uniform(0.5, 2.0))
    return TemperingInstance(
        grid=grid,
        betas=betas,
        rel_probs=rel,
        comp_weights=cw,
        densities=_softmax(logmass),
        swap_rate=lam,
        swap_strength=float(rng.choice(np.asarray(strength_choices, dtype=float))),
    )
