"""Simulated-tempering Langevin sampling.

One chain state is (level, position).  Between level-move events the position
follows discretized overdamped Langevin dynamics for the tempered density
exp(-beta_i f); events arrive at exponential spacings and propose a move to
an adjacent level, accepted with the ratio of estimated level densities.  A
run that does not end at the target (coldest, beta = 1) level is rerun.

Partition estimates feed the level-move acceptance, and are themselves
produced by the staged driver run_main: estimate on a prefix ladder, extend
the ladder by one level, repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ladder import RunParams, TemperatureLadder
from .oracles import DensityOracle, _logsumexp

__all__ = [
    "MAX_RUN_STEPS",
    "NonFiniteGradient",
    "EstimationFailure",
    "RngStream",
    "RunRecord",
    "SwapStats",
    "StageStats",
    "MainResult",
    "langevin_step",
    "run_plain_langevin",
    "draw_swap_times",
    "swap_attempt",
    "substep_schedule",
    "run_stlmc",
    "estimate_log_partition_ratio",
    "run_main",
]


# Most Langevin steps (or level-move events) one run, or all of staging, may take;
# the default schedule constants ask for 1e11-1e24 steps per staged run on builtins.
MAX_RUN_STEPS = 1e9


class NonFiniteGradient(RuntimeError):
    """A Langevin step left the finite floats, through a non-finite gradient or
    an overflow; carries the last finite position."""

    def __init__(self, position: np.ndarray):
        self.position = np.asarray(position, dtype=float)
        super().__init__(
            f"non-finite gradient or step at position {self.position.tolist()}; "
            "the step size is likely too large for this target"
        )


class EstimationFailure(RuntimeError):
    """Partition estimation could not produce enough accepted runs."""


class RngStream:
    """Thin wrapper over numpy Generator.

    Everything downstream draws through this interface, so tests can inject
    a stub (e.g. zero noise) to make dynamics deterministic.
    """

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self) -> float:
        return float(self._gen.random())

    def exponentials(self, scale: float, size: int) -> np.ndarray:
        return self._gen.exponential(scale, size)


@dataclass
class SwapStats:
    """Counts of level-move proposals by direction."""

    attempts_up: int = 0
    accepts_up: int = 0
    attempts_down: int = 0
    accepts_down: int = 0
    out_of_bounds: int = 0

    @property
    def attempts(self) -> int:
        return self.attempts_up + self.attempts_down + self.out_of_bounds

    @property
    def accepts(self) -> int:
        return self.accepts_up + self.accepts_down


@dataclass
class RunRecord:
    """Thinned trajectory of one tempering run plus bookkeeping.  The last
    row is always the run's final state (level, position)."""

    steps: np.ndarray
    times: np.ndarray
    levels: np.ndarray
    positions: np.ndarray
    num_levels: int
    target_level: int
    accepted: bool
    total_steps: int
    swap_stats: SwapStats

    def level_occupancy(self) -> np.ndarray:
        """Fraction of recorded entries at each level, shape (num_levels,)."""
        counts = np.bincount(self.levels, minlength=self.num_levels + 1)[1:]
        total = counts.sum()
        return counts / total if total else counts.astype(float)

    def positions_at_level(self, level: int) -> np.ndarray:
        return self.positions[self.levels == level]


def langevin_step(
    oracle: DensityOracle,
    beta: float,
    x: np.ndarray,
    eta: float,
    rng: RngStream,
) -> np.ndarray:
    """One Euler step x - eta*beta*grad f(x) + sqrt(2 eta)*xi, xi ~ N(0, I).

    Draws exactly one standard-normal vector per call, in the order steps
    occur, so a caller replaying the stream reproduces positions bit for bit.
    A step that lands on a non-finite position (a non-finite gradient, or an
    overflow) or whose gradient meets an invalid operation (inf - inf in the
    softmax of overflowed energies) raises NonFiniteGradient with x, as the
    runners do.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    x = np.asarray(x, dtype=float)
    try:
        with np.errstate(invalid="raise"):
            g = beta * np.asarray(oracle.grad(x), dtype=float)
    except FloatingPointError:
        raise NonFiniteGradient(x) from None
    x_new = x - eta * g + math.sqrt(2.0 * eta) * rng.normal(x.shape)
    if not np.all(np.isfinite(x_new)):
        raise NonFiniteGradient(x)
    return x_new


_NOISE_BLOCK = 4096  # most noise rows per rng call; bounds memory on long segments


def _langevin_steps(grad, beta, x, m, h, rng, out, step0, thin) -> np.ndarray:
    """Advance x by m Euler steps of size h at inverse temperature beta.

    The position after global step s = step0 + j (j = 1..m) is written to
    out[s // thin] when s is a multiple of thin.  Noise rows come in blocks;
    bitwise the same stream as one draw per step, so a langevin_step replay
    reproduces the trajectory exactly.  A step that lands on a non-finite
    position (a non-finite gradient, or an overflow) or meets an invalid
    operation, under one np.errstate(invalid="raise") per call, raises
    NonFiniteGradient with the last finite position, so every recorded
    position is finite.
    """
    c = math.sqrt(2.0 * h)
    try:
        with np.errstate(invalid="raise"):
            for b in range(0, m, _NOISE_BLOCK):
                noise = rng.normal((min(_NOISE_BLOCK, m - b), x.size))
                for i, xi in enumerate(noise):
                    x_new = x - h * (beta * grad(x)) + c * xi
                    if not np.all(np.isfinite(x_new)):
                        raise NonFiniteGradient(x)
                    x = x_new
                    s = step0 + b + i + 1
                    if s % thin == 0:
                        out[s // thin] = x
    except FloatingPointError:
        raise NonFiniteGradient(x) from None
    return x


def run_plain_langevin(
    oracle: DensityOracle,
    beta: float,
    eta: float,
    num_steps: int,
    x0: np.ndarray,
    rng: RngStream,
    thin: int = 1,
) -> RunRecord:
    """Untempered Langevin baseline for torpid-mixing comparisons.

    Row 0 of the record is x0; rows follow every `thin`-th step and always
    the last one.  Level is 1 throughout (there is no ladder).
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    x = np.array(x0, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    steps = np.arange(0, num_steps + 1, thin, dtype=np.int64)
    if num_steps % thin:
        steps = np.append(steps, num_steps)
    positions = np.empty((steps.size, x.size))
    positions[0] = x
    positions[-1] = _langevin_steps(oracle.grad, beta, x, num_steps, eta, rng, positions, 0, thin)
    return RunRecord(
        steps=steps,
        times=steps * eta,
        levels=np.ones(steps.size, dtype=np.int32),
        positions=positions,
        num_levels=1,
        target_level=1,
        accepted=True,
        total_steps=num_steps,
        swap_stats=SwapStats(),
    )


def draw_swap_times(rng: RngStream, rate: float, total_time: float) -> np.ndarray:
    """Event times of a Poisson process on (0, total_time), strictly inside.

    Drawn in batches of exponential gaps; equivalent in distribution to
    drawing one gap at a time and clipping at the horizon.  A rate expecting
    more than MAX_RUN_STEPS events is refused before the first draw.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if total_time <= 0:
        raise ValueError("total_time must be > 0")
    if rate * total_time > MAX_RUN_STEPS:
        raise ValueError(f"rate {rate:.6g} x total_time {total_time:.6g} > {MAX_RUN_STEPS:.0e}")
    scale = 1.0 / rate
    batch = max(16, int(rate * total_time * 1.5) + 1)
    times = np.array([], dtype=float)
    last = 0.0
    while True:
        gaps = rng.exponentials(scale, batch)
        t = last + np.cumsum(gaps)
        times = np.concatenate([times, t])
        if times[-1] >= total_time:
            break
        last = float(times[-1])
    return times[times < total_time]


def swap_attempt(
    level: int,
    x: np.ndarray,
    ladder: TemperatureLadder,
    oracle: DensityOracle,
    rng: RngStream,
    stats: SwapStats | None = None,
) -> int:
    """Propose a move from `level` (1-based) to an adjacent level at position
    x, accept by estimated density ratio, and return the new level.

    The proposal is i-1 or i+1 with probability 1/2 each; a proposal past
    either end leaves the level unchanged (no retry).  Acceptance odds for
    i -> i' are (exp(-beta_i' f) / zhat_i') / (exp(-beta_i f) / zhat_i),
    computed from the ladder's log estimates.
    """
    i = level
    L = ladder.num_levels
    j = i - 1 if rng.uniform() < 0.5 else i + 1
    if j < 1 or j > L:
        if stats is not None:
            stats.out_of_bounds += 1
        return i
    fx = oracle.value(x)
    log_z = ladder.log_partition_estimates
    log_acc = (ladder.betas[i - 1] - ladder.betas[j - 1]) * fx + log_z[i - 1] - log_z[j - 1]
    u = rng.uniform()
    accept = log_acc >= 0.0 or (u > 0.0 and math.log(u) < log_acc)
    if stats is not None:
        if j < i:
            stats.attempts_down += 1
            stats.accepts_down += int(accept)
        else:
            stats.attempts_up += 1
            stats.accepts_up += int(accept)
    return j if accept else i


def substep_schedule(segment: float, eta: float) -> tuple[int, float]:
    """Split a time segment into equal Langevin steps no longer than eta.

    Returns (m, h) with m = ceil(segment/eta) and h = segment/m, so the
    segment is divided evenly and h <= eta.
    """
    if segment <= 0.0:
        raise ValueError("segment must be positive")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    m = max(1, math.ceil(segment / eta))
    return m, segment / m


def _run_steps_bound(params: RunParams) -> float:
    """Upper bound on the expected Langevin steps of one run_stlmc run: its
    swap_rate * total_time + 1 segments (on average) each take at most one
    step beyond their length over step_size."""
    return params.total_time * (1.0 / params.step_size + params.swap_rate) + 1.0


def run_stlmc(
    oracle: DensityOracle,
    ladder: TemperatureLadder,
    params: RunParams,
    rng: RngStream,
    target_level: int | None = None,
    thin: int = 10,
) -> RunRecord:
    """One simulated-tempering Langevin run over [0, total_time].

    Starts at (level 1, x0 ~ N(0, init_std^2 I)).  Level-move events are
    pre-drawn as a Poisson process; between events the position takes
    ceil(segment/eta) Langevin steps of equal size segment/ceil(segment/eta),
    the largest step below eta that divides the segment evenly.  The record
    keeps every `thin`-th step plus the state right after each level move,
    and `accepted` says whether the run ended at the target level.
    """
    if thin < 1:
        raise ValueError("thin must be >= 1")
    L = ladder.num_levels
    target = L if target_level is None else int(target_level)
    if not 1 <= target <= L:
        raise ValueError("target_level out of range")

    x = params.init_std * rng.normal(oracle.dim)
    level = 1
    stats = SwapStats()
    events = draw_swap_times(rng, params.swap_rate, params.total_time)
    bounds = np.concatenate([[0.0], events, [params.total_time]])
    plan = [substep_schedule(seg, params.step_size) if seg > 0 else (0, 0.0)
            for seg in np.diff(bounds)]
    ms, hs = (np.array(col) for col in zip(*plan))
    ends = np.cumsum(ms)  # the global step index at the end of each segment
    # rows: the start, every thin-th step, the state after each level move, the
    # end; after k level moves the state at global step s is row k + s // thin
    rows = 2 + events.size + int(ends[-1]) // thin
    positions = np.empty((rows, oracle.dim), dtype=np.float64)
    positions[0] = x
    seg_levels = np.empty(events.size + 2, dtype=np.int32)  # each segment's, then the last

    step = 0
    for k, (m, h) in enumerate(plan):
        seg_levels[k] = level
        if m:
            beta = float(ladder.betas[level - 1])
            x = _langevin_steps(oracle.grad, beta, x, m, h, rng, positions[k:], step, thin)
            step += m
        if k < events.size:
            level = swap_attempt(level, x, ladder, oracle, rng, stats)
        positions[k + 1 + step // thin] = x  # after level move k + 1, or the end
    seg_levels[-1] = level

    # row 0 is the start: step 0, time 0, level 1
    steps = np.zeros(rows, dtype=np.int64)
    times = np.zeros(rows, dtype=np.float64)
    levels = np.ones(rows, dtype=np.int32)
    s = np.arange(thin, step + 1, thin)
    k = np.searchsorted(ends, s)  # the segment of each thinned step
    r = k + s // thin
    steps[r], times[r], levels[r] = s, bounds[k] + (s - (ends - ms)[k]) * hs[k], seg_levels[k]
    r = np.arange(ends.size) + 1 + ends // thin
    steps[r], times[r], levels[r] = ends, bounds[1:], seg_levels[1:]

    return RunRecord(
        steps=steps,
        times=times,
        levels=levels,
        positions=positions,
        num_levels=L,
        target_level=target,
        accepted=level == target,
        total_steps=step,
        swap_stats=stats,
    )


def estimate_log_partition_ratio(
    samples: np.ndarray,
    oracle: DensityOracle,
    beta_lo: float,
    beta_hi: float,
) -> float:
    """log of the Monte Carlo mean of exp((beta_lo - beta_hi) f(x)) over the samples.

    Estimates log(Z_hi / Z_lo) from samples of the beta_lo level.  Requires
    beta_hi >= beta_lo; equal temperatures give exactly 0.0.
    """
    if beta_hi < beta_lo:
        raise ValueError("beta_hi must be >= beta_lo")
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[0] == 0:
        raise ValueError("need at least one sample")
    fvals = np.array([oracle.value(x) for x in X])
    return _logsumexp((beta_lo - beta_hi) * fvals) - math.log(X.shape[0])


# run_main's default failure probability for the kept-run count of a stage.
CONFIDENCE = 0.05


def _samples_per_stage(params: RunParams, num_levels: int, confidence: float = CONFIDENCE) -> int:
    """Accepted runs run_main keeps at each stage before the last:
    ceil(c_samples L^2 log(1/confidence)), at least one."""
    return max(
        1, math.ceil(params.constants.c_samples * num_levels**2 * math.log(1.0 / confidence))
    )


@dataclass
class StageStats:
    """Bookkeeping for one prefix stage of the staged driver."""

    num_levels: int
    samples_kept: int
    runs_attempted: int
    runs_accepted: int
    log_ratio: float | None


@dataclass
class MainResult:
    samples: np.ndarray
    log_zhat: np.ndarray
    stage_stats: list = field(default_factory=list)

    @property
    def zhat(self) -> np.ndarray:
        return np.exp(self.log_zhat)


# A stage whose rejection rate is above this after its attempt floor aborts.
REJECTION_CEILING = 0.999


def run_main(
    oracle: DensityOracle,
    ladder: TemperatureLadder,
    params: RunParams,
    rng: RngStream,
    confidence: float = CONFIDENCE,
    num_final_samples: int = 1,
) -> MainResult:
    """Staged driver: estimate partition ratios level by level, then sample.

    Stage ell runs the tempering chain on the first ell levels.  Runs ending
    away from level ell are discarded and redrawn.  For ell < L the accepted
    endpoints feed the ratio estimate log zhat_{ell+1} = log r + log zhat_ell; the final
    stage collects num_final_samples endpoints at beta = 1 and returns them.

    Aborts with EstimationFailure if a stage's rejection rate stays above
    REJECTION_CEILING after a generous number of attempts; that signals the
    partition estimates (and hence level mixing) have gone wrong.
    """
    L = ladder.num_levels
    log_zhat = np.zeros(L)
    n_per_stage = _samples_per_stage(params, L, confidence)
    stages: list[StageStats] = []
    samples = None

    for ell in range(1, L + 1):
        sub = replace(ladder.prefix(ell), log_partition_estimates=log_zhat[:ell])
        need = num_final_samples if ell == L else n_per_stage
        got: list[np.ndarray] = []
        attempts = 0
        accepted = 0
        attempt_floor = max(100, 2 * need)
        while len(got) < need:
            rec = run_stlmc(oracle, sub, params, rng)
            attempts += 1
            if rec.accepted:
                accepted += 1
                got.append(rec.positions[-1].copy())  # lets the record be freed
            if attempts >= attempt_floor:
                rej = 1.0 - accepted / attempts
                if rej > REJECTION_CEILING:
                    raise EstimationFailure(
                        f"stage {ell}/{L}: {accepted}/{attempts} runs reached "
                        f"level {ell} (rejection rate {rej:.4f} > "
                        f"{REJECTION_CEILING}); log partition estimates so far: "
                        f"{log_zhat[:ell].tolist()}"
                    )
        X = np.asarray(got)
        if ell < L:
            log_r = estimate_log_partition_ratio(
                X, oracle, float(sub.betas[ell - 1]), float(ladder.betas[ell])
            )
            if not math.isfinite(log_r):
                raise EstimationFailure(
                    f"stage {ell}/{L}: log partition ratio estimate is {log_r!r}; "
                    f"the sampled potentials are not finite"
                )
            log_zhat[ell] = log_zhat[ell - 1] + log_r
            stages.append(StageStats(ell, len(got), attempts, accepted, log_r))
        else:
            samples = X
            stages.append(StageStats(ell, len(got), attempts, accepted, None))

    return MainResult(samples=samples, log_zhat=log_zhat, stage_stats=stages)
