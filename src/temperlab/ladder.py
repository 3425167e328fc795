"""Temperature ladders and run-parameter schedules.

A ladder is a finite sequence of inverse temperatures 0 < beta_1 < ... <
beta_L = 1, all levels equally likely, with (running) log partition estimates.
The builders derive the whole schedule (ladder geometry, swap rate, chain
length, step size, initial spread) from a handful of problem parameters:
dimension, center spread D, base-function scale, minimum weight, and target
accuracy.  The two builders share one validation and one RunParams assembly.

The schedules' leading constants are literals (1 on beta_1 and the swap
rate, 10 on the chain time with its 1/w_min^4, 0.1 on the step): they scale
correctly but are conservative, and desk-scale runs replace total_time,
step_size and swap_rate of the RunParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

MAX_LEVELS = 10**6  # most levels a ladder may have, far above any affordable schedule

__all__ = [
    "ScheduleConstants",
    "TemperatureLadder",
    "RunParams",
    "PartitionCheck",
    "build_ladder_gaussian",
    "build_ladder_logconcave",
    "validate_partition_estimates",
]


@dataclass(frozen=True)
class ScheduleConstants:
    """The tunable leading constant of the staged driver.

    c_samples multiplies the per-stage sample count,
    ceil(c_samples L^2 log(1/confidence)).
    """

    c_samples: float = 1.0

    def __post_init__(self):
        if not self.c_samples > 0:
            raise ValueError("c_samples must be > 0")


@dataclass(frozen=True)
class TemperatureLadder:
    """Inverse temperatures with log partition estimates; levels are equally likely.

    betas strictly increase and end at 1 unless the ladder is an explicit
    prefix of a longer one (partial=True), in which case the endpoint check
    is skipped: stage runs over the first few levels are the normal use.
    """

    betas: np.ndarray
    log_partition_estimates: np.ndarray
    partial: bool = False

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        log_z = np.asarray(self.log_partition_estimates, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("betas must be a non-empty 1-d array")
        if not (np.all(b > 0) and b[-1] <= 1.0 + 1e-12):
            raise ValueError("need 0 < beta_i <= 1")
        if not np.all(np.diff(b) > 0):
            raise ValueError("betas must strictly increase")
        if not self.partial and abs(b[-1] - 1.0) > 1e-12:
            raise ValueError("the coldest level must have beta = 1")
        if log_z.shape != b.shape or not np.all(np.isfinite(log_z)):
            raise ValueError("log_partition_estimates must be finite, one per level")
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "log_partition_estimates", log_z)

    @property
    def num_levels(self) -> int:
        return self.betas.size

    def prefix(self, num: int) -> "TemperatureLadder":
        """First `num` levels; marked partial."""
        if not 1 <= num <= self.num_levels:
            raise ValueError(f"prefix length must be in [1, {self.num_levels}]")
        return TemperatureLadder(
            betas=self.betas[:num].copy(),
            log_partition_estimates=self.log_partition_estimates[:num].copy(),
            partial=self.partial or num < self.num_levels,
        )

    def with_partition_estimates(self, zhat) -> "TemperatureLadder":
        """This ladder with linear estimates zhat, stored as their logs."""
        z = np.asarray(zhat, dtype=float)
        if np.any(z <= 0) or not np.all(np.isfinite(z)):
            raise ValueError("partition_estimates must be positive and finite")
        return replace(self, log_partition_estimates=np.log(z))


@dataclass(frozen=True)
class RunParams:
    """Everything a single tempering run needs besides the ladder."""

    swap_rate: float
    step_size: float
    total_time: float
    init_std: float
    target_accuracy: float
    constants: ScheduleConstants = field(default_factory=ScheduleConstants)

    def __post_init__(self):
        for name in ("swap_rate", "step_size", "total_time", "init_std"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.step_size > self.total_time:
            raise ValueError("step_size cannot exceed total_time")
        if not 0 < self.target_accuracy < 1:
            raise ValueError("target_accuracy must be in (0, 1)")


def _geometric_ladder(beta1: float, ratio: float) -> np.ndarray:
    """beta1 * ratio^k capped so the last level is exactly 1."""
    if beta1 >= 1.0:
        return np.array([1.0])
    if not beta1 >= np.finfo(float).tiny:  # else ratio^k overflows
        raise OverflowError(f"beta1 = {beta1:.3g} is below the normal float range")
    k = math.ceil(-math.log(beta1) / math.log(ratio))
    if k + 1 > MAX_LEVELS:
        raise OverflowError(f"the ladder would have {k + 1} levels, more than {MAX_LEVELS}")
    betas = beta1 * ratio ** np.arange(k + 1)
    betas[-1] = 1.0
    # capping can collide the last two rungs; drop the duplicate
    if betas.size >= 2 and betas[-2] >= 1.0 - 1e-12:
        betas = np.concatenate([betas[:-2], [1.0]])
    return betas


def _check_common(dim: int, w_min: float, target_accuracy: float) -> None:
    """The validation both builders share; NaN fails every check."""
    if not dim >= 1:
        raise ValueError("dim must be >= 1")
    if not 0 < w_min <= 1:
        raise ValueError("w_min must be in (0, 1]")
    if not 0 < target_accuracy < 1:
        raise ValueError("target_accuracy must be in (0, 1)")


def _schedule(betas, D, T, terms, eta_scale, init_std, eps, c):
    """Ladder on `betas` and its RunParams: swap rate 1 / D^2, and a step of
    0.1 * eta_scale times the smallest of the step terms."""
    ladder = TemperatureLadder(betas=betas, log_partition_estimates=np.zeros(betas.size))
    params = RunParams(
        swap_rate=1.0 / D**2,
        step_size=0.1 * eta_scale * min(terms),
        total_time=T,
        init_std=init_std,
        target_accuracy=eps,
        constants=c,
    )
    return ladder, params


def build_ladder_gaussian(
    dim: int,
    D: float,
    sigma: float,
    w_min: float,
    target_accuracy: float,
    constants: ScheduleConstants | None = None,
) -> tuple[TemperatureLadder, RunParams]:
    """Schedule for mixtures of translated isotropic Gaussians.

    dim    ambient dimension d.
    D      spread bound, max(|mu_j|, sigma); must be >= sigma.
    sigma  base standard deviation.
    w_min  smallest mixture weight.
    """
    c = constants or ScheduleConstants()
    _check_common(dim, w_min, target_accuracy)
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and > 0")
    if not sigma <= D < math.inf:
        raise ValueError(
            f"D must be finite and at least sigma (the scale bound is "
            f"max(center norm, sigma)); got D={D} < sigma={sigma}"
        )

    eps = target_accuracy
    try:
        beta1 = min(sigma**2 / D**2, 1.0)
        ratio = 1.0 + 1.0 / (dim + math.log(1.0 / w_min))
        betas = _geometric_ladder(beta1, ratio)
        L = betas.size
        T = 10.0 * L**2 * D**2 * math.log(L / (eps * w_min)) / w_min**4.0
        # diffusion, spread and drift limits on the step
        terms = (
            sigma**4 / ((D / sigma + math.sqrt(dim)) * T),
            1.0 / math.sqrt(D),
            sigma * eps / (dim * T),
        )
        return _schedule(betas, D, T, terms, sigma**3 * eps / D**2,
                         sigma / math.sqrt(beta1), eps, c)
    except (OverflowError, ZeroDivisionError) as e:
        raise ValueError(
            f"no Gaussian schedule for sigma={sigma}, D={D}, dim={dim}, w_min={w_min}, "
            f"target_accuracy={eps}: {e}"
        ) from None


def build_ladder_logconcave(
    dim: int,
    D: float,
    kappa: float,
    K: float,
    w_min: float,
    target_accuracy: float,
    constants: ScheduleConstants | None = None,
) -> tuple[TemperatureLadder, RunParams]:
    """Schedule for mixtures of a translated strongly-convex base function.

    kappa, K  convexity/smoothness envelope of the base: kappa*I <= H <= K*I.
    D         spread bound; must be >= sqrt(kappa)/(sqrt(dim)*K), the scale
              floor that keeps beta1 meaningful.
    """
    c = constants or ScheduleConstants()
    _check_common(dim, w_min, target_accuracy)
    if not 0 < kappa <= K < math.inf:
        raise ValueError(f"need 0 < kappa <= K < inf; got kappa={kappa}, K={K}")
    floor = math.sqrt(kappa) / (math.sqrt(dim) * K)
    if not floor <= D < math.inf:
        raise ValueError(
            f"D must be finite and at least sqrt(kappa)/(sqrt(dim)*K) = {floor:.6g}; "
            f"got D={D}"
        )

    eps = target_accuracy
    try:
        beta1 = min(kappa / (dim * K**2 * D**2), 1.0)
        # log(K/kappa) + 1 so the well-conditioned case kappa = K stays sane
        cond = math.log(K / kappa) + 1.0
        ratio = 1.0 + kappa / (K * dim * cond)
        betas = _geometric_ladder(beta1, ratio)
        L = betas.size
        T = 10.0 * (L**2 * D**2 / w_min**4.0) * dim * math.log(L / (eps * w_min)) * cond
        # diffusion, spread and drift limits on the step
        terms = (
            eps / (D**2 * K**3.5 * (D * K / math.sqrt(kappa) + math.sqrt(dim)) * T),
            eps / (D**2.5 * K**1.5 * (math.sqrt(K / kappa) + 1.0)),
            eps / (D**2 * K**2 * dim * T),
        )
        return _schedule(betas, D, T, terms, 1.0, 1.0 / math.sqrt(kappa * beta1), eps, c)
    except (OverflowError, ZeroDivisionError) as e:
        raise ValueError(
            f"no log-concave schedule for kappa={kappa}, K={K}, dim={dim}, D={D}, "
            f"w_min={w_min}, target_accuracy={eps}: {e}"
        ) from None


@dataclass(frozen=True)
class PartitionCheck:
    """Per-level drift check of estimates against true partition values."""

    ratios: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ok_per_level: np.ndarray
    worst_ratio: float
    passed: bool


def validate_partition_estimates(
    ladder: TemperatureLadder, true_values: np.ndarray
) -> PartitionCheck:
    """Check (Zhat_i/Z_i)/(Zhat_1/Z_1) in [(1-1/L)^(i-1), (1+1/L)^(i-1)].

    The estimates only need to be right up to one global constant, so level 1
    is the anchor and always passes.  Boundary values count as inside (up to
    1e-12 slack).
    """
    z_true = np.asarray(true_values, dtype=float)
    L = ladder.num_levels
    if z_true.shape != (L,) or np.any(z_true <= 0):
        raise ValueError("need one positive true partition value per level")
    log_rel = ladder.log_partition_estimates - np.log(z_true)
    rel = np.exp(log_rel - log_rel[0])
    i = np.arange(L)
    lo = (1.0 - 1.0 / L) ** i
    hi = (1.0 + 1.0 / L) ** i
    ok = (rel >= lo * (1.0 - 1e-12)) & (rel <= hi * (1.0 + 1e-12))
    worst = float(np.max(np.maximum(rel / hi, lo / np.where(rel > 0, rel, np.inf))))
    return PartitionCheck(
        ratios=rel,
        lo=lo,
        hi=hi,
        ok_per_level=ok,
        worst_ratio=worst,
        passed=bool(ok.all()),
    )
