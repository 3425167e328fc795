"""Temperature ladders and run-parameter schedules.

A ladder is a finite sequence of inverse temperatures 0 < beta_1 < ... <
beta_L = 1, all levels equally likely, with (running) partition estimates.
The builders derive the whole schedule (ladder geometry, swap rate, chain
length, step size, initial spread) from a handful of problem parameters:
dimension, center spread D, base-function scale, minimum weight, and target
accuracy.  The two builders share one validation and one RunParams assembly.

Schedules here scale correctly but are conservative; ScheduleConstants holds
the tunable leading constants, and the wmin exponent on the chain length is
itself a knob (default 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
    """Leading constants of the schedule formulas; all tunable.

    c_beta1   multiplies the coldest inverse temperature.
    c_rate    multiplies the level-swap rate.
    c_time    multiplies the total chain time.
    c_step    multiplies the discretization step.
    c_samples multiplies the per-stage sample count.
    wmin_exponent is the power on 1/w_min in the chain-time formula; tunable
    because the safe default (4) is badly pessimistic for most targets.
    """

    c_beta1: float = 1.0
    c_rate: float = 1.0
    c_time: float = 10.0
    c_step: float = 0.1
    c_samples: float = 1.0
    wmin_exponent: float = 4.0

    def __post_init__(self):
        for name in ("c_beta1", "c_rate", "c_time", "c_step", "c_samples"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.wmin_exponent >= 0:
            raise ValueError("wmin_exponent must be >= 0")


@dataclass(frozen=True)
class TemperatureLadder:
    """Inverse temperatures with partition estimates; levels are equally likely.

    betas strictly increase and end at 1 unless the ladder is an explicit
    prefix of a longer one (partial=True), in which case the endpoint check
    is skipped: stage runs over the first few levels are the normal use.
    """

    betas: np.ndarray
    partition_estimates: np.ndarray
    partial: bool = False

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        z = np.asarray(self.partition_estimates, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("betas must be a non-empty 1-d array")
        if not (np.all(b > 0) and b[-1] <= 1.0 + 1e-12):
            raise ValueError("need 0 < beta_i <= 1")
        if not np.all(np.diff(b) > 0):
            raise ValueError("betas must strictly increase")
        if not self.partial and abs(b[-1] - 1.0) > 1e-12:
            raise ValueError("the coldest level must have beta = 1")
        if z.shape != b.shape or np.any(z <= 0) or not np.all(np.isfinite(z)):
            raise ValueError("partition_estimates must be positive and finite")
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "partition_estimates", z)

    @property
    def num_levels(self) -> int:
        return self.betas.size

    def prefix(self, num: int) -> "TemperatureLadder":
        """First `num` levels; marked partial."""
        if not 1 <= num <= self.num_levels:
            raise ValueError(f"prefix length must be in [1, {self.num_levels}]")
        return TemperatureLadder(
            betas=self.betas[:num].copy(),
            partition_estimates=self.partition_estimates[:num].copy(),
            partial=self.partial or num < self.num_levels,
        )

    def with_partition_estimates(self, zhat) -> "TemperatureLadder":
        return replace(self, partition_estimates=zhat)


@dataclass(frozen=True)
class RunParams:
    """Everything a single tempering run needs besides the ladder."""

    swap_rate: float
    step_size: float
    total_time: float
    init_std: float
    target_accuracy: float
    constants: ScheduleConstants = field(default_factory=ScheduleConstants)
    eta_active: str = ""

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
        raise ValueError(f"beta1 = {beta1:.3g} is below the float range; raise c_beta1")
    k = math.ceil(-math.log(beta1) / math.log(ratio))
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


def _schedule(betas, lam, T, terms, eta_scale, init_std, eps, c):
    """Ladder on `betas` and its RunParams, stepping c_step * eta_scale times
    the smallest of the step terms."""
    ladder = TemperatureLadder(betas=betas, partition_estimates=np.ones(betas.size))
    active = min(terms, key=terms.get)
    params = RunParams(
        swap_rate=lam,
        step_size=c.c_step * eta_scale * terms[active],
        total_time=T,
        init_std=init_std,
        target_accuracy=eps,
        constants=c,
        eta_active=active,
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

    beta1 = min(c.c_beta1 * sigma**2 / D**2, 1.0)
    ratio = 1.0 + 1.0 / (dim + math.log(1.0 / w_min))
    betas = _geometric_ladder(beta1, ratio)
    L = betas.size
    eps = target_accuracy
    T = (
        c.c_time
        * L**2
        * D**2
        * math.log(L / (eps * w_min))
        / w_min**c.wmin_exponent
    )
    terms = {
        "diffusion": sigma**4 / ((D / sigma + math.sqrt(dim)) * T),
        "spread": 1.0 / math.sqrt(D),
        "drift": sigma * eps / (dim * T),
    }
    return _schedule(betas, c.c_rate / D**2, T, terms, sigma**3 * eps / D**2,
                     sigma / math.sqrt(beta1), eps, c)


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

    beta1 = min(c.c_beta1 * kappa / (dim * K**2 * D**2), 1.0)
    # log(K/kappa) + 1 so the well-conditioned case kappa = K stays sane
    cond = math.log(K / kappa) + 1.0
    ratio = 1.0 + kappa / (K * dim * cond)
    betas = _geometric_ladder(beta1, ratio)
    L = betas.size
    eps = target_accuracy
    T = (
        c.c_time
        * (L**2 * D**2 / w_min**c.wmin_exponent)
        * dim
        * math.log(L / (eps * w_min))
        * cond
    )
    terms = {
        "diffusion": eps / (D**2 * K**3.5 * (D * K / math.sqrt(kappa) + math.sqrt(dim)) * T),
        "spread": eps / (D**2.5 * K**1.5 * (math.sqrt(K / kappa) + 1.0)),
        "drift": eps / (D**2 * K**2 * dim * T),
    }
    return _schedule(betas, c.c_rate / D**2, T, terms, 1.0,
                     1.0 / math.sqrt(kappa * beta1), eps, c)


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
    rel = (ladder.partition_estimates / z_true)
    rel = rel / rel[0]
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
