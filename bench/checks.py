"""Output checks for the benchmark workloads.

Each check returns an `Outcome` for one operation:

* `failed` - the operation's result is wrong or the library reported a
  failure for it (a staged estimate outside its envelope, a chain stuck in
  one mode, a bound report with passed=False).  Counted in `failed`.
* `consistent` - the output is well formed and any verdict the library
  printed agrees with the numbers it printed.  A `False` here means the
  benchmark cannot trust the output at all, and the run reports
  `correct: false`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Long-chain bounds, sized for a 4000-time-unit run on two-mode-symmetric
# (about 202k steps, 16k-32k samples at beta = 1).  At that length the chain
# crosses between modes only some 4-30 times, so one mode's mass is far from
# 0.5: over 36 run_stlmc seeds the minority mass was 0.28-0.50 in all but one
# run (0.142, TV 0.360), and TV was 0.03-0.23 in the others; over 80 more it
# was 0.112-0.50 and TV at most 0.388.  A chain trapped in one mode has
# minority mass 0 and TV near 0.5.  Acceptance criterion 07 uses
# [0.40, 0.60] and TV < 0.10 for a run ten times longer.
LONG_CHAIN_MIN_MASS = 0.05
LONG_CHAIN_MAX_TV = 0.45
LONG_CHAIN_MIN_SAMPLES = 10_000
# The plain-Langevin baseline must stay trapped, as in acceptance criterion 07,
# which asks for minority mass <= 0.01.  At this length a correct baseline
# escapes its start mode now and then: the Kramers rate over the barrier is
# about sqrt(24)/(2 pi) exp(-11.8) = 6e-6 per time unit, so about 2% of
# 4000-unit runs escape once (2 of 80 seeded runs did, with minority mass
# 0.24 and 0.47 and one crossing each), and an escaped chain's minority mass
# is its escape time's share of the run.
# Crossing back has the same small odds, so the baseline fails when it holds
# more than 0.01 in the other mode AND crossed the barrier at least twice:
# a chain that mixes crosses many times.
BASELINE_MAX_MINORITY = 0.01
BASELINE_MAX_CROSSINGS = 1


@dataclass
class Outcome:
    failed: bool = False
    consistent: bool = True
    reasons: list = field(default_factory=list)

    def fail(self, why: str) -> "Outcome":
        self.failed = True
        self.reasons.append(why)
        return self

    def inconsistent(self, why: str) -> "Outcome":
        self.consistent = False
        self.reasons.append(why)
        return self


# ---------------------------------------------------------------------------
# staging


def check_staging(zhat, z_true, validate) -> Outcome:
    """One run_main result against quadrature truth.

    `validate(zhat, z_true)` is the library's validate_partition_estimates
    bound to the ladder; it is only called with finite positive estimates.
    """
    out = Outcome()
    z = np.asarray(zhat, dtype=float)
    if z.shape != np.shape(z_true):
        return out.inconsistent(f"zhat has shape {z.shape}, ladder has {np.shape(z_true)}")
    if not (np.all(np.isfinite(z)) and np.all(z > 0)):
        return out.fail(f"zhat not finite and positive: {z.tolist()}")
    check = validate(z, z_true)
    if not check.passed:
        out.fail(f"zhat outside the (1 +- 1/L)^i envelope, worst ratio {check.worst_ratio:.4g}")
    return out


def check_stage_stats(stage_stats, num_levels: int, need: int) -> Outcome:
    out = Outcome()
    if len(stage_stats) != num_levels:
        return out.inconsistent(f"{len(stage_stats)} stages for {num_levels} levels")
    for s in stage_stats[:-1]:
        if s.runs_accepted < need or s.runs_accepted > s.runs_attempted:
            out.inconsistent(
                f"stage {s.num_levels}: {s.runs_accepted}/{s.runs_attempted} kept, need {need}"
            )
    return out


# ---------------------------------------------------------------------------
# long chain


def check_tempering_run(masses, tv: float, num_samples: int) -> Outcome:
    out = Outcome()
    m = np.asarray(masses, dtype=float)
    if not (np.all(np.isfinite(m)) and abs(float(m.sum()) - 1.0) < 1e-9):
        return out.inconsistent(f"mode masses {m.tolist()} do not sum to 1")
    if num_samples < LONG_CHAIN_MIN_SAMPLES:
        out.fail(f"{num_samples} samples at beta = 1 < {LONG_CHAIN_MIN_SAMPLES}")
    if float(m.min()) < LONG_CHAIN_MIN_MASS:
        out.fail(f"mode masses {np.round(m, 4).tolist()}: minority < {LONG_CHAIN_MIN_MASS}")
    if not tv <= LONG_CHAIN_MAX_TV:
        out.fail(f"tv {tv:.4f} > {LONG_CHAIN_MAX_TV}")
    return out


def check_baseline_run(masses, crossings: int) -> Outcome:
    out = Outcome()
    m = np.asarray(masses, dtype=float)
    if not (np.all(np.isfinite(m)) and abs(float(m.sum()) - 1.0) < 1e-9):
        return out.inconsistent(f"mode masses {m.tolist()} do not sum to 1")
    if float(m.min()) > BASELINE_MAX_MINORITY and crossings > BASELINE_MAX_CROSSINGS:
        out.fail(f"baseline mixes: masses {np.round(m, 4).tolist()}, "
                 f"{crossings} barrier crossings")
    return out


def barrier_crossings(samples, centers) -> int:
    """How often a trajectory moves from one mode to another.

    A sample belongs to a mode only within a quarter of the closest center
    separation of that mode's center, so a chain hovering at the barrier
    does not count as crossing it again and again.
    """
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    c = np.asarray(centers, dtype=float)
    d = np.sqrt(np.sum((x[:, None, :] - c[None, :, :]) ** 2, axis=2))
    gaps = np.sqrt(np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=2))
    np.fill_diagonal(gaps, np.inf)
    near = np.argmin(d, axis=1)[np.min(d, axis=1) < gaps.min() / 4.0]
    return int(np.count_nonzero(near[1:] != near[:-1]))


def check_record(rec, expected_steps: int | None = None) -> Outcome:
    """Bookkeeping of one RunRecord: step counter, last row, finite positions."""
    out = Outcome()
    if expected_steps is not None and rec.total_steps != expected_steps:
        out.inconsistent(f"{rec.total_steps} steps, asked for {expected_steps}")
    if rec.steps.size == 0 or int(rec.steps[-1]) != rec.total_steps:
        out.inconsistent("last recorded step disagrees with total_steps")
    if not np.all(np.isfinite(rec.positions)):
        out.inconsistent("non-finite positions in the record")
    return out


# ---------------------------------------------------------------------------
# lab


def check_decomposition_report(rep: dict, tol: float) -> Outcome:
    """A bound report: passed must equal slack >= 0, slack must match its parts.

    Numbers go through float() because the CLI writes non-finite floats as
    text ("inf", "nan").
    """
    out = Outcome()
    try:
        bound, c_star, slack = float(rep["bound"]), float(rep["C_star"]), float(rep["slack"])
        passed = rep["passed"]
    except (KeyError, TypeError, ValueError) as e:
        return out.inconsistent(f"malformed report: {e!r}")
    if math.isfinite(bound):
        expect = bound * (1.0 + tol) - c_star
        if not math.isclose(slack, expect, rel_tol=1e-9, abs_tol=1e-9 * max(1.0, abs(bound))):
            out.inconsistent(f"slack {slack!r} != bound*(1+tol) - C* = {expect!r}")
    elif slack != math.inf:
        out.inconsistent(f"infinite bound with slack {slack!r}")
    if passed is not (slack >= 0.0):
        out.inconsistent(f"passed={passed!r} but slack={slack!r}")
    if passed is not True:
        out.fail(f"{rep.get('theorem')} {rep.get('instance_hash')}: C*={c_star:.6g} > bound={bound:.6g}")
    return out


def check_divergence_report(rep: dict) -> Outcome:
    """A divergence check: passed must follow from its own numbers."""
    out = Outcome()
    try:
        name = rep["check"]
        passed = rep["passed"]
        if name == "chi2-closed-vs-quadrature":
            expect = bool(rep["forced_ok"]) and float(rep["worst_rel_err"]) <= float(rep["tolerance"])
        else:
            expect = int(rep["violations"]) == 0
    except (KeyError, TypeError, ValueError) as e:
        return out.inconsistent(f"malformed check: {e!r}")
    if passed is not expect:
        out.inconsistent(f"{name}: passed={passed!r} disagrees with its numbers")
    if passed is not True:
        out.fail(f"{name} failed: {_failure_detail(rep)}")
    return out


def _failure_detail(rep: dict) -> str:
    if rep.get("check") == "chi2-closed-vs-quadrature":
        bad = [c for c in rep.get("cases", []) if not float(c["rel_err"]) <= float(rep["tolerance"])]
        return "; ".join(
            f"d={c['dim']} closed={c['closed']} quadrature={c['numeric']}" for c in bad[:3]
        ) or f"forced_ok={rep.get('forced_ok')}"
    return f"violations={rep.get('violations')} worst_margin={rep.get('worst_margin')}"


def check_exit_code(code: int, outcomes: list) -> Outcome:
    """The CLI exits 0 iff every report it wrote passed, else 1."""
    out = Outcome()
    expect = 1 if any(o.failed for o in outcomes) else 0
    if code != expect:
        out.inconsistent(f"exit code {code}, reports imply {expect}")
    return out


def check_manifest(manifest: dict, read_bytes, sha256) -> Outcome:
    """Every listed artifact exists with the recorded size and hash."""
    out = Outcome()
    for e in manifest.get("files", []):
        try:
            data = read_bytes(e["path"])
        except OSError as err:
            out.inconsistent(f"manifest lists missing file {e['path']}: {err}")
            continue
        if len(data) != e["bytes"] or sha256(data) != e["sha256"]:
            out.inconsistent(f"{e['path']}: size or hash differs from the manifest")
    if not manifest.get("files"):
        out.inconsistent("manifest lists no files")
    return out
