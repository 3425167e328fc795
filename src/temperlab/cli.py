"""Command-line driver.

Four modes, all reading one JSON config validated against a strict schema:

  sample                stage the partition estimates, run a long tempering
                        chain, write samples plus run metadata
  verify-decomposition  random finite instances of the decomposition bounds
  verify-divergences    closed-form vs quadrature divergences and the
                        analytic sandwich/envelope checks
  baseline-compare      tempering vs plain Langevin at an equal gradient
                        budget on a multimodal target

Exit codes: 0 all checks passed, 1 a check failed (the failing report path
is printed), 2 usage or config/schema errors, non-finite config numbers,
fixtures and schedules the library cannot build from the config's values,
and failed sampling runs (a stage that keeps too few runs, a step that
overflows, a long run with no coldest-level sample).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np

from . import divergences as dv
from .decomposition import (
    random_simple_instance,
    random_tempering_instance,
    verify_simple_decomposition,
    verify_tempering_decomposition,
)
from .diagnostics import empirical_tv, integrated_autocorr, mode_masses, modes_separated
from .divergences import _jsonable
from .fixtures import (
    Fixture,
    FixtureError,
    _validate,
    fixture_summaries,
    get_fixture,
    target_from_dict,
)
from .ladder import RunParams, ScheduleConstants, build_ladder_gaussian, build_ladder_logconcave
from .sampler import (MAX_RUN_STEPS, EstimationFailure, NonFiniteGradient, RngStream,
                      _run_steps_bound, _samples_per_stage, run_main, run_plain_langevin,
                      run_stlmc)

__all__ = ["main"]


class ConfigError(ValueError):
    """Config is schema-valid but semantically unusable for this mode."""


def _reject_constant(token: str):
    """json.load hook for NaN, Infinity and -Infinity, which JSON lacks."""
    raise ConfigError(f"{token} is not a JSON number; config numbers must be finite")


def _finite_float(token: str) -> float:
    """json.load hook for decimals: one that overflows, such as 1e400, is refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"{token} overflows a float; config numbers must be finite")
    return value


def _load_config(path: str, seed: int | None) -> dict:
    """The config at `path`, with `seed` (when given) in place of its seed,
    validated after the replacement so the schema checks the override too."""
    with open(path) as fh:
        doc = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    _validate(doc, "config.schema.json")
    return doc


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """One line per row: floats with %.17g, which reads back exactly, the rest with str()."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_manifest(out_dir: Path, mode: str, config: dict, files: list) -> Path:
    entries = []
    for name in sorted(files):
        data = (out_dir / name).read_bytes()
        entries.append(
            {
                "path": name,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
        )
    digest_src = json.dumps(
        [[e["path"], e["sha256"]] for e in entries], sort_keys=True
    ).encode()
    manifest = {
        "version": 1,
        "mode": mode,
        "config": _jsonable(config),
        "files": entries,
        "digest": hashlib.sha256(digest_src).hexdigest(),
        # informational only; the digest above ignores it on purpose
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def _fixture_from_config(config: dict) -> Fixture:
    doc = config.get("fixture")
    if doc is None:
        raise ConfigError("this mode needs a 'fixture' entry in the config")
    if isinstance(doc, str):
        try:
            return get_fixture(doc)
        except FixtureError as e:
            raise ConfigError(str(e)) from None
    try:
        target = target_from_dict(doc)
    except jsonschema.ValidationError as e:
        where = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"fixture/{where}: {e.message}") from None
    except (ValueError, ArithmeticError) as e:
        raise ConfigError(f"fixture: {type(e).__name__}: {e}") from None
    return Fixture.from_target(
        target, doc.get("name", "inline"), doc.get("description", "inline fixture")
    )


def _run_params(params: RunParams, run: str, time_key: str, **changes) -> RunParams:
    """params with `changes`, refused before sampling unless the run takes at
    least one Langevin step and, by the sampler's bound, at most MAX_RUN_STEPS
    expected steps.  time_key names the config setting that sets the run's
    total time."""
    step_size = changes.get("step_size", params.step_size)
    total_time = changes.get("total_time", params.total_time)
    if step_size > total_time:
        raise ConfigError(
            f"{run} is shorter than one Langevin step (total time {total_time:.6g} < "
            f"step size {step_size:.6g}); lower overrides.step_size or raise {time_key}"
        )
    params = replace(params, **changes)
    steps = _run_steps_bound(params)
    if steps > MAX_RUN_STEPS:
        raise ConfigError(
            f"{run} may take {steps:.3g} Langevin steps (total time {total_time:.6g} x "
            f"(1 / step size {step_size:.6g} + swap rate {params.swap_rate:.6g}) + 1), more "
            f"than {MAX_RUN_STEPS:.0e}; raise overrides.step_size, or lower "
            f"overrides.swap_rate or {time_key}"
        )
    return params


def _ladder_for(fixture: Fixture, config: dict):
    base = fixture.target.base if fixture.target is not None else None
    try:
        common = dict(w_min=fixture.w_min, target_accuracy=0.1,
                      constants=ScheduleConstants(**config.get("schedule", {})))
        if base is not None and not base.isotropic:
            ladder, params = build_ladder_logconcave(
                fixture.dim, D=fixture.D, kappa=base.kappa, K=base.K, **common
            )
        else:
            # builtins without a mixture target (adversarial, perturbed) fall back to sigma = 1
            sigma = base.sigma if base is not None else 1.0
            ladder, params = build_ladder_gaussian(
                fixture.dim, D=fixture.D, sigma=sigma, **common
            )
    except ValueError as e:
        raise ConfigError(
            f"no schedule for fixture {fixture.name!r} ({e}); change the fixture"
        ) from None
    # the schema limits overrides to swap_rate, step_size and total_time
    return ladder, _run_params(params, "a staged run", "overrides.total_time",
                               **config.get("overrides", {}))


def _staged_long_run(fixture: Fixture, config: dict, section: str, thin: int):
    """Stage the partition estimates, then run one long tempering chain with
    the config `section`'s main_time, after checking every run length and the
    least work of staging.  Returns (ladder, long_params, staged, rec, rng,
    samples), where samples are the long run's coldest-level positions; a long
    run that records none is refused."""
    ladder, params = _ladder_for(fixture, config)
    cfg = config.get(section, {})
    main_time = cfg.get("main_time", params.total_time)
    long_params = _run_params(params, "the long run", f"{section}.main_time",
                              total_time=main_time)
    L = ladder.num_levels
    need = _samples_per_stage(params, L)
    steps = _run_steps_bound(params)
    if steps * ((L - 1) * need + 1) > MAX_RUN_STEPS:
        raise ConfigError(
            f"staging may take {steps * ((L - 1) * need + 1):.3g} Langevin steps "
            f"({L - 1} stages of at least {need} kept runs of up to {steps:.3g} steps, plus the "
            f"final run), more than {MAX_RUN_STEPS:.0e}; lower schedule.c_samples, raise "
            f"overrides.step_size, or lower overrides.swap_rate or overrides.total_time"
        )
    rng = RngStream(config["seed"])
    staged = run_main(fixture.oracle, ladder, params, rng, num_final_samples=1)
    full = replace(ladder, log_partition_estimates=staged.log_zhat)
    rec = run_stlmc(fixture.oracle, full, long_params, rng, thin=thin)
    samples = rec.positions_at_level(L)
    if samples.shape[0] == 0:
        raise ConfigError(f"the long run ({long_params.total_time:.6g} time units) recorded no "
                          f"sample at the coldest level; raise {section}.main_time")
    return ladder, long_params, staged, rec, rng, samples


def _graded(samples: np.ndarray, target) -> dict:
    """num_samples, plus for a 1-d mixture target the binned `tv` and, when
    its modes are separated, `mode_masses`."""
    graded = {"num_samples": int(samples.shape[0])}
    if target is not None and target.dim == 1:
        graded["tv"] = empirical_tv(samples, target)[0]
        if target.m >= 2 and modes_separated(target):
            graded["mode_masses"] = mode_masses(samples, target)
    return graded


# ---------------------------------------------------------------------------
# sample


def _mode_sample(config: dict, out_dir: Path) -> bool:
    fixture = _fixture_from_config(config)
    thin = config.get("sample", {}).get("thin", 10)
    ladder, long_params, staged, rec, _, samples = _staged_long_run(
        fixture, config, "sample", thin)

    _write_csv(out_dir / "samples.csv", [f"x{i}" for i in range(samples.shape[1])], samples)
    run_doc = {
        "mode": "sample",
        "seed": config["seed"],
        "fixture": fixture.name,
        "betas": ladder.betas,
        "log_zhat": staged.log_zhat,
        "params": {
            "swap_rate": long_params.swap_rate,
            "step_size": long_params.step_size,
            "total_time": long_params.total_time,
            "init_std": long_params.init_std,
            "target_accuracy": long_params.target_accuracy,
        },
        "stages": [
            {
                "levels": s.num_levels,
                "samples_kept": s.samples_kept,
                "runs_attempted": s.runs_attempted,
                "runs_accepted": s.runs_accepted,
                "log_ratio": s.log_ratio,
            }
            for s in staged.stage_stats
        ],
    }
    _write_json(out_dir / "run.json", run_doc)

    metrics = {
        **_graded(samples, fixture.target),
        "total_steps": rec.total_steps,
        "level_occupancy": rec.level_occupancy(),
        "swap": {
            "attempts": rec.swap_stats.attempts,
            "accepts": rec.swap_stats.accepts,
            "out_of_bounds": rec.swap_stats.out_of_bounds,
        },
    }
    if samples.shape[0] >= 4:
        ac = integrated_autocorr(samples[:, 0])
        metrics["autocorr"] = {
            "tau_int": ac.tau_int,
            "ess": ac.ess,
            "lag": ac.lag,
            "degenerate": ac.degenerate,
        }
    _write_json(out_dir / "metrics.json", metrics)
    _write_manifest(out_dir, "sample", config, ["samples.csv", "run.json", "metrics.json"])
    print(f"wrote {out_dir}/samples.csv ({samples.shape[0]} samples)")
    return True


# ---------------------------------------------------------------------------
# verify-decomposition


def _verify_worker(args):
    kind, seed_seq, tol = args
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    if kind == "simple":
        inst = random_simple_instance(rng)
        return [r.to_dict() for r in verify_simple_decomposition(inst, tol=tol)]
    inst = random_tempering_instance(rng)
    return [verify_tempering_decomposition(inst, tol=tol).to_dict()]


def _mode_verify_decomposition(config: dict, out_dir: Path, jobs: int) -> bool:
    v = config.get("verify", {})
    ns = v.get("num_simple", 20)
    nt = v.get("num_tempering", 10)
    tol = v.get("bound_tolerance", 1e-6)
    children = np.random.SeedSequence(config["seed"]).spawn(ns + nt)
    args = [("simple" if i < ns else "tempering", s, tol) for i, s in enumerate(children)]

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            out = list(pool.map(_verify_worker, args))
    else:
        out = [_verify_worker(a) for a in args]
    rows = [r for reports in out for r in reports]

    _write_json(out_dir / "decomposition_report.json", rows)
    csv_path = out_dir / "decomposition_summary.csv"
    cols = ["theorem", "instance_hash", "C", "C_bar", "C_star", "bound", "slack", "passed"]
    _write_csv(csv_path, cols, ([r[c] for c in cols] for r in rows))
    _write_manifest(out_dir, "verify-decomposition", config,
                    ["decomposition_report.json", "decomposition_summary.csv"])

    failed = [r for r in rows if not r["passed"]]
    print(
        f"decomposition: {len(rows) - len(failed)}/{len(rows)} bounds hold "
        f"({ns} simple + {nt} tempering instances)"
    )
    if failed:
        print(f"FAIL: see {csv_path}")
        return False
    return True


# ---------------------------------------------------------------------------
# verify-divergences


def _gaussian_log_density(mean, sigma):
    """log N(x; mean, diag(sigma^2)) on points shaped (N,) or (N, d)."""
    mean, sigma = np.atleast_1d(mean, sigma)
    lognorm = np.sum(np.log(sigma)) + 0.5 * mean.size * math.log(2.0 * math.pi)

    def log_density(x):
        z = (np.asarray(x, dtype=float).reshape(-1, mean.size) - mean) / sigma
        return -0.5 * np.sum(z**2, axis=1) - lognorm

    return log_density


def _gaussian_pair_cases(rng: np.random.Generator, count: int) -> dict:
    """Closed-form Gaussian chi-squared against quadrature, `count` pairs."""
    rel_tol = 1e-5
    worst = 0.0
    cases = []
    # pinned reference pair first: chi^2(N(1,1) || N(0,1)) = e - 1
    forced = dv.chi2_gaussian([1.0], [[1.0]], [0.0], [[1.0]])
    expected = math.e - 1.0
    forced_ok = abs(forced - expected) <= 1e-12 * expected
    for k in range(count):
        d = 1 if k % 3 else 2
        mq = rng.uniform(-3.0, 3.0, d)
        mp = rng.uniform(-3.0, 3.0, d)
        sp = rng.uniform(0.7, 1.4, d)
        sq = sp * rng.uniform(0.8, 1.25, d)
        closed = dv.chi2_gaussian(mq, np.diag(sq**2), mp, np.diag(sp**2))
        # cover the pair and the q^2/p product Gaussian
        a = 2.0 / sq**2 - 1.0 / sp**2
        b = 2.0 * mq / sq**2 - mp / sp**2
        means = np.vstack([mq, mp, b / a])
        spreads = np.concatenate([[float(sq.max())], [float(sp.max())], [float((1.0 / np.sqrt(a)).max())]])
        grid = dv.QuadratureGrid.for_gaussians(
            means, spreads, nodes_per_axis=640 if d == 1 else 192
        )
        log_q, log_p = _gaussian_log_density(mq, sq), _gaussian_log_density(mp, sp)
        numeric = dv.chi2_numeric(log_q, log_p, grid)
        rel = abs(numeric - closed) / max(closed, 1e-12)
        worst = max(worst, rel)
        cases.append({"dim": d, "closed": closed, "numeric": numeric, "rel_err": rel})
    passed = forced_ok and worst <= rel_tol
    return {
        "check": "chi2-closed-vs-quadrature",
        "num_cases": count + 1,
        "forced_value": forced,
        "forced_expected": expected,
        "forced_ok": forced_ok,
        "worst_rel_err": worst,
        "tolerance": rel_tol,
        "passed": passed,
        "cases": cases,
    }


NUM_GAUSSIAN_PAIRS = 50  # random chi-squared pairs, plus the pinned one
NUM_PROBES = 10000  # random points per fixture for the sandwich check


def _mode_verify_divergences(config: dict, out_dir: Path) -> bool:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config["seed"])))

    checks = [_gaussian_pair_cases(rng, NUM_GAUSSIAN_PAIRS)]

    betas = np.linspace(0.05, 1.0, 12)
    for name in ("single-gaussian", "two-mode-symmetric", "two-mode-asymmetric", "simplex-centers"):
        fx = get_fixture(name)
        t = fx.target
        spread = fx.D + 3.0 * t.base.sigma_equiv
        pts = np.vstack(
            [rng.normal(0.0, spread, (NUM_PROBES, t.dim)), t.centers]
        )
        rep = dv.check_temp_scaling_bounds(t, betas, pts)
        rep.details["fixture"] = name
        checks.append(rep.to_dict())

    for name in ("single-gaussian", "two-mode-symmetric", "two-mode-asymmetric"):
        fx = get_fixture(name)
        t = fx.target
        grid = dv.QuadratureGrid.for_gaussians(
            t.centers, t.base.sigma, nodes_per_axis=512, span=10.0
        )
        for alpha, beta in ((0.1, 0.5), (0.2, 1.0), (0.5, 1.0), (0.9, 1.0)):
            rep = dv.check_partition_ratio_bound(t, alpha, beta, grid)
            rep.details["fixture"] = name
            checks.append(rep.to_dict())

    for _ in range(5):
        means_p = rng.uniform(-2.0, 2.0, 2)
        means_q = rng.uniform(-2.0, 2.0, 2)
        sig_p = rng.uniform(0.7, 1.3, 2)
        sig_q = rng.uniform(0.7, 1.3, 2)
        wp = rng.uniform(0.2, 0.8)
        wq = rng.uniform(0.2, 0.8)
        grid = dv.QuadratureGrid.for_gaussians(
            np.concatenate([means_p, means_q]).reshape(-1, 1),
            float(max(sig_p.max(), sig_q.max())),
            nodes_per_axis=512,
        )
        rep = dv.kl_mixture_upper_bound_check(
            [wp, 1.0 - wp],
            [_gaussian_log_density(mu, s) for mu, s in zip(means_p, sig_p)],
            [wq, 1.0 - wq],
            [_gaussian_log_density(mu, s) for mu, s in zip(means_q, sig_q)],
            grid,
        )
        checks.append(rep.to_dict())

    passed = all(c["passed"] for c in checks)
    report_path = out_dir / "divergences_report.json"
    _write_json(report_path, {"checks": checks, "passed": passed})
    _write_manifest(out_dir, "verify-divergences", config, ["divergences_report.json"])
    print(f"divergences: {sum(c['passed'] for c in checks)}/{len(checks)} checks passed")
    if not passed:
        print(f"FAIL: see {report_path}")
    return passed


# ---------------------------------------------------------------------------
# baseline-compare


def _mode_baseline_compare(config: dict, out_dir: Path) -> bool:
    fixture = _fixture_from_config(config)
    target = fixture.target
    if target is None or target.dim != 1 or target.m < 2 or not modes_separated(target):
        raise ConfigError("baseline-compare needs a 1-d mixture fixture with >= 2 modes, "
                          "centers at least 4 base standard deviations apart; change the fixture")
    b = config.get("baseline", {})
    start_idx = b.get("start_center", target.m - 1)
    if start_idx >= target.m:
        raise ConfigError(f"start_center must index one of the {target.m} centers")
    thin = b.get("thin", 1)
    _, long_params, _, rec, rng, samples = _staged_long_run(fixture, config, "baseline", thin)
    x0 = target.centers[start_idx]
    base_rec = run_plain_langevin(
        fixture.oracle,
        1.0,
        long_params.step_size,
        rec.total_steps,
        x0,
        rng,
        thin=thin,
    )
    plain = base_rec.positions[1:]

    tempering, langevin = _graded(samples, target), _graded(plain, target)
    tv_t, masses_t = tempering["tv"], tempering["mode_masses"]
    tv_p, minority = langevin["tv"], float(langevin["mode_masses"].min())
    metrics = {
        "tempering": tempering,
        "langevin": {**langevin, "minority_mass": minority, "start_center": int(start_idx)},
        "budget": {
            "tempering_steps": rec.total_steps,
            "langevin_steps": rec.total_steps,
        },
    }
    balanced = bool(np.all(masses_t >= 0.40) and np.all(masses_t <= 0.60)) if target.m == 2 else True
    passed = balanced and tv_t < 0.10 and minority <= 0.01
    metrics["passed"] = passed
    path = out_dir / "baseline_metrics.json"
    _write_json(path, metrics)
    _write_manifest(out_dir, "baseline-compare", config, ["baseline_metrics.json"])
    print(
        f"baseline: tempering tv={tv_t:.4f} masses={np.round(masses_t, 3)}; "
        f"langevin tv={tv_p:.4f} minority={minority:.4f}"
    )
    if not passed:
        print(f"FAIL: see {path}")
    return passed


# ---------------------------------------------------------------------------


def _print_fixtures() -> None:
    rows = fixture_summaries()
    print(f"{'name':<26} {'dim':>3} {'m':>2} {'D':>8}  kind         description")
    for name, dim, m, D, kind, desc in rows:
        print(f"{name:<26} {dim:>3} {m:>2} {D:>8.3f}  {kind:<12} {desc}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="temperlab",
        description="simulated-tempering Langevin sampling and its bound checks",
    )
    p.add_argument("--config", help="path to a JSON run configuration")
    p.add_argument(
        "--mode",
        choices=["sample", "verify-decomposition", "verify-divergences", "baseline-compare"],
        help="what to run",
    )
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output directory (default: artifacts)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for verification")
    p.add_argument(
        "--list-fixtures", action="store_true", help="print built-in fixtures and exit"
    )
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_fixtures:
        _print_fixtures()
        return 0
    if not args.config or not args.mode:
        parser.error("--config and --mode are required (or use --list-fixtures)")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    try:
        config = _load_config(args.config, args.seed)
    except jsonschema.ValidationError as e:
        where = "/".join(str(p) for p in e.absolute_path) or "<root>"
        print(f"config error: {where}: {e.message}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or "artifacts")

    try:
        if args.mode == "sample":
            ok = _mode_sample(config, out_dir)
        elif args.mode == "verify-decomposition":
            ok = _mode_verify_decomposition(config, out_dir, args.jobs)
        elif args.mode == "verify-divergences":
            ok = _mode_verify_divergences(config, out_dir)
        else:
            ok = _mode_baseline_compare(config, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (EstimationFailure, NonFiniteGradient) as e:
        keys = ("overrides.step_size" if isinstance(e, NonFiniteGradient) else
                "overrides.swap_rate, overrides.total_time or schedule.c_samples")
        print(f"config error: {e}; change {keys}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
