"""The benchmark's three workloads, each a closed loop of one caller.

A workload object offers
  setup()                 the set-up the runner repeats and times;
  run_op(k, tracer)       the k-th operation, timed; returns an OpResult;
  layer_metrics(pairs, tracer)
                          per-layer numbers from the traced run, where each
                          pair is (untraced OpResult, traced OpResult) of the
                          same input;
`work_unit`, the thing `work_per_s` counts, and `nominal_s`, the seconds
one iteration took on the 2-vCPU host the benchmark was written on; the
runner turns --seconds into an iteration count with it.

Inputs come only from the workload seed: operation k draws from
SeedSequence([seed, k]).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import temperlab.cli as cli
from temperlab.decomposition import (
    TemperingInstance,
    random_simple_instance,
    random_tempering_instance,
    verify_simple_decomposition,
    verify_tempering_decomposition,
)
from temperlab.diagnostics import empirical_tv, integrated_autocorr, mode_masses
from temperlab.divergences import QuadratureGrid
from temperlab.fixtures import builtin_fixture_names, get_fixture
from temperlab.ladder import (
    ScheduleConstants,
    build_ladder_gaussian,
    validate_partition_estimates,
)
from temperlab.oracles import DensityOracle, mixture_log_density_many
from temperlab.sampler import RngStream, run_main, run_plain_langevin, run_stlmc

import checks
from spans import NullTracer, percentile

# The headline experiment (README quick start, acceptance criterion 07).
FIXTURE = "two-mode-symmetric"
LADDER_ARGS = dict(dim=1, D=5.0, sigma=1.0, w_min=0.5, target_accuracy=0.1)
CONSTANTS = ScheduleConstants(c_samples=0.1)
OVERRIDES = dict(total_time=20.0, step_size=0.02, swap_rate=1.0)
CONFIDENCE = 0.05

LONG_TIME = 4000.0  # time units of the long tempering run (~202k steps)
BASELINE_X0 = 5.0

LAB_SIMPLE = 60  # default-generator simple instances per pass (<= 192 states)
LAB_TEMPERING = 30  # default-generator tempering instances per pass (<= 192)
LAB_BIG = 8  # 8 levels x 64 positions = 512 states = MAX_STATES
LAB_TOL = 1e-6  # the CLI's default bound_tolerance

MICROBENCH_POINTS = 1000
MICROBENCH_REPEATS = 5

# stream tags for SeedSequence([seed, tag]); operations use tags 0, 1, 2, ...
WARMUP_TAG = 1_000_001
BIG_TAG = 1_000_002
MICRO_TAG = 1_000_003


@dataclass
class OpResult:
    seconds: float  # the timed region only; checks run outside it
    work: float  # units of `work_unit` done
    attempted: int
    failed: int
    consistent: bool
    notes: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _stream(seed: int, tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, tag])


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def headline_ladder():
    ladder, params = build_ladder_gaussian(**LADDER_ARGS, constants=CONSTANTS)
    return ladder, replace(params, **OVERRIDES)


def quadrature_partition(target, betas, nodes: int = 4096, span: float = 12.0) -> np.ndarray:
    """Z_beta / Z_beta1 for a 1-d mixture by Gauss-Legendre quadrature."""
    s = target.base.sigma / math.sqrt(float(np.min(betas)))
    c = target.centers[:, 0]
    grid = QuadratureGrid.build(
        ((float(c.min()) - span * s, float(c.max()) + span * s),),
        nodes_per_axis=nodes, rule="gauss-legendre",
    )
    f = mixture_log_density_many(target, grid.points.reshape(-1, 1))
    logw = np.log(grid.weights)
    log_z = np.empty(len(betas))
    for i, b in enumerate(betas):
        a = logw - b * f
        mx = a.max()
        log_z[i] = mx + math.log(float(np.sum(np.exp(a - mx))))
    return np.exp(log_z - log_z[0])


def _timed_ms(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, (time.perf_counter() - t0) * 1e3


class TimingOracle(DensityOracle):
    """Delegates to a fixture's oracle and keeps the duration of every call,
    so percentiles are exact.  Only the traced run installs it."""

    def __init__(self, inner: DensityOracle):
        self.inner = inner
        self.dim = inner.dim
        self.value_ns = array("q")
        self.grad_ns = array("q")
        self.busy_ns = 0

    def value(self, x):
        t0 = time.perf_counter_ns()
        out = self.inner.value(x)
        dt = time.perf_counter_ns() - t0
        self.value_ns.append(dt)
        self.busy_ns += dt
        return out

    def grad(self, x):
        t0 = time.perf_counter_ns()
        out = self.inner.grad(x)
        dt = time.perf_counter_ns() - t0
        self.grad_ns.append(dt)
        self.busy_ns += dt
        return out


def _oracle_for(fixture, tracer):
    """The fixture's own oracle untraced; a timing wrapper around it traced."""
    if isinstance(tracer, NullTracer):
        return fixture.oracle, None
    w = TimingOracle(fixture.oracle)
    tracer.add_leaf_clock(lambda: w.busy_ns)
    return w, w


def _oracle_metrics(traced: list) -> dict:
    """Counts from the first traced op; call-time percentiles over all."""
    first = traced[0].info.get("oracle")
    grad_ns, value_ns = [], []
    for r in traced:
        w = r.info.get("oracle")
        if w is not None:
            grad_ns.extend(w.grad_ns)
            value_ns.extend(w.value_ns)
    return {
        "oracles.grad.calls": (len(first.grad_ns) if first else 0, "count"),
        "oracles.value.calls": (len(first.value_ns) if first else 0, "count"),
        "oracles.grad.us_p50": (percentile(grad_ns, 50) / 1e3, "us"),
        "oracles.grad.us_p99": (percentile(grad_ns, 99) / 1e3, "us"),
        "oracles.value.us_p50": (percentile(value_ns, 50) / 1e3, "us"),
        "oracles.value.us_p99": (percentile(value_ns, 99) / 1e3, "us"),
    }


class _Headline:
    """Set-up shared by the two sampler workloads."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.setup_ms = {"fixtures.get_ms": [], "ladder.build_ms": []}

    def _setup_headline(self):
        self.fixture, ms = _timed_ms(get_fixture, FIXTURE)
        self.setup_ms["fixtures.get_ms"].append(ms)
        (self.ladder, self.params), ms = _timed_ms(headline_ladder)
        self.setup_ms["ladder.build_ms"].append(ms)
        self.z_true = quadrature_partition(self.fixture.target, self.ladder.betas)

    def _setup_metrics(self) -> dict:
        return {
            "fixtures.get_ms": (_median(self.setup_ms["fixtures.get_ms"]), "ms"),
            "ladder.build_ms": (_median(self.setup_ms["ladder.build_ms"]), "ms"),
            "ladder.levels": (self.ladder.num_levels, "count"),
        }


class Staging(_Headline):
    """run_main on the headline ladder: hundreds of short chains per op."""

    name = "staging"
    work_unit = "short tempering runs"
    nominal_s = 19.0

    def setup(self):
        self._setup_headline()
        L = self.ladder.num_levels
        self.need = max(1, math.ceil(CONSTANTS.c_samples * L**2 * math.log(1.0 / CONFIDENCE)))
        rng = RngStream(_stream(self.seed, WARMUP_TAG))
        run_stlmc(self.fixture.oracle, self.ladder.prefix(2), self.params, rng, target_level=2)

    def _validate(self, zhat, z_true):
        return validate_partition_estimates(self.ladder.with_partition_estimates(zhat), z_true)

    def run_op(self, k: int, tracer) -> OpResult:
        oracle, timing = _oracle_for(self.fixture, tracer)
        rng = RngStream(_stream(self.seed, k))
        res, err = None, None
        t0 = time.perf_counter()
        with tracer.span("sampler.run_main") as sp:
            try:
                res = run_main(oracle, self.ladder, self.params, rng, confidence=CONFIDENCE)
            except Exception as e:  # an op that raises is a failed op
                err = e
        dt = time.perf_counter() - t0
        info = {"oracle": timing, "span": sp}
        if err is not None:
            return OpResult(dt, 0, 1, 1, True, [f"run_main raised {err!r}"], info)
        out = checks.check_staging(res.zhat, self.z_true, self._validate)
        stats = checks.check_stage_stats(res.stage_stats, self.ladder.num_levels, self.need)
        info["stages"] = res.stage_stats
        runs = sum(s.runs_attempted for s in res.stage_stats)
        return OpResult(
            dt, runs, 1, int(out.failed), out.consistent and stats.consistent,
            out.reasons + stats.reasons, info,
        )

    def layer_metrics(self, pairs, tracer) -> dict:
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        m = self._setup_metrics()
        m.update(_oracle_metrics(traced))
        stages = traced[0].info.get("stages") or []
        for k in range(1, self.ladder.num_levels + 1):
            s = stages[k - 1] if k <= len(stages) else None
            m[f"sampler.stage{k}.runs_attempted"] = (s.runs_attempted if s else 0, "count")
            m[f"sampler.stage{k}.runs_accepted"] = (s.runs_accepted if s else 0, "count")
        att = sum(s.runs_attempted for s in stages)
        acc = sum(s.runs_accepted for s in stages)
        m["sampler.accept_ratio"] = (acc / att if att else 0.0, "ratio")
        m["sampler.ms_per_run"] = (
            _median(1e3 * u.seconds / u.work for u in untraced if u.work), "ms")
        m["sampler.run_main.self_s"] = (
            _median(tracer.self_ns(t.info["span"].index) / 1e9 for t in traced), "s")
        return m


class LongChain(_Headline):
    """One long tempering chain, then plain Langevin with the same steps."""

    name = "long-chain"
    work_unit = "Langevin steps"
    nominal_s = 13.0

    def setup(self):
        self._setup_headline()
        self.full = self.ladder.with_partition_estimates(self.z_true)
        self.long_params = replace(self.params, total_time=LONG_TIME)
        rng = RngStream(_stream(self.seed, WARMUP_TAG))
        oracle, target = self.fixture.oracle, self.fixture.target
        rec = run_stlmc(oracle, self.full, self.params, rng, thin=1)
        base = run_plain_langevin(oracle, 1.0, self.params.step_size, 1000,
                                  np.array([BASELINE_X0]), rng)
        mode_masses(base.positions, target)
        empirical_tv(rec.positions, target)
        integrated_autocorr(rec.positions[:, 0])

    def run_op(self, k: int, tracer) -> OpResult:
        oracle, timing = _oracle_for(self.fixture, tracer)
        target = self.fixture.target
        rng = RngStream(_stream(self.seed, k))
        L = self.ladder.num_levels
        info = {"oracle": timing, "spans": {}}
        t0 = time.perf_counter()
        try:
            with tracer.span("sampler.run_stlmc") as info["spans"]["stlmc"]:
                rec = run_stlmc(oracle, self.full, self.long_params, rng, thin=1)
            samples = rec.positions_at_level(L)
            with tracer.span("sampler.run_plain_langevin") as info["spans"]["plain"]:
                base = run_plain_langevin(oracle, 1.0, self.params.step_size, rec.total_steps,
                                          np.array([BASELINE_X0]), rng, thin=1)
            with tracer.span("diagnostics.mode_masses") as info["spans"]["mode_masses"]:
                masses = mode_masses(samples, target)
                base_masses = mode_masses(base.positions[1:], target)
            with tracer.span("diagnostics.empirical_tv") as info["spans"]["empirical_tv"]:
                tv, _ = empirical_tv(samples, target)
            with tracer.span("diagnostics.integrated_autocorr") as info["spans"]["autocorr"]:
                integrated_autocorr(samples[:, 0])
        except Exception as e:  # both runs of the pair count as failed
            return OpResult(time.perf_counter() - t0, 0, 2, 2, True,
                            [f"long chain raised {e!r}"], info)
        dt = time.perf_counter() - t0
        temper = checks.check_tempering_run(masses, tv, samples.shape[0])
        crossings = checks.barrier_crossings(base.positions[1:], target.centers)
        baseline = checks.check_baseline_run(base_masses, crossings)
        books = [checks.check_record(rec), checks.check_record(base, rec.total_steps)]
        info.update(swap=rec.swap_stats, samples=samples.shape[0])
        return OpResult(
            dt, rec.total_steps + base.total_steps, 2,
            int(temper.failed) + int(baseline.failed),
            all(o.consistent for o in [temper, baseline, *books]),
            temper.reasons + baseline.reasons + sum((b.reasons for b in books), []),
            info,
        )

    def layer_metrics(self, pairs, tracer) -> dict:
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        m = self._setup_metrics()
        m.update(_oracle_metrics(traced))
        m.update(self._microbench())

        def self_s(key):
            return _median(tracer.self_ns(t.info["spans"][key].index) / 1e9
                           for t in traced if key in t.info["spans"])

        def span_ms(key):
            sp = [t.info["spans"][key] for t in traced if key in t.info["spans"]]
            return _median((s.end - s.start) / 1e6 for s in sp)

        first = traced[0].info
        swap = first.get("swap")
        m.update({
            "sampler.run_stlmc.self_s": (self_s("stlmc"), "s"),
            "sampler.run_plain_langevin.self_s": (self_s("plain"), "s"),
            "sampler.us_per_step": (_median(1e6 * u.seconds / u.work for u in untraced if u.work), "us"),
            "sampler.swap.attempts": (swap.attempts if swap else 0, "count"),
            "sampler.swap.accepts": (swap.accepts if swap else 0, "count"),
            "sampler.swap.out_of_bounds": (swap.out_of_bounds if swap else 0, "count"),
            "diagnostics.mode_masses.ms": (span_ms("mode_masses"), "ms"),
            "diagnostics.empirical_tv.ms": (span_ms("empirical_tv"), "ms"),
            "diagnostics.integrated_autocorr.ms": (span_ms("autocorr"), "ms"),
            "diagnostics.samples": (first.get("samples", 0), "count"),
        })
        return m

    def _microbench(self) -> dict:
        """Per-call oracle cost of every built-in fixture, median of repeats."""
        m = {}
        for i, name in enumerate(builtin_fixture_names()):
            fx = get_fixture(name)
            rng = np.random.Generator(np.random.PCG64(_stream(self.seed, MICRO_TAG + i)))
            pts = rng.normal(0.0, fx.D + 1.0, (MICROBENCH_POINTS, fx.dim))
            for kind in ("grad", "value"):
                fn = getattr(fx.oracle, kind)
                per_call = []
                for _ in range(MICROBENCH_REPEATS):
                    t0 = time.perf_counter()
                    for x in pts:
                        fn(x)
                    per_call.append((time.perf_counter() - t0) / MICROBENCH_POINTS)
                m[f"oracles.{name}.{kind}_us"] = (1e6 * _median(per_call), "us")
        return m


class _Proxy:
    """Attribute view of `target` with some names replaced."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


@contextlib.contextmanager
def _cli_wrapped(tracer, counts: dict):
    """Wrap the library names the CLI module calls in spans, then restore them.

    This is how the traced lab run reaches the layers under cli.main: the
    CLI looks these names up in its module globals at call time.
    """
    def spanned(fn, span_name):
        def wrapper(*args, **kw):
            with tracer.span(span_name):
                return fn(*args, **kw)
        return wrapper

    dv = cli.dv

    def counting_grid(*args, **kw):
        grid = dv.QuadratureGrid.for_gaussians(*args, **kw)
        counts["quadrature_nodes"] += int(grid.points.shape[0])
        return grid

    replaced = {
        "random_simple_instance": spanned(cli.random_simple_instance, "decomposition.build"),
        "random_tempering_instance": spanned(cli.random_tempering_instance, "decomposition.build"),
        "verify_simple_decomposition": spanned(cli.verify_simple_decomposition,
                                               "decomposition.simple.verify"),
        "verify_tempering_decomposition": spanned(cli.verify_tempering_decomposition,
                                                  "decomposition.tempering_small.verify"),
        "_gaussian_pair_cases": spanned(cli._gaussian_pair_cases, "divergences.chi2_pair"),
        "get_fixture": spanned(cli.get_fixture, "fixtures.get"),
        "dv": _Proxy(dv, {
            "check_temp_scaling_bounds": spanned(dv.check_temp_scaling_bounds,
                                                 "divergences.temp_scaling"),
            "check_partition_ratio_bound": spanned(dv.check_partition_ratio_bound,
                                                   "divergences.partition_ratio"),
            "kl_mixture_upper_bound_check": spanned(dv.kl_mixture_upper_bound_check,
                                                    "divergences.kl_mixture"),
            "QuadratureGrid": _Proxy(dv.QuadratureGrid, {"for_gaussians": counting_grid}),
        }),
    }
    originals = {name: getattr(cli, name) for name in replaced}
    try:
        for name, fn in replaced.items():
            setattr(cli, name, fn)
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def big_tempering_instance(rng: np.random.Generator, levels: int = 8, positions: int = 64,
                           components: int = 2) -> TemperingInstance:
    """A MAX_STATES-sized instance, drawn as random_tempering_instance draws
    its 3-level ones but over a geometric ladder of `levels` temperatures."""
    grid = np.linspace(-6.0, 6.0, positions)
    beta1 = float(rng.uniform(0.05, 0.3))
    betas = beta1 ** (1.0 - np.arange(levels) / (levels - 1))
    centers = rng.uniform(-2.5, 2.5, components)
    sigmas = rng.uniform(0.6, 1.2, components)
    logmass = -betas[:, None, None] * 0.5 * (
        (grid[None, None, :] - centers[None, :, None]) / sigmas[None, :, None]) ** 2
    mass = np.exp(logmass - logmass.max(axis=2, keepdims=True))
    dens = mass / mass.sum(axis=2, keepdims=True)
    cw = rng.uniform(0.1, 1.0, (levels, components))
    cw /= cw.sum(axis=1, keepdims=True)
    return TemperingInstance(
        grid=grid, betas=betas, rel_probs=np.full(levels, 1.0 / levels),
        comp_weights=cw, densities=dens, swap_rate=float(rng.uniform(0.5, 2.0)),
        swap_strength=1.0,
    )


class Lab:
    """cli.main verify-decomposition and verify-divergences in-process, plus
    direct verification of MAX_STATES-sized tempering instances.

    Every pass repeats the same inputs, so the pass time has one median.
    """

    name = "lab"
    work_unit = "decomposition instances"
    nominal_s = 1.0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.dir = out_dir / "lab"

    def setup(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.dec_cfg = self.dir / "decomposition.json"
        self.div_cfg = self.dir / "divergences.json"
        self.dec_cfg.write_text(json.dumps({
            "version": 1, "seed": self.seed,
            "verify": {"num_simple": LAB_SIMPLE, "num_tempering": LAB_TEMPERING,
                       "bound_tolerance": LAB_TOL},
        }))
        self.div_cfg.write_text(json.dumps({"version": 1, "seed": self.seed}))
        rng = np.random.Generator(np.random.PCG64(_stream(self.seed, WARMUP_TAG)))
        verify_simple_decomposition(random_simple_instance(rng), tol=LAB_TOL)
        verify_tempering_decomposition(random_tempering_instance(rng), tol=LAB_TOL)

    def _cli(self, mode: str, cfg: Path, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--config", str(cfg), "--mode", mode, "--out", str(out),
                             "--jobs", "1"])

    def run_op(self, k: int, tracer) -> OpResult:
        counts = {"quadrature_nodes": 0}
        spans = {}
        wrap = contextlib.nullcontext() if isinstance(tracer, NullTracer) else _cli_wrapped(tracer, counts)
        dec_out, div_out = self.dir / "decomposition", self.dir / "divergences"
        big_reports = []
        first_span = len(getattr(tracer, "spans", ()))
        t0 = time.perf_counter()
        with wrap:
            with tracer.span("cli.verify_decomposition") as spans["dec"]:
                dec_code = self._cli("verify-decomposition", self.dec_cfg, dec_out)
            with tracer.span("cli.verify_divergences") as spans["div"]:
                div_code = self._cli("verify-divergences", self.div_cfg, div_out)
        rng = np.random.Generator(np.random.PCG64(_stream(self.seed, BIG_TAG)))
        for _ in range(LAB_BIG):
            with tracer.span("decomposition.build"):
                inst = big_tempering_instance(rng)
            with tracer.span("decomposition.tempering_512.verify"):
                big_reports.append(verify_tempering_decomposition(inst, tol=LAB_TOL).to_dict())
        dt = time.perf_counter() - t0
        spans["ids"] = range(first_span, len(getattr(tracer, "spans", ())))
        return self._check(dt, dec_code, div_code, dec_out, div_out, big_reports, counts, spans)

    def _check(self, dt, dec_code, div_code, dec_out, div_out, big_reports, counts, spans):
        dec_man = json.loads((dec_out / "manifest.json").read_text())
        div_man = json.loads((div_out / "manifest.json").read_text())
        dec_reports = []
        for e in dec_man["files"]:
            if e["path"].endswith(".json"):
                dec_reports.extend(json.loads((dec_out / e["path"]).read_text()))
        div_checks = json.loads((div_out / "divergences_report.json").read_text())["checks"]

        dec_out_c = [checks.check_decomposition_report(r, LAB_TOL) for r in dec_reports]
        div_out_c = [checks.check_divergence_report(r) for r in div_checks]
        big_out_c = [checks.check_decomposition_report(r, LAB_TOL) for r in big_reports]
        meta = [
            checks.check_exit_code(dec_code, dec_out_c),
            checks.check_exit_code(div_code, div_out_c),
            checks.check_manifest(dec_man, lambda p: (dec_out / p).read_bytes(), _sha256),
            checks.check_manifest(div_man, lambda p: (div_out / p).read_bytes(), _sha256),
        ]
        if len(dec_reports) != 2 * LAB_SIMPLE + LAB_TEMPERING:
            meta.append(checks.Outcome().inconsistent(
                f"{len(dec_reports)} decomposition reports, expected "
                f"{2 * LAB_SIMPLE + LAB_TEMPERING}"))
        reports = dec_out_c + div_out_c + big_out_c
        notes = [r for o in reports + meta for r in o.reasons]
        states = sum(_states(r) for r in dec_reports + big_reports)
        written = ((dec_man, dec_out), (div_man, div_out))
        info = {
            "spans": spans,
            "states": states,
            "quadrature_nodes": counts["quadrature_nodes"],
            "bytes_written": sum(e["bytes"] for m, _ in written for e in m["files"])
            + sum((d / "manifest.json").stat().st_size for _, d in written),
            "files_written": sum(len(m["files"]) + 1 for m, _ in written),
        }
        return OpResult(
            dt, LAB_SIMPLE + LAB_TEMPERING + LAB_BIG, len(reports),
            sum(o.failed for o in reports), all(o.consistent for o in reports + meta),
            notes, info,
        )

    def layer_metrics(self, pairs, tracer) -> dict:
        traced = [t for _, t in pairs]
        first = traced[0].info
        per_op = [t.info["spans"]["ids"] for t in traced]

        def verify_ms(name, q):
            return percentile([(s.end - s.start) / 1e6 for s in tracer.spans if s.name == name], q)

        def per_pass_ms(name):
            return _median(
                sum(tracer.spans[i].end - tracer.spans[i].start for i in ids
                    if tracer.spans[i].name == name) / 1e6 for ids in per_op)

        def mode_s(key):
            return _median((t.info["spans"][key].end - t.info["spans"][key].start) / 1e9
                           for t in traced)

        def cli_self_s(ids):
            return sum(tracer.self_ns(i) for i in ids
                       if tracer.spans[i].name.startswith("cli.")) / 1e9

        return {
            "decomposition.simple.verify_ms_p50": (verify_ms("decomposition.simple.verify", 50), "ms"),
            "decomposition.simple.verify_ms_p90": (verify_ms("decomposition.simple.verify", 90), "ms"),
            "decomposition.tempering_small.verify_ms_p50": (
                verify_ms("decomposition.tempering_small.verify", 50), "ms"),
            "decomposition.tempering_small.verify_ms_p90": (
                verify_ms("decomposition.tempering_small.verify", 90), "ms"),
            "decomposition.tempering_512.verify_ms_p50": (
                verify_ms("decomposition.tempering_512.verify", 50), "ms"),
            "decomposition.tempering_512.verify_ms_p90": (
                verify_ms("decomposition.tempering_512.verify", 90), "ms"),
            "decomposition.build_ms": (per_pass_ms("decomposition.build"), "ms"),
            "decomposition.states_total": (first["states"], "count"),
            "divergences.chi2_pair.ms": (per_pass_ms("divergences.chi2_pair"), "ms"),
            "divergences.temp_scaling.ms": (per_pass_ms("divergences.temp_scaling"), "ms"),
            "divergences.partition_ratio.ms": (per_pass_ms("divergences.partition_ratio"), "ms"),
            "divergences.kl_mixture.ms": (per_pass_ms("divergences.kl_mixture"), "ms"),
            "divergences.quadrature_nodes": (first["quadrature_nodes"], "count"),
            "cli.verify_decomposition.s": (mode_s("dec"), "s"),
            "cli.verify_divergences.s": (mode_s("div"), "s"),
            "cli.self_s": (_median(cli_self_s(ids) for ids in per_op), "s"),
            "cli.bytes_written": (first["bytes_written"], "bytes"),
            "cli.files_written": (first["files_written"], "count"),
            "fixtures.get_ms": (verify_ms("fixtures.get", 50), "ms"),
        }


def _states(rep: dict) -> int:
    d = rep.get("details", {})
    if "num_states" in d:
        return int(d["num_states"])
    return int(d.get("levels", 0)) * int(d.get("positions", 0))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


WORKLOADS = {cls.name: cls for cls in (Staging, LongChain, Lab)}
