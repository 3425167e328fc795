"""The package surface: every exported name exists where it is declared, the
package imports nothing beyond the standard library, numpy and jsonschema,
every config setting is read by the CLI, and the benchmark's workloads still
run against the names they call and its self-test passes."""

import ast
import importlib
import inspect
import io
import json
import sys
import unittest
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest

import temperlab
from temperlab.ladder import RunParams, ScheduleConstants
from temperlab.sampler import RngStream, run_main, run_stlmc

MODULES = ("cli", "decomposition", "diagnostics", "divergences", "fixtures", "ladder",
           "oracles", "sampler")


def _reexports():
    """(module, name) for each `from .module import name` in the package init."""
    tree = ast.parse(Path(temperlab.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"temperlab.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_only_public_names():
    pairs = _reexports()
    assert pairs
    stray = [(m, n) for m, n in pairs
             if not n.startswith("_") and n not in importlib.import_module(f"temperlab.{m}").__all__]
    assert stray == []


def test_runtime_imports_are_stdlib_numpy_or_jsonschema():
    # scipy may be installed, but the package must not rely on it
    allowed = set(sys.stdlib_module_names) | {"numpy", "jsonschema"}
    found = set()
    for path in Path(temperlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert "numpy" in found
    assert sorted(found - allowed) == []


def test_config_schedule_and_overrides_are_library_fields():
    schema = json.loads(resources.files("temperlab.data").joinpath("config.schema.json").read_text())
    props = schema["properties"]
    assert {f.name for f in fields(ScheduleConstants)} == set(props["schedule"]["properties"])
    assert set(props["overrides"]["properties"]) <= {f.name for f in fields(RunParams)}


@pytest.mark.parametrize("block", ["sample", "baseline", "verify"])
def test_every_mode_setting_is_read_by_the_cli(block):
    # a setting the schema accepts but nothing reads would be silently ignored
    schema = json.loads(resources.files("temperlab.data").joinpath("config.schema.json").read_text())
    source = Path(temperlab.__file__).with_name("cli.py").read_text()
    keys = schema["properties"][block]["properties"]
    assert keys and [k for k in keys if f'"{k}"' not in source] == []


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, imported from bench/ as bench/run.py imports them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return {name: importlib.import_module(name) for name in ("checks", "spans", "workloads")}


def test_bench_sampler_workloads_set_up(tmp_path, bench):
    # bench/workloads.py passes library keywords (run_stlmc(target_level=),
    # QuadratureGrid.build(rule=), ...), so a rename in the package breaks the
    # benchmark before any timing
    workloads, checks = bench["workloads"], bench["checks"]
    staging = workloads.Staging(0, tmp_path)
    staging.setup()
    workloads.LongChain(0, tmp_path).setup()
    rng = RngStream(0)
    inspect.signature(run_main).bind(staging.fixture.oracle, staging.ladder, staging.params, rng,
                                     confidence=workloads.CONFIDENCE)
    rec = run_stlmc(staging.fixture.oracle, staging.ladder.prefix(2), staging.params, rng,
                    target_level=2)
    assert checks.check_record(rec).consistent
    assert staging._validate(staging.z_true, staging.z_true).passed


def test_bench_selftest_passes(bench):
    # its StagingCheck passes linear estimates through with_partition_estimates
    # and validate_partition_estimates, as the staging workload does
    suite = unittest.defaultTestLoader.loadTestsFromModule(importlib.import_module("selftest"))
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun > 0
    assert result.wasSuccessful(), result.failures + result.errors


def test_bench_lab_workload_runs_untraced_and_traced(tmp_path, bench):
    # bench/workloads.py wraps CLI module names and passes library keywords,
    # so a rename in the package breaks the benchmark before any timing
    workloads, spans = bench["workloads"], bench["spans"]
    lab = workloads.Lab(0, tmp_path)
    lab.setup()
    tracer = spans.Tracer()
    plain, traced = lab.run_op(0, spans.NullTracer()), lab.run_op(0, tracer)
    for op in (plain, traced):
        assert op.failed == 0 and op.consistent, op.notes
    assert lab.layer_metrics([(plain, traced)], tracer)
