"""Self-test of the benchmark: span arithmetic and the workload checks.

    python3 bench/selftest.py          (from the repository root)

Each workload check must reject a wrong result: a long-chain sample set stuck
in one mode, a staged zhat pushed outside its envelope, and a decomposition
or divergence report with passed=False.
"""

from __future__ import annotations

import hashlib
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, percentile  # noqa: E402
from temperlab.fixtures import get_fixture  # noqa: E402
from temperlab.diagnostics import empirical_tv, mode_masses  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class SpanArithmetic(unittest.TestCase):
    def test_nested_self_time(self):
        clock = FakeClock()
        leaf = {"ns": 0}
        tr = Tracer(clock=clock)
        tr.add_leaf_clock(lambda: leaf["ns"])
        with tr.span("root") as root:  # 0 .. 100
            clock.now = 10
            with tr.span("a") as a:  # 10 .. 40, holds 5 ns of leaf work
                clock.now = 15
                with tr.span("a.inner") as inner:  # 15 .. 25
                    clock.now = 25
                leaf["ns"] += 5
                clock.now = 40
            leaf["ns"] += 7  # leaf work directly under root
            clock.now = 60
            with tr.span("b") as b:  # 60 .. 90
                clock.now = 90
            clock.now = 100
        self.assertEqual(tr.self_ns(inner.index), 10)
        self.assertEqual(tr.self_ns(a.index), 30 - 10 - 5)
        self.assertEqual(tr.self_ns(b.index), 30)
        self.assertEqual(tr.self_ns(root.index), 100 - 30 - 30 - 7)
        self.assertEqual(a.parent, root.index)
        self.assertEqual(inner.parent, a.index)
        total_self = sum(tr.self_ns(s.index) for s in tr.spans)
        self.assertEqual(total_self + leaf["ns"], 100)

    def test_percentile_nearest_rank(self):
        self.assertEqual(percentile([5, 1, 3, 2, 4], 50), 3.0)
        self.assertEqual(percentile(range(1, 101), 99), 99.0)
        self.assertEqual(percentile([], 50), 0.0)


class LongChainCheck(unittest.TestCase):
    def setUp(self):
        self.target = get_fixture("two-mode-symmetric").target
        self.rng = np.random.default_rng(0)

    def test_balanced_samples_pass(self):
        x = np.concatenate([self.rng.normal(-5, 1, 15000), self.rng.normal(5, 1, 15000)])
        tv, _ = empirical_tv(x, self.target)
        out = checks.check_tempering_run(mode_masses(x, self.target), tv, x.size)
        self.assertFalse(out.failed, out.reasons)
        self.assertTrue(out.consistent)

    def test_stuck_in_one_mode_fails(self):
        x = self.rng.normal(5, 1, 30000)
        tv, _ = empirical_tv(x, self.target)
        out = checks.check_tempering_run(mode_masses(x, self.target), tv, x.size)
        self.assertTrue(out.failed)

    def test_each_bound_rejects_on_its_own(self):
        self.assertTrue(checks.check_tempering_run([0.97, 0.03], 0.05, 30000).failed)
        self.assertTrue(checks.check_tempering_run([0.5, 0.5], 0.49, 30000).failed)
        self.assertTrue(checks.check_tempering_run([0.5, 0.5], 0.05, 100).failed)
        self.assertFalse(checks.check_tempering_run([0.5, 0.5], 0.05, 30000).failed)

    def _baseline(self, x):
        return checks.check_baseline_run(mode_masses(x, self.target),
                                         checks.barrier_crossings(x, self.target.centers))

    def test_mixing_baseline_fails(self):
        right, left = self.rng.normal(5, 1, (2, 4750)), self.rng.normal(-5, 1, 500)
        x = np.concatenate([right[0], left, right[1]])  # there and back again
        self.assertEqual(checks.barrier_crossings(x, self.target.centers), 2)
        self.assertTrue(self._baseline(x).failed)

    def test_trapped_or_once_escaped_baseline_passes(self):
        trapped = self.rng.normal(5, 1, 10000)
        self.assertFalse(self._baseline(trapped).failed)
        once = np.concatenate([self.rng.normal(5, 1, 7600), self.rng.normal(-5, 1, 2400)])
        self.assertEqual(checks.barrier_crossings(once, self.target.centers), 1)
        self.assertFalse(self._baseline(once).failed)

    def test_barrier_hovering_is_not_crossing(self):
        x = np.concatenate([np.full(10, 5.0), np.tile([0.4, -0.4], 50), np.full(10, 5.0)])
        self.assertEqual(checks.barrier_crossings(x, self.target.centers), 0)


class StagingCheck(unittest.TestCase):
    def setUp(self):
        from temperlab.ladder import validate_partition_estimates

        import workloads

        self.ladder, _ = workloads.headline_ladder()
        self.z_true = workloads.quadrature_partition(
            get_fixture("two-mode-symmetric").target, self.ladder.betas)
        self.validate = lambda z, t: validate_partition_estimates(
            self.ladder.with_partition_estimates(z), t)

    def test_truth_passes(self):
        out = checks.check_staging(self.z_true * 3.0, self.z_true, self.validate)
        self.assertFalse(out.failed, out.reasons)

    def test_zhat_outside_envelope_fails(self):
        L = self.ladder.num_levels
        z = self.z_true.copy()
        z[-1] *= (1.0 + 1.0 / L) ** (L - 1) * 1.01
        self.assertTrue(checks.check_staging(z, self.z_true, self.validate).failed)

    def test_non_finite_zhat_fails(self):
        z = self.z_true.copy()
        z[3] = math.inf
        self.assertTrue(checks.check_staging(z, self.z_true, self.validate).failed)


def _report(passed=True, **kw):
    rep = {"theorem": "tempering-decomposition", "instance_hash": "x", "C": 1.0,
           "C_bar": 2.0, "C_star": 3.0, "bound": 10.0, "passed": passed}
    rep["slack"] = rep["bound"] * (1.0 + 1e-6) - rep["C_star"]
    rep.update(kw)
    return rep


class LabCheck(unittest.TestCase):
    def test_passing_report(self):
        out = checks.check_decomposition_report(_report(), 1e-6)
        self.assertFalse(out.failed)
        self.assertTrue(out.consistent)

    def test_failing_report_counts_as_failed(self):
        rep = _report(passed=False, C_star=20.0)
        rep["slack"] = 10.0 * (1.0 + 1e-6) - 20.0
        out = checks.check_decomposition_report(rep, 1e-6)
        self.assertTrue(out.failed)
        self.assertTrue(out.consistent)

    def test_verdict_contradicting_numbers_is_inconsistent(self):
        out = checks.check_decomposition_report(_report(passed=False), 1e-6)
        self.assertTrue(out.failed)
        self.assertFalse(out.consistent)

    def test_divergence_check_passed_false(self):
        rep = {"check": "chi2-closed-vs-quadrature", "passed": False, "forced_ok": True,
               "worst_rel_err": "inf", "tolerance": 1e-5,
               "cases": [{"dim": 1, "closed": 1e30, "numeric": "inf", "rel_err": "inf"}]}
        out = checks.check_divergence_report(rep)
        self.assertTrue(out.failed)
        self.assertTrue(out.consistent)
        ok = {"check": "kl-mixture-upper-bound", "passed": True, "violations": 0}
        self.assertFalse(checks.check_divergence_report(ok).failed)

    def test_exit_code_must_match_reports(self):
        failing = [checks.Outcome().fail("x")]
        self.assertTrue(checks.check_exit_code(1, failing).consistent)
        self.assertFalse(checks.check_exit_code(0, failing).consistent)
        self.assertFalse(checks.check_exit_code(1, [checks.Outcome()]).consistent)

    def test_manifest_hash_mismatch(self):
        data = b"hello"
        sha = lambda b: hashlib.sha256(b).hexdigest()  # noqa: E731
        man = {"files": [{"path": "a", "bytes": 5, "sha256": sha(data)}]}
        self.assertTrue(checks.check_manifest(man, lambda p: data, sha).consistent)
        self.assertFalse(checks.check_manifest(man, lambda p: b"hellO", sha).consistent)


if __name__ == "__main__":
    unittest.main()
