"""End-to-end tests for the command-line driver."""

import csv
import hashlib
import json
import math
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

from temperlab.cli import _fixture_from_config, _ladder_for, main
from temperlab.fixtures import builtin_fixture_names, get_fixture
from temperlab.ladder import ScheduleConstants, build_ladder_logconcave

EXPECTED_FIXTURES = (
    "single-gaussian",
    "two-mode-symmetric",
    "two-mode-asymmetric",
    "simplex-centers",
    "adversarial-two-variance",
    "perturbed-mixture",
)

TINY_MIXTURE = {
    "name": "tiny-pair",
    "dim": 1,
    "weights": [0.5, 0.5],
    "centers": [[-2.0], [2.0]],
    "base": {"kind": "isotropic-gaussian", "sigma": 1.0},
}

# 2 base standard deviations apart: too close for nearest-center mode masses
CLOSE_PAIR = {**TINY_MIXTURE, "name": "close-pair", "centers": [[-1.0], [1.0]]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sample_config(seed=11):
    return {
        "version": 1,
        "seed": seed,
        "fixture": TINY_MIXTURE,
        "schedule": {"c_samples": 0.05},
        "overrides": {"total_time": 10.0, "step_size": 0.05, "swap_rate": 1.0},
        "sample": {"main_time": 50.0, "thin": 5},
    }


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestFixtureListing:
    def test_list_fixtures_prints_builtins(self, capsys):
        assert main(["--list-fixtures"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_FIXTURES:
            assert name in out

    def test_at_least_six_builtins(self):
        assert len(builtin_fixture_names()) >= 6

    def test_every_builtin_loads_with_a_sane_oracle(self):
        rng = np.random.default_rng(0)
        for name in builtin_fixture_names():
            fx = get_fixture(name)
            x = rng.standard_normal(fx.dim)
            v = fx.oracle.value(x)
            g = fx.oracle.grad(x)
            assert math.isfinite(v)
            assert g.shape == (fx.dim,)
            # central differences agree with the reported gradient
            for k in range(fx.dim):
                e = np.zeros(fx.dim)
                e[k] = 1e-5
                fd = (fx.oracle.value(x + e) - fx.oracle.value(x - e)) / 2e-5
                assert fd == pytest.approx(g[k], rel=1e-4, abs=1e-6)

    def test_adversarial_fixture_scale(self):
        fx = get_fixture("adversarial-two-variance")
        assert fx.dim == 4
        assert fx.D == pytest.approx(8.0 * 4 * math.log(2.0), rel=1e-12)

    def test_unknown_fixture_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "seed": 1, "fixture": "no-such"})
        code = main(["--config", cfg, "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["config.schema.json", "fixture.schema.json"])
    def test_packaged_schema_is_valid_under_its_metaschema(self, name):
        # validation builds each validator once and skips this check
        schema = json.loads(resources.files("temperlab.data").joinpath(name).read_text())
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1})
        code = main(["--config", cfg, "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "seed" in err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "seed": 3, "bogus": True})
        code = main(["--config", cfg, "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_wrong_version_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 2, "seed": 3})
        assert main(["--config", cfg, "--mode", "sample"]) == 2
        assert "version" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "--mode", "sample"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json"), "--mode", "sample"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_flags_are_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("mode", ["sample", "baseline-compare"])
    def test_default_schedule_is_refused_before_sampling(self, tmp_path, capsys, mode):
        # the default constants ask for ~4e16 steps per staged run here
        cfg = write_config(tmp_path, {"version": 1, "seed": 1, "fixture": "two-mode-symmetric"})
        start = time.perf_counter()
        code = main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        for key in ("overrides.step_size", "overrides.total_time"):
            assert key in err

    @pytest.mark.parametrize("mode", ["sample", "baseline-compare"])
    def test_overlong_staging_is_refused_before_sampling(self, tmp_path, capsys, mode):
        # 2e8 steps per staged run pass the per-run cap, but staging needs
        # 192 kept runs at each of 7 stages plus the final run: ~2.7e11 steps
        cfg = write_config(tmp_path, {
            "version": 1, "seed": 1, "fixture": "two-mode-symmetric",
            "overrides": {"total_time": 1e7, "step_size": 0.05},
        })
        start = time.perf_counter()
        code = main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        for key in ("schedule.c_samples", "overrides.step_size", "overrides.total_time"):
            assert key in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("mode, block", [("sample", "sample"), ("baseline-compare", "baseline")])
    def test_overlong_main_run_is_refused(self, tmp_path, capsys, mode, block):
        doc = {k: v for k, v in sample_config().items() if k != "sample"}
        doc[block] = {"main_time": 1e9}  # 2e10 steps at step_size 0.05
        cfg = write_config(tmp_path, doc)
        code = main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{block}.main_time" in err and "overrides.step_size" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("mode", ["sample", "baseline-compare"])
    def test_overlong_swap_segments_are_refused_before_sampling(self, tmp_path, capsys, mode):
        # total_time / step_size is 1000, but each of the ~2e13 swap segments
        # takes at least one step
        cfg = write_config(tmp_path, {
            "version": 1, "seed": 1, "fixture": "two-mode-symmetric",
            "overrides": {"total_time": 20.0, "step_size": 0.02, "swap_rate": 1e12},
        })
        start = time.perf_counter()
        code = main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "overrides.swap_rate" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, block", [("sample", "sample"), ("baseline-compare", "baseline")])
    @pytest.mark.parametrize("key", ["main_time", "overrides.step_size"])
    def test_run_shorter_than_one_step_is_refused(self, tmp_path, capsys, mode, block, key):
        doc = {k: v for k, v in sample_config().items() if k != "sample"}
        if key == "main_time":
            doc[block] = {"main_time": 0.01}  # below step_size 0.05
            named = f"{block}.main_time"
        else:
            doc["overrides"] = {**doc["overrides"], "step_size": 20.0}  # above total_time 10
            named = key
        cfg = write_config(tmp_path, doc)
        code = main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and named in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_inline_fixture_field_error_names_the_field(self, tmp_path, capsys):
        doc = dict(sample_config())
        doc["fixture"] = {**TINY_MIXTURE, "base": {"kind": "isotropic-gaussian", "sigma": -1.0}}
        cfg = write_config(tmp_path, doc)
        code = main(["--config", cfg, "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "fixture/" in err

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("overrides", "step_size", math.nan),
            ("overrides", "swap_rate", math.nan),
            ("schedule", "c_samples", math.nan),
            ("overrides", "total_time", math.inf),
        ],
        ids=["step_size-NaN", "swap_rate-NaN", "c_samples-NaN", "total_time-Infinity"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, block, key, value):
        doc = sample_config()
        doc[block] = {**doc[block], key: value}
        cfg = write_config(tmp_path, doc)  # json.dumps writes NaN and Infinity
        code = main(["--config", cfg, "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and ("NaN" if math.isnan(value) else "Infinity") in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"fixture": {**TINY_MIXTURE, "weights": [0.7, 0.7]}}, "fixture"),
            # json.dumps cannot write 1e400, so the text is patched in below
            ({"fixture": {**TINY_MIXTURE, "weights": [1.0], "centers": [["@1e400"]]}}, "1e400"),
            ({"fixture": {**TINY_MIXTURE, "weights": [1.0], "centers": [[1e300]]}}, "schedule"),
            ({"fixture": {**TINY_MIXTURE, "base": {"kind": "isotropic-gaussian", "sigma": 1e300}}},
             "fixture"),
            # w_min^4 underflows to 0 in the chain time
            ({"fixture": {**TINY_MIXTURE, "weights": [1e-90, 1.0]}}, "w_min"),
        ],
        ids=["weights-sum", "center-1e400", "center-1e300", "sigma-1e300", "weights-1e-90"],
    )
    def test_unusable_config_value_exits_2(self, tmp_path, capsys, change, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**sample_config(), **change}).replace('"@1e400"', "1e400"))
        code = main(["--config", str(path), "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_refused_run_leaves_no_out_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**sample_config(),
                                      "fixture": {**TINY_MIXTURE, "weights": [1e-90, 1.0]}})
        code = main(["--config", cfg, "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("schedule", "c_beta1", 1.0),
            ("schedule", "c_rate", 1.0),
            ("schedule", "c_time", 10.0),
            ("schedule", "c_step", 0.1),
            ("schedule", "wmin_exponent", 4.0),
            (None, "target_accuracy", 0.1),
            ("overrides", "init_std", 1.0),
            ("sample", "confidence", 0.05),
            ("verify", "tolerance_rel", 1e-5),
            ("verify", "num_gaussian_pairs", 50),
            ("verify", "num_probes", 10000),
        ],
        ids=["c_beta1", "c_rate", "c_time", "c_step", "wmin_exponent", "target_accuracy",
             "init_std", "confidence", "tolerance_rel", "num_gaussian_pairs", "num_probes"],
    )
    def test_removed_setting_exits_2_and_names_it(self, tmp_path, capsys, block, key, value):
        # each value is the one the code uses, so only the key itself is refused
        mode = "verify-divergences" if block == "verify" else "sample"
        doc = sample_config() if mode == "sample" else {"version": 1, "seed": 1}
        if block is None:
            doc[key] = value
        else:
            doc[block] = {**doc.get(block, {}), key: value}
        cfg = write_config(tmp_path, doc)
        code = main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("mode", ["sample", "verify-decomposition", "verify-divergences"])
    def test_seed_flag_is_validated_by_the_schema(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, sample_config())
        code = main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "o"),
                     "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: seed: ")
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "overrides, main_time, named",
        [
            # no run ever leaves level 1, so stage 2 keeps none of its runs
            ({"total_time": 2.0, "step_size": 0.5, "swap_rate": 1e-9}, 10.0,
             ("stage 2/8: 0/100 runs reached level 2", "overrides.swap_rate",
              "overrides.total_time", "schedule.c_samples")),
            # at beta_1 = 1/25 each step multiplies x by about -9 until it overflows
            ({"total_time": 1e5, "step_size": 250.0, "swap_rate": 1e-9}, 1e5,
             ("non-finite", "overrides.step_size")),
        ],
        ids=["failed-stage", "overflowing-step"],
    )
    def test_failed_run_exits_2_and_names_the_settings(self, tmp_path, capsys, overrides,
                                                       main_time, named):
        cfg = write_config(tmp_path, {
            "version": 1, "seed": 2, "fixture": "two-mode-symmetric",
            "schedule": {"c_samples": 0.05}, "overrides": overrides,
            "sample": {"main_time": main_time},
        })
        code = main(["--config", cfg, "--mode", "sample", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        for text in named:
            assert text in err
        assert not (tmp_path / "o" / "manifest.json").exists()



def test_quadratic_form_fixture_gets_the_logconcave_schedule():
    doc = sample_config()
    doc["fixture"] = {**TINY_MIXTURE, "base": {"kind": "quadratic-form", "H": [[25.0]]}}
    fixture = _fixture_from_config(doc)
    ladder, _ = _ladder_for(fixture, doc)
    expected, _ = build_ladder_logconcave(
        1, D=fixture.D, kappa=25.0, K=25.0, w_min=0.5, target_accuracy=0.1,
        constants=ScheduleConstants(c_samples=0.05),
    )
    np.testing.assert_array_equal(ladder.betas, expected.betas)


@pytest.mark.parametrize(
    "mode", ["sample", "verify-decomposition", "verify-divergences", "baseline-compare"])
def test_manifest_lists_every_file_the_mode_writes(tmp_path, mode):
    doc = {**sample_config(seed=4), "baseline": {"main_time": 50.0},
           "verify": {"num_simple": 2, "num_tempering": 1}}
    out = tmp_path / "out"
    # the tiny fixture may honestly fail the baseline margin; the files are written either way
    assert main(["--config", write_config(tmp_path, doc), "--mode", mode,
                 "--out", str(out)]) in (0, 1)
    listed = {e["path"] for e in read_manifest(out)["files"]}
    assert {p.name for p in out.iterdir()} - {"manifest.json"} == listed


class TestVerifyDecompositionMode:
    def config(self, seed=5):
        return {
            "version": 1,
            "seed": seed,
            "verify": {"num_simple": 3, "num_tempering": 2},
        }

    def test_small_suite_passes_and_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.config())
        out = tmp_path / "dec"
        assert main(["--config", cfg, "--mode", "verify-decomposition",
                     "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {
            "decomposition_report.json", "decomposition_summary.csv", "manifest.json"}
        report = json.loads((out / "decomposition_report.json").read_text())
        with open(out / "decomposition_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        # each simple instance yields two bound reports, each tempering one
        assert len(report) == len(rows) == 3 * 2 + 2
        assert ([(r["theorem"], r["instance_hash"]) for r in report]
                == [(r["theorem"], r["instance_hash"]) for r in rows])
        assert all(r["passed"] == "True" for r in rows)
        assert "8/8 bounds hold" in capsys.readouterr().out

    def test_manifest_hashes_match_files(self, tmp_path):
        cfg = write_config(tmp_path, self.config())
        out = tmp_path / "dec"
        main(["--config", cfg, "--mode", "verify-decomposition", "--out", str(out)])
        manifest = read_manifest(out)
        assert manifest["mode"] == "verify-decomposition"
        for entry in manifest["files"]:
            blob = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]

    def test_reruns_are_hash_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.config())
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--config", cfg, "--mode", "verify-decomposition",
                         "--out", str(out)]) == 0
            digests.append(read_manifest(out)["digest"])
        assert digests[0] == digests[1]

    def test_rerun_with_fewer_instances_replaces_the_report(self, tmp_path):
        out = tmp_path / "dec"
        cfg = write_config(tmp_path, self.config(), "big.json")
        assert main(["--config", cfg, "--mode", "verify-decomposition", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("not written by the CLI\n")
        small = {**self.config(), "verify": {"num_simple": 1, "num_tempering": 1}}
        cfg = write_config(tmp_path, small, "small.json")
        assert main(["--config", cfg, "--mode", "verify-decomposition", "--out", str(out)]) == 0
        assert len(json.loads((out / "decomposition_report.json").read_text())) == 2 * 1 + 1
        listed = {e["path"] for e in read_manifest(out)["files"]}
        assert listed == {"decomposition_report.json", "decomposition_summary.csv"}
        assert {p.name for p in out.iterdir()} == listed | {"manifest.json", "notes.txt"}
        assert (out / "notes.txt").read_text() == "not written by the CLI\n"

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, self.config(seed=8))
        out_serial = tmp_path / "serial"
        out_pool = tmp_path / "pool"
        assert main(["--config", cfg, "--mode", "verify-decomposition",
                     "--out", str(out_serial)]) == 0
        assert main(["--config", cfg, "--mode", "verify-decomposition",
                     "--out", str(out_pool), "--jobs", "2"]) == 0
        assert read_manifest(out_serial)["digest"] == read_manifest(out_pool)["digest"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, self.config(seed=5))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["--config", cfg, "--mode", "verify-decomposition", "--out", str(out_a)])
        main(["--config", cfg, "--mode", "verify-decomposition", "--out", str(out_b),
              "--seed", "6"])
        assert read_manifest(out_a)["digest"] != read_manifest(out_b)["digest"]


class TestVerifyDivergencesMode:
    def test_small_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "seed": 9})
        out = tmp_path / "div"
        assert main(["--config", cfg, "--mode", "verify-divergences",
                     "--out", str(out)]) == 0
        report = json.loads((out / "divergences_report.json").read_text())
        assert report["passed"] is True
        checks = report["checks"]
        assert checks[0]["check"] == "chi2-closed-vs-quadrature"
        assert checks[0]["num_cases"] == 51  # 50 random pairs + the pinned one
        names = {c["check"] for c in checks}
        assert "temp-scaling-sandwich" in names
        assert "partition-ratio-envelope" in names
        assert "kl-mixture-upper-bound" in names
        assert "checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [1, 4, 11, 14])
    def test_default_config_passes_where_p_underflows(self, tmp_path, seed):
        # at these seeds some pairs have chi^2 of 1e18-1e32 and p underflows
        # in linear space on part of their grid
        cfg = write_config(tmp_path, {"version": 1, "seed": seed})
        out = tmp_path / "div"
        assert main(["--config", cfg, "--mode", "verify-divergences",
                     "--out", str(out)]) == 0
        chi2 = json.loads((out / "divergences_report.json").read_text())["checks"][0]
        assert chi2["passed"] and max(c["closed"] for c in chi2["cases"]) > 1e18


class TestSampleMode:
    def test_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, sample_config())
        out = tmp_path / "run"
        assert main(["--config", cfg, "--mode", "sample", "--out", str(out)]) == 0
        for name in ("samples.csv", "run.json", "metrics.json", "manifest.json"):
            assert (out / name).exists()
        run = json.loads((out / "run.json").read_text())
        assert run["fixture"] == "tiny-pair"
        assert len(run["log_zhat"]) == len(run["betas"])
        assert len(run["stages"]) == len(run["betas"])
        assert run["stages"][-1]["log_ratio"] is None
        log_ratios = [s["log_ratio"] for s in run["stages"][:-1]]
        assert all(math.isfinite(r) for r in log_ratios)
        assert run["log_zhat"] == pytest.approx(np.cumsum([0.0] + log_ratios), abs=1e-12)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["num_samples"] >= 1
        assert "tv" in metrics
        assert "mode_masses" in metrics
        occupancy = np.asarray(metrics["level_occupancy"], dtype=float)
        assert occupancy.sum() == pytest.approx(1.0)
        with open(out / "samples.csv") as fh:
            header = fh.readline().strip()
        assert header == "x0"

    def test_perturbed_fixture_is_sampled_but_not_graded(self, tmp_path):
        # its oracle samples the two-mode density times exp(-0.1 sin x), which
        # has no exact mixture target to grade against
        doc = {**sample_config(), "fixture": "perturbed-mixture"}
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, doc), "--mode", "sample",
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["num_samples"] >= 1
        assert "tv" not in metrics and "mode_masses" not in metrics

    def test_close_modes_get_tv_but_no_mode_masses(self, tmp_path):
        doc = {**sample_config(), "fixture": CLOSE_PAIR}
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, doc), "--mode", "sample",
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["num_samples"] >= 1
        assert "tv" in metrics and "mode_masses" not in metrics

    def test_long_run_without_coldest_samples_exits_2(self, tmp_path, capsys):
        # no sample block: the long run lasts one staged run's 10 time units
        # and, at this seed, never reaches the coldest level
        cfg = write_config(tmp_path, {
            "version": 1, "seed": 11, "fixture": "two-mode-symmetric",
            "schedule": {"c_samples": 0.05},
            "overrides": {"total_time": 10.0, "step_size": 0.05, "swap_rate": 1.0},
        })
        out = tmp_path / "run"
        code = main(["--config", cfg, "--mode", "sample", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "sample.main_time" in err
        assert not out.exists()

    def test_identical_configs_reproduce_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, sample_config())
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--config", cfg, "--mode", "sample", "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        assert read_manifest(a)["digest"] == read_manifest(b)["digest"]
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()

    def test_different_seed_changes_samples(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["--config", write_config(tmp_path, sample_config(seed=11), "c1.json"),
              "--mode", "sample", "--out", str(out_a)])
        main(["--config", write_config(tmp_path, sample_config(seed=12), "c2.json"),
              "--mode", "sample", "--out", str(out_b)])
        assert read_manifest(out_a)["digest"] != read_manifest(out_b)["digest"]


class TestBaselineCompareMode:
    def test_rejects_unimodal_fixture(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "version": 1, "seed": 2, "fixture": "single-gaussian",
        })
        code = main(["--config", cfg, "--mode", "baseline-compare",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mixture fixture" in capsys.readouterr().err

    def test_rejects_fixture_without_a_target(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**sample_config(), "fixture": "perturbed-mixture"})
        code = main(["--config", cfg, "--mode", "baseline-compare",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mixture fixture" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_start_center_is_refused_before_sampling(self, tmp_path, capsys):
        doc = sample_config(seed=4)
        # the staging and long run alone take seconds; the check comes first
        doc["baseline"] = {"main_time": 2000.0, "start_center": 5}
        del doc["sample"]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "base"
        start = time.perf_counter()
        code = main(["--config", cfg, "--mode", "baseline-compare", "--out", str(out)])
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "start_center" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_close_modes_are_refused_before_sampling(self, tmp_path, capsys):
        doc = {**sample_config(seed=4), "fixture": CLOSE_PAIR, "baseline": {"main_time": 50.0}}
        del doc["sample"]
        out = tmp_path / "base"
        start = time.perf_counter()
        code = main(["--config", write_config(tmp_path, doc), "--mode", "baseline-compare",
                     "--out", str(out)])
        assert code == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and "fixture" in err
        assert not out.exists()

    def test_long_run_without_coldest_samples_exits_2(self, tmp_path, capsys):
        # no baseline block: the long run lasts one staged run's 10 time units
        # and, at this seed, never reaches the coldest level
        cfg = write_config(tmp_path, {
            "version": 1, "seed": 11, "fixture": "two-mode-symmetric",
            "schedule": {"c_samples": 0.05},
            "overrides": {"total_time": 10.0, "step_size": 0.05, "swap_rate": 1.0},
        })
        out = tmp_path / "base"
        code = main(["--config", cfg, "--mode", "baseline-compare", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "baseline.main_time" in err
        assert not (out / "manifest.json").exists()

    def test_writes_comparison_metrics(self, tmp_path):
        doc = sample_config(seed=4)
        doc["baseline"] = {"main_time": 200.0, "thin": 1}
        del doc["sample"]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "base"
        code = main(["--config", cfg, "--mode", "baseline-compare", "--out", str(out)])
        # the tiny fixture's barrier is low, so the meta-stability margin may
        # honestly fail; the artifact contract must hold either way
        assert code in (0, 1)
        metrics = json.loads((out / "baseline_metrics.json").read_text())
        for key in ("tempering", "langevin", "budget", "passed"):
            assert key in metrics
        assert metrics["budget"]["tempering_steps"] == metrics["budget"]["langevin_steps"]
        assert (out / "manifest.json").exists()
        n_masses = len(metrics["tempering"]["mode_masses"])
        assert n_masses == 2
