"""Temperature schedule construction and partition-estimate envelopes."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from temperlab import (
    RunParams,
    ScheduleConstants,
    TemperatureLadder,
    build_ladder_gaussian,
    build_ladder_logconcave,
    validate_partition_estimates,
)


GAUSS_ARGS = dict(dim=2, D=10.0, sigma=1.0, w_min=0.5, target_accuracy=0.1)


def test_gaussian_schedule_frozen_shape():
    ladder, params = build_ladder_gaussian(**GAUSS_ARGS)
    assert ladder.betas[0] == pytest.approx(0.01)  # sigma^2 / D^2
    assert ladder.betas[-1] == 1.0
    assert ladder.num_levels == 16
    expected_ratio = 1.0 + 1.0 / (2 + math.log(2.0))
    assert ladder.betas[1] / ladder.betas[0] == pytest.approx(expected_ratio, rel=1e-14)
    assert params.swap_rate == pytest.approx(1.0 / 100.0)
    assert params.init_std == pytest.approx(1.0 / math.sqrt(ladder.betas[0]))


def test_schedule_is_deterministic():
    a1, p1 = build_ladder_gaussian(**GAUSS_ARGS)
    a2, p2 = build_ladder_gaussian(**GAUSS_ARGS)
    np.testing.assert_array_equal(a1.betas, a2.betas)
    assert p1 == p2


def test_betas_strictly_increasing_and_bounded():
    for D in (2.0, 7.0, 31.0):
        ladder, _ = build_ladder_gaussian(
            dim=3, D=D, sigma=1.0, w_min=0.25, target_accuracy=0.2
        )
        b = ladder.betas
        assert np.all(np.diff(b) > 0)
        assert b[-1] == 1.0
        assert 0 < b[0] <= 1
        # every step respects the schedule's ratio bound
        ratio = 1.0 + 1.0 / (3 + math.log(1.0 / 0.25))
        assert np.all(b[1:] / b[:-1] <= ratio * (1 + 1e-12))


def test_ratio_product_telescopes():
    for D, w in ((5.0, 0.5), (20.0, 0.1), (100.0, 0.3)):
        ladder, _ = build_ladder_gaussian(
            dim=2, D=D, sigma=1.0, w_min=w, target_accuracy=0.1
        )
        prod = float(np.prod(ladder.betas[1:] / ladder.betas[:-1]))
        assert prod == pytest.approx(1.0 / ladder.betas[0], rel=1e-10)


def test_level_count_scales_with_log_spread():
    # doubling ln(D/sigma) at fixed d should double the level count +-2
    _, _ = GAUSS_ARGS, None
    l1, _ = build_ladder_gaussian(
        dim=2, D=math.e**2, sigma=1.0, w_min=0.25, target_accuracy=0.1
    )
    l2, _ = build_ladder_gaussian(
        dim=2, D=math.e**4, sigma=1.0, w_min=0.25, target_accuracy=0.1
    )
    assert abs(l2.num_levels - 2 * l1.num_levels) <= 2


def test_gaussian_requires_spread_at_least_sigma():
    with pytest.raises(ValueError):
        build_ladder_gaussian(dim=1, D=0.5, sigma=1.0, w_min=0.5, target_accuracy=0.1)


def test_step_size_three_way_minimum():
    ladder, params = build_ladder_gaussian(**GAUSS_ARGS)
    d, D, sigma, eps = 2, 10.0, 1.0, 0.1
    T = params.total_time
    base = 0.1 * (sigma**3 * eps / D**2)
    terms = {
        "diffusion": sigma**4 / ((D / sigma + math.sqrt(d)) * T),
        "spread": 1.0 / math.sqrt(D),
        "drift": sigma * eps / (d * T),
    }
    expect = base * min(terms.values())
    assert params.step_size == pytest.approx(expect, rel=1e-12)


class TestLogconcaveSchedule:
    def test_identity_envelope_matches_gaussian_form(self):
        # kappa = K = 1/sigma^2 reduces to the Gaussian beta1 up to the
        # documented extra 1/d factor
        ladder, params = build_ladder_logconcave(
            dim=2, D=10.0, kappa=1.0, K=1.0, w_min=0.5, target_accuracy=0.1
        )
        assert ladder.betas[0] == pytest.approx(1.0 / (2 * 100.0))
        assert ladder.betas[-1] == 1.0
        assert params.init_std == pytest.approx(1.0 / math.sqrt(ladder.betas[0]))

    def test_ratio_uses_condition_number(self):
        kappa, K, d = 0.5, 2.0, 3
        ladder, _ = build_ladder_logconcave(
            dim=d, D=8.0, kappa=kappa, K=K, w_min=0.5, target_accuracy=0.1
        )
        expect = 1.0 + kappa / (K * d * (math.log(K / kappa) + 1.0))
        assert ladder.betas[1] / ladder.betas[0] == pytest.approx(expect, rel=1e-12)

    def test_spread_floor_enforced(self):
        with pytest.raises(ValueError):
            build_ladder_logconcave(
                dim=1, D=0.01, kappa=1.0, K=1.0, w_min=0.5, target_accuracy=0.1
            )

    def test_envelope_ordering_enforced(self):
        with pytest.raises(ValueError):
            build_ladder_logconcave(
                dim=1, D=5.0, kappa=2.0, K=1.0, w_min=0.5, target_accuracy=0.1
            )

    def test_telescoping(self):
        ladder, _ = build_ladder_logconcave(
            dim=2, D=12.0, kappa=0.5, K=3.0, w_min=0.2, target_accuracy=0.1
        )
        prod = float(np.prod(ladder.betas[1:] / ladder.betas[:-1]))
        assert prod == pytest.approx(1.0 / ladder.betas[0], rel=1e-10)


class TestLadderType:
    def build(self):
        ladder, _ = build_ladder_gaussian(**GAUSS_ARGS)
        return ladder

    def test_prefix_keeps_leading_betas(self):
        ladder = self.build()
        sub = ladder.prefix(3)
        np.testing.assert_array_equal(sub.betas, ladder.betas[:3])
        assert sub.num_levels == 3

    def test_prefix_full_length_is_complete(self):
        ladder = self.build()
        sub = ladder.prefix(ladder.num_levels)
        assert sub.betas[-1] == 1.0

    def test_prefix_range_checked(self):
        ladder = self.build()
        with pytest.raises(ValueError):
            ladder.prefix(0)
        with pytest.raises(ValueError):
            ladder.prefix(ladder.num_levels + 1)

    def test_partition_estimates_replaced(self):
        ladder = self.build()
        z = np.linspace(1.0, 2.0, ladder.num_levels)
        upd = ladder.with_partition_estimates(z)
        np.testing.assert_array_equal(upd.log_partition_estimates, np.log(z))
        # original untouched
        np.testing.assert_array_equal(ladder.log_partition_estimates, 0.0)

    def test_rejects_decreasing_betas(self):
        with pytest.raises(ValueError):
            TemperatureLadder(
                betas=np.array([0.5, 0.4, 1.0]),
                log_partition_estimates=np.zeros(3),
            )

    def test_rejects_cold_end_not_one(self):
        with pytest.raises(ValueError):
            TemperatureLadder(
                betas=np.array([0.25, 0.5]),
                log_partition_estimates=np.zeros(2),
            )


class TestRunParamsValidation:
    def base(self):
        _, params = build_ladder_gaussian(**GAUSS_ARGS)
        return params

    def test_step_cannot_exceed_horizon(self):
        p = self.base()
        with pytest.raises(ValueError):
            replace(p, step_size=p.total_time * 2)

    def test_tiny_swap_rate_allowed(self):
        # the no-swap degenerate case must stay constructible
        p = self.base()
        q = replace(p, swap_rate=1e-12)
        assert q.swap_rate == 1e-12

    def test_accuracy_range(self):
        p = self.base()
        with pytest.raises(ValueError):
            replace(p, target_accuracy=1.5)


def test_schedule_constants_validated():
    with pytest.raises(ValueError, match="c_samples"):
        ScheduleConstants(c_samples=0.0)
    with pytest.raises(ValueError, match="c_samples"):
        ScheduleConstants(c_samples=math.nan)


LOGCONCAVE_ARGS = dict(dim=2, D=5.0, kappa=0.5, K=1.0, w_min=0.5, target_accuracy=0.1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TemperatureLadder(betas=[math.nan, 1.0], log_partition_estimates=np.zeros(2)),
         "beta"),
        (lambda: TemperatureLadder(betas=[0.5, 1.0], log_partition_estimates=[0.0, math.nan]),
         "log_partition_estimates must be finite"),
        (lambda: TemperatureLadder(betas=[0.5, 1.0], log_partition_estimates=[0.0, -math.inf]),
         "log_partition_estimates must be finite"),
        # linear estimates are logged, so 0 and inf are refused before np.log
        (lambda: build_ladder_gaussian(**GAUSS_ARGS)[0].with_partition_estimates(np.zeros(16)),
         "partition_estimates must be positive and finite"),
        (lambda: build_ladder_gaussian(**GAUSS_ARGS)[0].with_partition_estimates(
            np.full(16, math.inf)), "partition_estimates must be positive and finite"),
        (lambda: replace(build_ladder_gaussian(**GAUSS_ARGS)[1], step_size=math.nan),
         "step_size"),
        (lambda: replace(build_ladder_gaussian(**GAUSS_ARGS)[1], swap_rate=math.nan),
         "swap_rate"),
        (lambda: replace(build_ladder_gaussian(**GAUSS_ARGS)[1], init_std=math.nan),
         "init_std"),
        (lambda: replace(build_ladder_gaussian(**GAUSS_ARGS)[1], total_time=math.inf),
         "total_time"),
        (lambda: build_ladder_gaussian(**{**GAUSS_ARGS, "D": math.nan}), "D must"),
        (lambda: build_ladder_gaussian(**{**GAUSS_ARGS, "sigma": math.nan}), "sigma"),
        (lambda: build_ladder_logconcave(**{**LOGCONCAVE_ARGS, "D": math.nan}), "D must"),
        (lambda: build_ladder_gaussian(**{**GAUSS_ARGS, "D": math.inf}), "D must"),
        (lambda: build_ladder_gaussian(**{**GAUSS_ARGS, "sigma": math.inf}), "sigma"),
        (lambda: build_ladder_logconcave(**{**LOGCONCAVE_ARGS, "D": math.inf}), "D must"),
        (lambda: build_ladder_logconcave(**{**LOGCONCAVE_ARGS, "kappa": math.inf}), "kappa="),
        (lambda: build_ladder_logconcave(**{**LOGCONCAVE_ARGS, "K": math.inf}), "K="),
        # w_min^4 underflows to 0
        (lambda: build_ladder_gaussian(**{**GAUSS_ARGS, "w_min": 1e-90}), "w_min=1e-90"),
        (lambda: build_ladder_logconcave(**{**LOGCONCAVE_ARGS, "w_min": 1e-90}), "w_min=1e-90"),
        # D^2 overflows
        (lambda: build_ladder_gaussian(**{**GAUSS_ARGS, "D": 1e155}), r"D=1e\+155"),
        (lambda: build_ladder_logconcave(**{**LOGCONCAVE_ARGS, "D": 1e155}), r"D=1e\+155"),
        # sigma^4 overflows
        (lambda: build_ladder_gaussian(**{**GAUSS_ARGS, "sigma": 1e100, "D": 1e100}),
         r"sigma=1e\+100"),
        # the ladder ratio 1 + kappa / (K d cond) rounds to 1
        (lambda: build_ladder_logconcave(**{**LOGCONCAVE_ARGS, "kappa": 1e-300}),
         "kappa=1e-300"),
    ],
    ids=["ladder-beta", "nan-log-estimate", "inf-log-estimate", "zero-estimate",
         "inf-estimate", "step_size", "swap_rate", "init_std", "inf-total_time", "gaussian-D",
         "gaussian-sigma", "logconcave-D", "inf-gaussian-D", "inf-gaussian-sigma",
         "inf-logconcave-D", "inf-kappa", "inf-K", "tiny-gaussian-w_min",
         "tiny-logconcave-w_min", "huge-gaussian-D", "huge-logconcave-D",
         "huge-gaussian-sigma", "tiny-kappa"],
)
def test_non_finite_input_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_overlong_ladder_is_refused_before_it_is_built():
    # uncapped, this schedule asks for 14,089,468 levels (about 113 MB of betas)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="14089468 levels, more than 1000000"):
            build_ladder_logconcave(dim=40, D=3e4, kappa=0.02, K=25.0, w_min=1.0,
                                    target_accuracy=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


class TestPartitionEnvelope:
    def make_ladder(self, L=5):
        betas = np.array([2.0 ** (i - L + 1) for i in range(L)])
        return TemperatureLadder(
            betas=betas,
            log_partition_estimates=np.zeros(L),
        )

    def test_exact_values_pass(self):
        ladder = self.make_ladder()
        exact = np.array([10.0 * 0.7**i for i in range(5)])
        est = exact * 3.0  # common factor cancels in the anchored ratios
        check = validate_partition_estimates(
            ladder.with_partition_estimates(est), exact
        )
        assert check.passed
        assert np.all(check.ok_per_level)
        np.testing.assert_allclose(check.ratios[0], 1.0)

    def test_envelope_widens_geometrically(self):
        ladder = self.make_ladder()
        L = ladder.num_levels
        check = validate_partition_estimates(ladder, np.ones(L))
        for i in range(L):
            assert check.lo[i] == pytest.approx((1 - 1 / L) ** i)
            assert check.hi[i] == pytest.approx((1 + 1 / L) ** i)

    def test_estimate_outside_envelope_fails(self):
        ladder = self.make_ladder()
        exact = np.ones(5)
        bad = np.array([1.0, 1.0, 5.0, 1.0, 1.0])
        check = validate_partition_estimates(
            ladder.with_partition_estimates(bad), exact
        )
        assert not check.passed
        assert not check.ok_per_level[2]
        # exceedance factor relative to the upper envelope (1+1/5)^2
        assert check.worst_ratio == pytest.approx(5.0 / 1.2**2)
        assert check.worst_ratio > 1.0

    def test_boundary_value_counts_as_inside(self):
        ladder = self.make_ladder()
        L = ladder.num_levels
        est = np.ones(L)
        est[1] = 1.0 + 1.0 / L  # exactly on the upper envelope edge
        check = validate_partition_estimates(
            ladder.with_partition_estimates(est), np.ones(L)
        )
        assert check.ok_per_level[1]
