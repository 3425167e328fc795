"""Sampler tests: step arithmetic, event times, level moves, full runs.

The replay tests rebuild whole trajectories from scratch out of the public
single-step pieces and require bit-identical agreement with the batched
driver, so any drift in draw order or arithmetic grouping fails loudly.
"""

import math
import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temperlab import (
    BaseFunction,
    EstimationFailure,
    FunctionOracle,
    MixtureTarget,
    NonFiniteGradient,
    RngStream,
    RunParams,
    ScheduleConstants,
    TemperatureLadder,
    build_ladder_gaussian,
    draw_swap_times,
    estimate_log_partition_ratio,
    gaussian_log_partition,
    get_fixture,
    langevin_step,
    run_main,
    run_plain_langevin,
    run_stlmc,
    substep_schedule,
    swap_attempt,
)
from temperlab.sampler import SwapStats, _run_steps_bound


class ZeroNoiseRng:
    """Test stub: zero normals, fixed uniforms, unit exponentials."""

    def __init__(self, uniform_value=0.25):
        self.uniform_value = uniform_value

    def normal(self, size=None):
        return np.zeros(size if size is not None else ())

    def uniform(self):
        return self.uniform_value

    def exponentials(self, scale, size):
        return np.full(size, scale)


class UniformSequenceRng(ZeroNoiseRng):
    """ZeroNoiseRng whose uniforms come from a list, in order."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def uniform(self):
        return next(self.uniforms)


class NoDrawRng:
    """Test stub: any draw fails the test."""

    def normal(self, *args):
        raise AssertionError("drew from the rng")

    uniform = exponentials = normal


def quadratic_oracle(dim=2):
    return FunctionOracle(
        value_fn=lambda x: 0.5 * float(x @ x), grad_fn=lambda x: x, dim=dim
    )


def flat_oracle(dim=1):
    return FunctionOracle(
        value_fn=lambda x: 0.0, grad_fn=lambda x: np.zeros_like(x), dim=dim
    )


def two_level_ladder(beta1=0.3, z2=0.4):
    return TemperatureLadder(
        betas=np.array([beta1, 1.0]),
        log_partition_estimates=np.log([1.0, z2]),
    )


# ---------------------------------------------------------------------------
# langevin_step


def test_zero_noise_step_is_gradient_descent():
    x = langevin_step(
        quadratic_oracle(), 1.0, np.array([1.0, 0.0]), 0.1, ZeroNoiseRng()
    )
    np.testing.assert_allclose(x, [0.9, 0.0], rtol=1e-15)


def test_flat_oracle_is_pure_diffusion():
    rng = RngStream(101)
    eta = 0.5
    orc = flat_oracle()
    x0 = np.array([0.0])
    moves = np.array(
        [langevin_step(orc, 1.0, x0, eta, rng)[0] for _ in range(100_000)]
    )
    assert abs(moves.var() - 2 * eta) < 0.03 * 2 * eta
    assert abs(moves.mean()) < 4 * math.sqrt(2 * eta / 100_000)


def test_langevin_step_tempered_gradient():
    # beta scales the drift but not the noise
    x = langevin_step(
        quadratic_oracle(), 0.25, np.array([2.0, -4.0]), 0.2, ZeroNoiseRng()
    )
    np.testing.assert_allclose(x, [2.0 - 0.2 * 0.25 * 2.0, -4.0 + 0.2 * 0.25 * 4.0])


def test_langevin_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        langevin_step(quadratic_oracle(), 1.0, np.zeros(2), 0.0, ZeroNoiseRng())
    with pytest.raises(ValueError):
        langevin_step(quadratic_oracle(), 0.0, np.zeros(2), 0.1, ZeroNoiseRng())


def test_non_finite_gradient_carries_position():
    orc = FunctionOracle(
        value_fn=lambda x: 0.0,
        grad_fn=lambda x: np.array([math.nan]),
        dim=1,
    )
    where = np.array([3.25])
    with pytest.raises(NonFiniteGradient) as err:
        langevin_step(orc, 1.0, where, 0.1, ZeroNoiseRng())
    np.testing.assert_array_equal(err.value.position, where)


def _plain_run(orc):
    return run_plain_langevin(orc, 1.0, 4.0, 3, np.zeros(1), ZeroNoiseRng())


def _tempering_run(orc):
    ladder = TemperatureLadder(betas=np.array([1.0]), log_partition_estimates=np.zeros(1))
    params = RunParams(swap_rate=1e-12, step_size=4.0, total_time=12.0, init_std=1.0)
    return run_stlmc(orc, ladder, params, ZeroNoiseRng(), thin=1)


def _single_step(orc):
    return langevin_step(orc, 1.0, np.zeros(1), 4.0, ZeroNoiseRng())


@pytest.mark.parametrize("run", [_plain_run, _tempering_run, _single_step],
                         ids=["plain", "stlmc", "step"])
@pytest.mark.parametrize("grad", [math.nan, -1e308], ids=["nan-gradient", "overflow"])
def test_runners_stop_at_the_last_finite_position(run, grad):
    # every runner starts at 0 with zero noise and step 4; a gradient of
    # -1e308 is finite but moves the position past the largest float
    orc = FunctionOracle(value_fn=lambda x: 0.0, grad_fn=lambda x: np.full(1, grad), dim=1)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteGradient) as err:
        run(orc)
    np.testing.assert_array_equal(err.value.position, np.zeros(1))


def test_ou_stationary_variance_matches_independent_simulation():
    # Euler chain x' = (1-eta) x + sqrt(2 eta) xi has exact stationary
    # per-coordinate variance 2 eta / (1 - (1-eta)^2) = 1/(1 - eta/2)
    eta = 0.05
    exact = 1.0 / (1.0 - eta / 2.0)
    rec = run_plain_langevin(
        quadratic_oracle(dim=1), 1.0, eta, 200_000, np.zeros(1), RngStream(7)
    )
    ours = rec.positions[1000:, 0].var()
    assert abs(ours - exact) < 0.05 * exact

    gen = np.random.default_rng(12345)  # independent loop, not RngStream
    x, acc = 0.0, []
    for _ in range(200_000):
        x = (1.0 - eta) * x + math.sqrt(2 * eta) * gen.standard_normal()
        acc.append(x)
    theirs = np.array(acc[1000:]).var()
    assert abs(theirs - exact) < 0.05 * exact
    assert abs(ours - theirs) < 0.1 * exact


# ---------------------------------------------------------------------------
# substep_schedule


@given(
    seg=st.floats(min_value=1e-6, max_value=1e3),
    eta=st.floats(min_value=1e-6, max_value=10.0),
)
@settings(max_examples=300)
def test_substep_schedule_properties(seg, eta):
    m, h = substep_schedule(seg, eta)
    assert m >= 1
    assert m == max(1, math.ceil(seg / eta))
    assert h <= eta * (1 + 1e-15)
    assert m * h == pytest.approx(seg, rel=1e-12)


def test_substep_schedule_short_segment_is_single_step():
    m, h = substep_schedule(0.03, 0.1)
    assert (m, h) == (1, 0.03)


def test_substep_schedule_rejects_nonpositive():
    with pytest.raises(ValueError):
        substep_schedule(0.0, 0.1)
    with pytest.raises(ValueError):
        substep_schedule(1.0, 0.0)


# ---------------------------------------------------------------------------
# draw_swap_times


def test_event_times_inside_horizon_and_increasing():
    rng = RngStream(5)
    for _ in range(50):
        t = draw_swap_times(rng, 2.0, 10.0)
        assert np.all((t > 0) & (t < 10.0))
        assert np.all(np.diff(t) > 0)


def test_event_count_mean():
    rng = RngStream(17)
    lam, T, runs = 2.0, 1000.0, 1000
    counts = np.array([draw_swap_times(rng, lam, T).size for _ in range(runs)])
    se = math.sqrt(lam * T / runs)
    assert abs(counts.mean() - lam * T) < 3 * se


def test_event_count_tail():
    # lam*T = 10; mass at >= 40 events should be tiny
    rng = RngStream(23)
    counts = np.array(
        [draw_swap_times(rng, 1.0, 10.0).size for _ in range(100_000)]
    )
    assert np.mean(counts >= 40) < 1e-3


def test_horizon_shorter_than_first_gap_gives_empty():
    t = draw_swap_times(RngStream(1), 1e-9, 1.0)
    assert t.size == 0


def test_rate_beyond_the_run_bound_is_refused_before_drawing():
    # 2e13 events would be a 160 TB array; the bound is checked before any draw
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rate 1e\\+12"):
        draw_swap_times(RngStream(0), 1e12, 20.0)
    assert time.perf_counter() - start < 1.0


def test_gap_distribution_moments():
    rng = RngStream(31)
    t = draw_swap_times(rng, 4.0, 5000.0)
    gaps = np.diff(np.concatenate([[0.0], t]))
    n = gaps.size
    assert abs(gaps.mean() - 0.25) < 4 * 0.25 / math.sqrt(n)
    assert abs(gaps.std() - 0.25) < 4 * 0.25 / math.sqrt(n)


# ---------------------------------------------------------------------------
# swap_attempt


def test_swap_preserves_position_and_oob_counts():
    ladder = two_level_ladder()
    orc = quadratic_oracle(dim=1)
    stats = SwapStats()
    pos = np.array([1.5])
    # uniform 0.75 -> proposes up, which is out of bounds at the top
    out = swap_attempt(2, pos, ladder, orc, ZeroNoiseRng(0.75), stats)
    assert out == 2
    np.testing.assert_array_equal(pos, [1.5])
    assert stats.out_of_bounds == 1
    assert stats.attempts == 1
    assert stats.accepts == 0


def test_swap_single_level_never_moves():
    ladder = TemperatureLadder(
        betas=np.array([1.0]),
        log_partition_estimates=np.zeros(1),
    )
    orc = quadratic_oracle(dim=1)
    rng = RngStream(2)
    level = 1
    for _ in range(100):
        level = swap_attempt(level, np.zeros(1), ladder, orc, rng)
        assert level == 1


def test_swap_equal_levels_always_accept():
    # degenerate ladder stub: equal temperatures and equal estimates
    ladder = SimpleNamespace(
        betas=np.array([0.5, 0.5]),
        log_partition_estimates=np.log([2.0, 2.0]),
        num_levels=2,
    )
    orc = quadratic_oracle(dim=1)
    rng = RngStream(3)
    ups = 0
    x = np.array([2.0])
    for _ in range(500):
        nxt = swap_attempt(1, x, ladder, orc, rng)
        if nxt == 2:
            ups += 1
    # every in-bounds proposal (about half of them) must be accepted
    assert ups > 0
    stats = SwapStats()
    for _ in range(500):
        swap_attempt(1, x, ladder, orc, rng, stats)
    assert stats.accepts_up == stats.attempts_up


def test_swap_zero_potential_reduces_to_estimate_ratio():
    # f(x) = 0 so acceptance = min(zhat_i / zhat_j, 1)
    ladder = two_level_ladder(beta1=0.3, z2=0.4)
    orc = flat_oracle()
    rng = RngStream(11)
    stats = SwapStats()
    for _ in range(40_000):
        swap_attempt(1, np.zeros(1), ladder, orc, rng, stats)
    p_expect = min(1.0, 1.0 / 0.4)  # zhat_1/zhat_2 > 1, so always accept
    assert stats.accepts_up == stats.attempts_up
    assert p_expect == 1.0
    stats2 = SwapStats()
    for _ in range(40_000):
        swap_attempt(2, np.zeros(1), ladder, orc, rng, stats2)
    p_expect = min(1.0, 0.4 / 1.0)
    freq = stats2.accepts_down / stats2.attempts_down
    se = math.sqrt(p_expect * (1 - p_expect) / stats2.attempts_down)
    assert abs(freq - p_expect) < 3 * se


def test_swap_acceptance_matches_analytic_ratio():
    ladder = two_level_ladder(beta1=0.3, z2=0.4)
    orc = quadratic_oracle(dim=1)
    x = np.array([math.sqrt(2 * 1.7)])  # f(x) = 1.7
    fx = orc.value(x)
    p_up = min(1.0, math.exp((0.3 - 1.0) * fx) * 1.0 / 0.4)
    rng = RngStream(13)
    stats = SwapStats()
    for _ in range(100_000):
        swap_attempt(1, x, ladder, orc, rng, stats)
    freq = stats.accepts_up / stats.attempts_up
    se = math.sqrt(p_up * (1 - p_up) / stats.attempts_up)
    assert 0.0 < p_up < 1.0
    assert abs(freq - p_up) < 3 * se


def test_swap_acceptance_on_exact_400_dimensional_log_normalizers():
    # the exact normalizers of a unit Gaussian span e^921 over this ladder's
    # 1846 levels, past the float range, so only their logs can be stored; a
    # move between the two coldest levels accepts with
    # min(1, exp((beta_i - beta_j) f(x) + log zhat_i - log zhat_j))
    ladder, _ = build_ladder_gaussian(dim=400, D=10.0, sigma=1.0, w_min=1.0,
                                      target_accuracy=0.1)
    target = MixtureTarget(weights=np.ones(1), centers=np.zeros((1, 400)),
                           base=BaseFunction.isotropic_gaussian(1.0), dim=400)
    log_z = np.array([gaussian_log_partition(target, float(b)) for b in ladder.betas])
    assert ladder.num_levels == 1846 and log_z[0] - log_z[-1] > 709.0  # exp() overflows
    ladder = replace(ladder, log_partition_estimates=log_z)
    orc = quadratic_oracle(dim=400)  # the unit Gaussian's potential
    L, b = ladder.num_levels, ladder.betas
    for x, i, j, direction in ((np.full(400, 1.1), L - 1, L, 0.75),
                               (np.full(400, 0.85), L, L - 1, 0.25)):
        fx = orc.value(x)
        p = min(1.0, math.exp((b[i - 1] - b[j - 1]) * fx + log_z[i - 1] - log_z[j - 1]))
        assert 0.1 < p < 0.99
        # the first uniform proposes i -> j, the second accepts when below p
        assert swap_attempt(i, x, ladder, orc, UniformSequenceRng([direction, p * 0.999])) == j
        assert swap_attempt(i, x, ladder, orc, UniformSequenceRng([direction, p * 1.001])) == i


def test_swap_detailed_balance_at_frozen_position():
    # accept(i->j) pi(i) must balance accept(j->i) pi(j) with
    # pi(i) proportional to exp(-beta_i f(x)) / zhat_i
    ladder = two_level_ladder(beta1=0.25, z2=0.7)
    orc = quadratic_oracle(dim=1)
    x = np.array([1.9])
    fx = orc.value(x)
    n = 60_000
    rng = RngStream(19)
    s1, s2 = SwapStats(), SwapStats()
    for _ in range(n):
        swap_attempt(1, x, ladder, orc, rng, s1)
        swap_attempt(2, x, ladder, orc, rng, s2)
    a12 = s1.accepts_up / s1.attempts_up
    a21 = s2.accepts_down / s2.attempts_down
    pi1 = math.exp(-0.25 * fx) / 1.0
    pi2 = math.exp(-1.0 * fx) / 0.7
    ratio = (a12 * pi1) / (a21 * pi2)
    assert abs(ratio - 1.0) < 0.05


# ---------------------------------------------------------------------------
# run_stlmc


def small_gaussian_setup(total_time=20.0, eta=0.1, lam=1.0, levels=3):
    fx = get_fixture("single-gaussian")
    ladder, params = build_ladder_gaussian(
        dim=1, D=3.0, sigma=1.0, w_min=1.0, target_accuracy=0.2
    )
    sub = ladder.prefix(levels)
    exact_z = np.array(
        [
            math.exp(gaussian_log_partition(fx.target, float(b)))
            for b in sub.betas
        ]
    )
    sub = sub.with_partition_estimates(exact_z / exact_z[0])
    params = replace(
        params, total_time=total_time, step_size=eta, swap_rate=lam
    )
    return fx.oracle, sub, params


def test_run_is_deterministic():
    orc, ladder, params = small_gaussian_setup()
    a = run_stlmc(orc, ladder, params, RngStream(42), thin=3)
    b = run_stlmc(orc, ladder, params, RngStream(42), thin=3)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.levels, b.levels)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.steps, b.steps)
    assert a.levels[-1] == b.levels[-1]


def test_record_structure_invariants():
    orc, ladder, params = small_gaussian_setup(total_time=30.0)
    rec = run_stlmc(orc, ladder, params, RngStream(8), thin=1)
    assert rec.steps[0] == 0 and rec.times[0] == 0.0 and rec.levels[0] == 1
    assert rec.times[-1] == params.total_time
    assert np.all(np.diff(rec.times) >= 0)
    assert np.all(np.diff(rec.steps) >= 0)
    assert np.all((rec.levels >= 1) & (rec.levels <= ladder.num_levels))
    assert np.all(np.isfinite(rec.positions))
    assert rec.total_steps == rec.steps[-1]
    # with thin=1 every step is recorded, so no time gap exceeds eta
    assert np.max(np.diff(rec.times)) <= params.step_size * (1 + 1e-12)
    occ = rec.level_occupancy()
    assert occ.shape == (ladder.num_levels,)
    assert occ.sum() == pytest.approx(1.0)
    for thin in (1, 3):
        rec = run_stlmc(orc, ladder, params, RngStream(8), thin=thin)
        # the start, every thin-th step, the state after each level move, the end
        assert rec.steps.size == 2 + rec.swap_stats.attempts + rec.total_steps // thin


def test_trajectory_replays_from_single_steps():
    """Rebuild the whole run out of langevin_step + swap_attempt, bit for bit.
    At swap rate 50 > 1/eta most segments are shorter than eta and still take
    one step each."""
    for lam in (1.0, 50.0):
        orc, ladder, params = small_gaussian_setup(total_time=15.0, eta=0.07, lam=lam)
        seed = 99
        rec = run_stlmc(orc, ladder, params, RngStream(seed), thin=1)

        rng = RngStream(seed)
        x = params.init_std * rng.normal(1)
        events = draw_swap_times(rng, params.swap_rate, params.total_time)
        level = 1
        rows = [(0.0, 1, x.copy())]
        seg_start = 0.0
        boundaries = np.concatenate([events, [params.total_time]])
        for k, seg_end in enumerate(boundaries):
            seg = seg_end - seg_start
            if seg > 0:
                m, h = substep_schedule(seg, params.step_size)
                beta = float(ladder.betas[level - 1])
                for j in range(m):
                    x = langevin_step(orc, beta, x, h, rng)
                    rows.append((seg_start + (j + 1) * h, level, x.copy()))
            seg_start = seg_end
            if k < events.size:
                level = swap_attempt(level, x, ladder, orc, rng)
                rows.append((seg_end, level, x.copy()))
        rows.append((params.total_time, level, x.copy()))

        expect_pos = np.array([r[2][0] for r in rows])
        expect_lev = np.array([r[1] for r in rows])
        np.testing.assert_array_equal(rec.times, [r[0] for r in rows])
        np.testing.assert_array_equal(rec.positions[:, 0], expect_pos)
        np.testing.assert_array_equal(rec.levels, expect_lev)
        assert rec.levels[-1] == level
        np.testing.assert_array_equal(rec.positions[-1], x)


def test_run_steps_bound_holds_where_segments_take_one_step():
    # at swap rate 50 > 1/eta a run takes several times total_time / eta steps,
    # yet on average no more than the bound the command line refuses runs by
    orc, ladder, params = small_gaussian_setup(total_time=15.0, eta=0.07, lam=50.0)
    rng = RngStream(3)
    mean = np.mean([run_stlmc(orc, ladder, params, rng).total_steps for _ in range(10)])
    assert 3 * params.total_time / params.step_size < mean <= _run_steps_bound(params)


def test_no_swaps_reduces_to_plain_langevin():
    # vanishing event rate: same rng stream, same trajectory as a direct loop
    fx = get_fixture("single-gaussian")
    ladder = TemperatureLadder(
        betas=np.array([1.0]),
        log_partition_estimates=np.zeros(1),
    )
    params = RunParams(
        swap_rate=1e-12,
        step_size=0.3,
        total_time=6.0,
        init_std=1.0,
        constants=ScheduleConstants(),
    )
    seed = 4
    rec = run_stlmc(fx.oracle, ladder, params, RngStream(seed), thin=1)

    rng = RngStream(seed)
    x = params.init_std * rng.normal(1)
    assert draw_swap_times(rng, params.swap_rate, params.total_time).size == 0
    m, h = substep_schedule(params.total_time, params.step_size)
    xs = [x.copy()]
    for _ in range(m):
        x = langevin_step(fx.oracle, 1.0, x, h, rng)
        xs.append(x.copy())
    np.testing.assert_array_equal(rec.positions[:-1], np.array(xs))
    assert np.all(rec.levels == 1)



def _replay_steps(oracle, beta, x, m, h, rng, thin):
    """m langevin_step calls from x: final x plus the rows every thin-th step."""
    steps, times, xs = [0], [0.0], [x.copy()]
    for j in range(1, m + 1):
        x = langevin_step(oracle, beta, x, h, rng)
        if j % thin == 0:
            steps.append(j)
            times.append(j * h)
            xs.append(x.copy())
    return x, steps, times, xs


def test_long_segment_replays_across_noise_blocks():
    # one segment of more than 4096 steps spans two noise blocks
    fx = get_fixture("single-gaussian")
    ladder = TemperatureLadder(
        betas=np.array([1.0]),
        log_partition_estimates=np.zeros(1),
    )
    params = RunParams(
        swap_rate=1e-12,
        step_size=0.01,
        total_time=45.0,
        init_std=1.0,
        constants=ScheduleConstants(),
    )
    seed = 12
    rec = run_stlmc(fx.oracle, ladder, params, RngStream(seed), thin=3)

    rng = RngStream(seed)
    x = params.init_std * rng.normal(1)
    assert draw_swap_times(rng, params.swap_rate, params.total_time).size == 0
    m, h = substep_schedule(params.total_time, params.step_size)
    assert m > 4096
    x, steps, times, xs = _replay_steps(fx.oracle, 1.0, x, m, h, rng, thin=3)
    steps.append(m)
    times.append(params.total_time)
    xs.append(x)
    np.testing.assert_array_equal(rec.steps, steps)
    np.testing.assert_array_equal(rec.times, times)
    np.testing.assert_array_equal(rec.levels, np.ones(len(steps)))
    np.testing.assert_array_equal(rec.positions, np.array(xs))
    assert rec.total_steps == m


def test_overlong_tempering_run_is_refused_before_any_draw():
    # 1e5 expected level moves pass draw_swap_times, but the steps between them
    # take 1e8 / 0.05 = 2e9, which would size a record of about 2e8 rows
    params = RunParams(swap_rate=1e-3, step_size=0.05, total_time=1e8, init_std=1.0)
    ladder = TemperatureLadder(betas=np.array([0.5, 1.0]), log_partition_estimates=np.zeros(2))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"2e\+09 Langevin steps.*step_size.*total_time.*swap_rate"):
        run_stlmc(quadratic_oracle(1), ladder, params, NoDrawRng())
    assert time.perf_counter() - start < 1.0


def test_plain_run_beyond_the_run_bound_is_refused_before_allocating():
    # 1e13 steps would ask np.arange alone for 80 TB
    start = time.perf_counter()
    with pytest.raises(ValueError, match="num_steps 10000000000000"):
        run_plain_langevin(quadratic_oracle(1), 1.0, 0.1, 10**13, np.zeros(1), NoDrawRng())
    assert time.perf_counter() - start < 1.0


def test_plain_langevin_replays_across_noise_blocks():
    fx = get_fixture("two-mode-symmetric")
    n, thin, eta = 9001, 7, 0.02
    rec = run_plain_langevin(fx.oracle, 1.0, eta, n, np.array([5.0]), RngStream(7), thin=thin)

    x, steps, times, xs = _replay_steps(fx.oracle, 1.0, np.array([5.0]), n, eta, RngStream(7), thin)
    assert n % thin  # the last step is off the thinning grid, so it is added
    steps.append(n)
    times.append(n * eta)
    xs.append(x)
    np.testing.assert_array_equal(rec.steps, steps)
    np.testing.assert_array_equal(rec.times, times)
    np.testing.assert_array_equal(rec.levels, np.ones(len(steps)))
    np.testing.assert_array_equal(rec.positions, np.array(xs))
    np.testing.assert_array_equal(rec.positions[-1], x)

def test_single_level_long_run_moments():
    # standard Gaussian target at beta = 1; the run is plain Langevin plus
    # out-of-bounds level proposals that change nothing
    orc = quadratic_oracle(dim=1)
    eta = 0.05
    ladder = TemperatureLadder(
        betas=np.array([1.0]),
        log_partition_estimates=np.zeros(1),
    )
    params = RunParams(
        swap_rate=0.01,
        step_size=eta,
        total_time=2000.0,
        init_std=1.0,
        constants=ScheduleConstants(),
    )
    rec = run_stlmc(orc, ladder, params, RngStream(3), thin=1)
    xs = rec.positions[2000:, 0]
    n = xs.size
    tau = 2.0 / eta  # OU autocorrelation time in steps
    se_mean = math.sqrt(tau / n)
    assert abs(xs.mean()) < 3 * se_mean
    exact = 1.0 / (1.0 - eta / 2.0)
    assert abs(xs.var() - exact) < 0.05 * exact


def test_level_occupancy_uniform_with_exact_partition():
    # with exact Z the level marginal is uniform over the levels; the final
    # levels of independent runs give a chi-squared goodness-of-fit check
    orc, ladder, params = small_gaussian_setup(total_time=40.0, eta=0.1, lam=1.0)
    seeds = range(300)
    finals = np.array(
        [
            run_stlmc(orc, ladder, params, RngStream(1000 + s), thin=10**9).levels[-1]
            for s in seeds
        ]
    )
    counts = np.bincount(finals, minlength=4)[1:]
    expected = len(finals) / 3.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p_value = math.exp(-chi2 / 2.0)  # closed form for 2 degrees of freedom
    assert p_value > 0.01


def test_accept_flag_tracks_target_level():
    orc, ladder, params = small_gaussian_setup(total_time=10.0)
    rec = run_stlmc(orc, ladder, params, RngStream(5), target_level=2)
    assert rec.accepted == (rec.levels[-1] == 2)
    assert rec.target_level == 2


def test_run_stlmc_input_validation():
    orc, ladder, params = small_gaussian_setup()
    with pytest.raises(ValueError):
        run_stlmc(orc, ladder, params, RngStream(0), thin=0)
    with pytest.raises(ValueError):
        run_stlmc(orc, ladder, params, RngStream(0), target_level=9)


# ---------------------------------------------------------------------------
# estimate_log_partition_ratio


def test_ratio_equal_temperatures_is_exactly_one():
    orc = quadratic_oracle(dim=1)
    assert estimate_log_partition_ratio(np.ones((5, 1)), orc, 0.5, 0.5) == 0.0


def test_ratio_single_zero_potential_sample():
    orc = flat_oracle()
    assert estimate_log_partition_ratio(np.zeros((1, 1)), orc, 0.25, 1.0) == 0.0


def test_ratio_hand_value():
    orc = quadratic_oracle(dim=1)
    xs = np.array([[math.sqrt(2.0)], [math.sqrt(6.0)]])  # f = 1 and 3
    got = estimate_log_partition_ratio(xs, orc, 0.5, 1.0)
    expect = math.log(0.5 * (math.exp(-0.5) + math.exp(-1.5)))
    assert got == pytest.approx(expect, rel=1e-14)


def test_ratio_log_space_survives_huge_potentials():
    # exponents of -740 are below the normal float range, but their log mean
    # is exact, and mixing in one moderate sample cannot overflow the sum the
    # way a naive max-first exp would
    orc = FunctionOracle(
        value_fn=lambda x: float(x[0]), grad_fn=lambda x: np.zeros(1), dim=1
    )
    assert estimate_log_partition_ratio(np.full((4, 1), 1480.0), orc, 0.5, 1.0) == -740.0
    mixed = estimate_log_partition_ratio(
        np.array([[1480.0], [2.0]]), orc, 0.5, 1.0
    )
    assert mixed == pytest.approx(math.log(0.5) - 1.0, rel=1e-12)


def test_ratio_gaussian_closed_form():
    # i.i.d. samples at beta=0.5 for a standard Gaussian; ratio tends to
    # Z_1/Z_0.5 = sqrt(0.5)
    orc = quadratic_oracle(dim=1)
    gen = np.random.default_rng(77)
    xs = gen.normal(scale=math.sqrt(1 / 0.5), size=(10_000, 1))
    got = estimate_log_partition_ratio(xs, orc, 0.5, 1.0)
    assert abs(math.exp(got) - math.sqrt(0.5)) < 0.05 * math.sqrt(0.5)


def test_ratio_input_validation():
    orc = quadratic_oracle(dim=1)
    with pytest.raises(ValueError):
        estimate_log_partition_ratio(np.zeros((0, 1)), orc, 0.5, 1.0)
    with pytest.raises(ValueError):
        estimate_log_partition_ratio(np.zeros((3, 1)), orc, 1.0, 0.5)


# ---------------------------------------------------------------------------
# run_main


def test_staged_estimates_track_closed_form():
    orc, ladder, params = small_gaussian_setup(total_time=20.0, eta=0.05)
    result = run_main(orc, ladder, params, RngStream(6), num_final_samples=5)
    assert result.samples.shape == (5, 1)
    assert result.log_zhat[0] == 0.0
    np.testing.assert_array_equal(result.zhat, np.exp(result.log_zhat))
    fx = get_fixture("single-gaussian")
    exact = np.array(
        [
            math.exp(gaussian_log_partition(fx.target, float(b)))
            for b in ladder.betas
        ]
    )
    rel = (result.zhat / exact) / (result.zhat[0] / exact[0])
    # generous per-level envelope; the acceptance suite pins the real one
    assert np.all(rel > 0.5) and np.all(rel < 2.0)
    assert len(result.stage_stats) == ladder.num_levels
    assert result.stage_stats[-1].log_ratio is None
    np.testing.assert_array_equal(
        np.cumsum([0.0] + [s.log_ratio for s in result.stage_stats[:-1]]), result.log_zhat)


def test_single_level_main_is_plain_sampling():
    orc, ladder, params = small_gaussian_setup(total_time=10.0, levels=1)
    result = run_main(orc, ladder, params, RngStream(9), num_final_samples=3)
    assert result.samples.shape == (3, 1)
    np.testing.assert_array_equal(result.log_zhat, [0.0])
    assert result.stage_stats[0].runs_accepted == 3


def constant_potential_run(value, seed):
    orc = FunctionOracle(
        value_fn=lambda x: value, grad_fn=lambda x: np.zeros(1), dim=1
    )
    ladder = two_level_ladder(beta1=0.5, z2=1.0)
    params = RunParams(
        swap_rate=1.0,
        step_size=0.5,
        total_time=2.0,
        init_std=1.0,
        constants=ScheduleConstants(),
    )
    return run_main(orc, ladder, params, RngStream(seed))


def test_underflowing_ratio_is_kept_in_log_space():
    # the stage-1 ratio exp(-5e5) underflows a float; its log does not, and
    # with it the two levels are equally likely at every position
    result = constant_potential_run(1e6, 21)
    assert result.log_zhat[1] == -5e5
    assert result.stage_stats[0].log_ratio == -5e5


def test_estimation_failure_on_degenerate_ratio():
    # an infinite potential gives a log ratio of -inf, which must surface as
    # a diagnostic rather than a broken ladder downstream
    with pytest.raises(EstimationFailure, match="-inf"):
        constant_potential_run(math.inf, 21)


def test_estimation_failure_on_rejection_ceiling():
    # with a negligible swap rate no run ever leaves level 1, so stage 2 keeps
    # none of its first 100 runs and the constant ceiling aborts the stage
    orc, ladder, params = small_gaussian_setup(total_time=2.0, eta=0.5, levels=3)
    params = replace(params, swap_rate=1e-9)
    with pytest.raises(EstimationFailure) as err:
        run_main(orc, ladder, params, RngStream(22))
    assert "stage 2/3: 0/100 runs reached level 2" in str(err.value)
    assert "rejection rate" in str(err.value)


def headline_staging(c_samples, **overrides):
    fx = get_fixture("two-mode-symmetric")
    ladder, params = build_ladder_gaussian(
        fx.dim, D=fx.D, sigma=fx.target.base.sigma, w_min=fx.w_min, target_accuracy=0.1,
        constants=ScheduleConstants(c_samples=c_samples),
    )
    return fx.oracle, ladder, replace(params, **overrides)


def test_rejected_runs_count_against_the_work_bound(monkeypatch):
    # no run ever leaves level 1, so stage 2 keeps none of its 4-step runs; the
    # least work, 5 steps x (7 stages x 10 kept runs + 1), is 355 and passes
    orc, ladder, params = headline_staging(0.05, total_time=2.0, step_size=0.5,
                                           swap_rate=1e-9)
    assert ladder.num_levels == 8
    monkeypatch.setattr("temperlab.sampler.MAX_RUN_STEPS", 400)
    with pytest.raises(EstimationFailure, match=r"stage 2/8: staging took \d+ Langevin steps") as err:
        run_main(orc, ladder, params, RngStream(2))
    runs = int(re.search(r"in (\d+) runs of this stage \(0 kept\)", str(err.value)).group(1))
    assert runs < 100  # before the rejection ceiling's attempt floor


def test_unaffordable_staging_is_refused_before_any_draw():
    # 2e8 steps per staged run, times 192 kept runs at each of 7 stages
    orc, ladder, params = headline_staging(1.0, total_time=1e7, step_size=0.05)
    start = time.perf_counter()
    with pytest.raises(EstimationFailure, match="staging may take 2.7e\\+11 Langevin steps"):
        run_main(orc, ladder, params, NoDrawRng())
    assert time.perf_counter() - start < 1.0
