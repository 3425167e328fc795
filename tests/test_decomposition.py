"""Tests for the finite-chain spectral laboratory."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import temperlab.decomposition as decomposition
from temperlab.decomposition import (
    INFINITY,
    MAX_STATES,
    RATE_CAP,
    CanonicalPathSet,
    FiniteMarkovProcess,
    ReducibleChainError,
    SimpleInstance,
    TemperingInstance,
    build_projected_chain,
    build_simple_projected_chain,
    build_tempering_chain,
    chi2_discrete,
    chi2_max_discrete,
    congestion_bound,
    dirichlet_form,
    discretize_density,
    geodesic_paths,
    instance_hash,
    mixture_chain,
    overlap_discrete,
    poincare_constant,
    random_simple_instance,
    random_tempering_instance,
    variance,
    verify_simple_decomposition,
    verify_tempering_decomposition,
)


def gauss_masses(grid, center, sigma, beta=1.0):
    logmass = -beta * 0.5 * ((grid - center) / sigma) ** 2
    mass = np.exp(logmass - logmass.max())
    return mass / mass.sum()


def random_process(rng, n):
    """Connected reversible chain: random tree plus extra symmetric flows."""
    pi = rng.uniform(0.2, 1.0, n)
    pi = pi / pi.sum()
    flow = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        flow[u, v] = flow[v, u] = rng.uniform(0.2, 1.0)
    extra = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1)
    extra *= np.triu(rng.random((n, n)) < 0.3, 1)
    flow += extra + extra.T
    return FiniteMarkovProcess.from_offdiag(flow / pi[:, None], pi)


def random_lazy_walk(rng, n):
    """Row-stochastic walk on a random weighted graph, with its stationary law."""
    weights = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        weights[u, v] = weights[v, u] = rng.uniform(0.2, 1.0)
    extra = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1)
    extra *= np.triu(rng.random((n, n)) < 0.25, 1)
    weights += extra + extra.T
    degree = weights.sum(axis=1)
    transition = weights / degree[:, None]
    return transition, degree / degree.sum()


# ---------------------------------------------------------------------------
# FiniteMarkovProcess construction


class TestProcessValidation:
    def test_from_offdiag_fills_diagonal(self):
        off = np.array([[0.0, 2.0], [1.0, 0.0]])
        pi = np.array([1.0, 2.0]) / 3.0
        proc = FiniteMarkovProcess.from_offdiag(off, pi)
        assert proc.rates[0, 0] == -2.0
        assert proc.rates[1, 1] == -1.0
        assert proc.num_states == 2

    def test_from_offdiag_stores_flows_and_derives_rates(self):
        rng = np.random.default_rng(8)
        off = rng.uniform(0.2, 1.0, (5, 5))
        off = off + off.T
        np.fill_diagonal(off, 0.0)
        proc = FiniteMarkovProcess.from_offdiag(off, np.full(5, 0.2))
        np.testing.assert_array_equal(proc.flows, 0.2 * off)
        expected = off.copy()
        np.fill_diagonal(expected, -off.sum(axis=1))
        np.testing.assert_allclose(proc.rates, expected, rtol=1e-15)

    def test_negative_offdiagonal_rejected(self):
        Q = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            FiniteMarkovProcess(flows=Q, stationary=np.array([0.5, 0.5]))

    def test_asymmetric_flows_rejected(self):
        F = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="not reversible"):
            FiniteMarkovProcess(flows=F, stationary=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("off, pi, name", [
        ([[0.0, np.nan], [np.nan, 0.0]], [0.5, 0.5], "flows"),
        ([[0.0, np.inf], [np.inf, 0.0]], [0.5, 0.5], "flows"),
        ([[0.0, 1.0], [1.0, 0.0]], [np.nan, 0.5], "stationary"),
    ], ids=["nan-flow", "inf-flow", "nan-stationary"])
    def test_non_finite_input_rejected(self, off, pi, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FiniteMarkovProcess.from_offdiag(np.array(off), np.array(pi))

    def test_irreversible_chain_rejected(self):
        # uniform pi but asymmetric rates: flow 2 one way, 1 the other
        off = np.array([[0.0, 2.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not reversible"):
            FiniteMarkovProcess.from_offdiag(off, np.array([0.5, 0.5]))

    def test_stationary_must_sum_to_one(self):
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteMarkovProcess.from_offdiag(off, np.array([0.5, 0.6]))

    def test_nonpositive_stationary_rejected(self):
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="positive"):
            FiniteMarkovProcess.from_offdiag(off, np.array([1.0, 0.0]))

    def test_state_cap(self):
        n = MAX_STATES + 1
        off = np.zeros((n, n))
        off[np.arange(n - 1), np.arange(1, n)] = 1.0
        off[np.arange(1, n), np.arange(n - 1)] = 1.0
        with pytest.raises(ValueError, match="at most"):
            FiniteMarkovProcess.from_offdiag(off, np.full(n, 1.0 / n))

    def test_reversibility_residual_small_on_built_chains(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            proc = random_process(rng, int(rng.integers(4, 12)))
            off = proc.rates.copy()
            np.fill_diagonal(off, 0.0)
            flow = proc.stationary[:, None] * off
            assert float(np.abs(flow - flow.T).max()) < 1e-10


# ---------------------------------------------------------------------------
# discretize_density


class TestDiscretizeDensity:
    def test_uniform_density_gives_equal_rates(self):
        grid = np.linspace(0.0, 3.0, 4)
        proc = discretize_density(grid, np.ones(4))  # h = 1, so the rate 1/h^2 is 1
        for i in range(3):
            assert proc.rates[i, i + 1] == 1.0
            assert proc.rates[i + 1, i] == 1.0
        np.testing.assert_allclose(proc.stationary, 0.25)

    def test_two_point_detailed_balance_ratio(self):
        proc = discretize_density(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(proc.stationary, [1.0 / 3.0, 2.0 / 3.0])
        assert proc.rates[0, 1] == 1.0  # uphill at the full rate 1/h^2, h = 1
        assert proc.rates[0, 1] / proc.rates[1, 0] == 2.0

    def test_default_base_rate_is_inverse_spacing_squared(self):
        grid = np.linspace(-1.0, 1.0, 5)
        h = 0.5
        proc = discretize_density(grid, np.ones(5))
        assert proc.rates[0, 1] == pytest.approx(1.0 / h**2, rel=1e-14)

    def test_gaussian_grid_stationary_and_gap(self):
        grid = np.linspace(-6.0, 6.0, 129)
        mass = np.exp(-0.5 * grid**2)
        proc = discretize_density(grid, lambda x: np.exp(-0.5 * x**2))
        np.testing.assert_allclose(proc.stationary, mass / mass.sum(), rtol=1e-14)
        const = poincare_constant(proc)
        assert 0.0 < const < INFINITY

    def test_non_neighbor_rates_are_zero(self):
        grid = np.linspace(0.0, 4.0, 5)
        proc = discretize_density(grid, np.ones(5))
        off = proc.rates.copy()
        np.fill_diagonal(off, 0.0)
        band = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) == 1
        assert np.all(off[~band] == 0.0)

    def test_nonpositive_density_rejected(self):
        grid = np.linspace(0.0, 2.0, 3)
        with pytest.raises(ValueError, match="positive"):
            discretize_density(grid, np.array([1.0, 0.0, 1.0]))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            discretize_density(np.array([0.0, 1.0, 3.0]), np.ones(3))

    def test_grid_size_cap(self):
        grid = np.linspace(0.0, 1.0, MAX_STATES + 1)
        with pytest.raises(ValueError, match="at most"):
            discretize_density(grid, np.ones(grid.size))

    def test_density_length_mismatch(self):
        with pytest.raises(ValueError, match="per grid point"):
            discretize_density(np.linspace(0, 1, 4), np.ones(5))


# ---------------------------------------------------------------------------
# dirichlet_form, variance, poincare_constant


class TestSpectralBasics:
    def test_constant_function_has_zero_energy(self):
        rng = np.random.default_rng(1)
        proc = random_process(rng, 8)
        assert abs(dirichlet_form(proc, np.full(8, 3.7))) < 1e-10

    def test_two_state_hand_value(self):
        # pi = (1/2, 1/2), unit rates, g = (0, 1): energy 1/2, variance 1/4
        proc = FiniteMarkovProcess.from_offdiag(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5])
        )
        g = np.array([0.0, 1.0])
        assert dirichlet_form(proc, g) == pytest.approx(0.5, rel=1e-14)
        assert variance(proc, g) == pytest.approx(0.25, rel=1e-14)
        assert poincare_constant(proc) == pytest.approx(0.5, rel=1e-12)

    def test_energy_matches_sum_over_edges(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            proc = random_process(rng, n)
            g = rng.standard_normal(n)
            f = rng.standard_normal(n)
            off = proc.rates.copy()
            np.fill_diagonal(off, 0.0)
            flow = proc.stationary[:, None] * off
            edge_sum = 0.5 * float(
                np.sum(flow * np.subtract.outer(f, f) * np.subtract.outer(g, g))
            )
            assert dirichlet_form(proc, g, f) == pytest.approx(
                edge_sum, rel=1e-10, abs=1e-12
            )

    def test_two_state_general_rates(self):
        a, b = 0.7, 2.3
        pi = np.array([b, a]) / (a + b)
        proc = FiniteMarkovProcess.from_offdiag(
            np.array([[0.0, a], [b, 0.0]]), pi
        )
        assert poincare_constant(proc) == pytest.approx(1.0 / (a + b), rel=1e-12)

    def test_complete_graph_constant(self):
        n = 6
        off = np.ones((n, n))
        proc = FiniteMarkovProcess.from_offdiag(off, np.full(n, 1.0 / n))
        assert poincare_constant(proc) == pytest.approx(1.0 / n, rel=1e-12)

    def test_cycle_constant_matches_cosine_formula(self):
        n = 9
        off = np.zeros((n, n))
        idx = np.arange(n)
        off[idx, (idx + 1) % n] = 1.0
        off[idx, (idx - 1) % n] = 1.0
        proc = FiniteMarkovProcess.from_offdiag(off, np.full(n, 1.0 / n))
        expected = 1.0 / (2.0 * (1.0 - math.cos(2.0 * math.pi / n)))
        assert poincare_constant(proc) == pytest.approx(expected, rel=1e-10)

    def test_variance_bounded_by_constant_times_energy(self):
        rng = np.random.default_rng(3)
        proc = random_process(rng, 10)
        const = poincare_constant(proc)
        for _ in range(100):
            g = rng.standard_normal(10)
            assert variance(proc, g) <= const * dirichlet_form(proc, g) + 1e-9

    def test_gap_attained_by_second_eigenvector(self):
        rng = np.random.default_rng(4)
        proc = random_process(rng, 10)
        const = poincare_constant(proc)
        sqrt_pi = np.sqrt(proc.stationary)
        sym = (sqrt_pi[:, None] * proc.rates) / sqrt_pi[None, :]
        sym = 0.5 * (sym + sym.T)
        _, vecs = np.linalg.eigh(-sym)
        g = vecs[:, 1] / sqrt_pi
        assert variance(proc, g) == pytest.approx(
            const * dirichlet_form(proc, g), rel=1e-6
        )

    def test_constant_where_mass_products_underflow(self):
        # the smallest mass is 1.6e-178, so pi(x) pi(y) is below the float range
        grid = np.linspace(-6, 6, 48)
        proc = discretize_density(grid, gauss_masses(grid, 4.0, 0.35))
        assert proc.stationary.min() ** 2 == 0.0
        # oracle: the spectrum of the rate matrix -Q itself, never symmetrized
        rates = proc.flows / proc.stationary[:, None]
        np.fill_diagonal(rates, -rates.sum(axis=1))
        gap = np.sort(np.linalg.eigvals(-rates).real)[1]
        assert poincare_constant(proc) == pytest.approx(1.0 / gap, rel=1e-9)

    def test_single_state_constant_is_zero(self):
        proc = FiniteMarkovProcess(flows=np.zeros((1, 1)),
                                   stationary=np.array([1.0]))
        assert poincare_constant(proc) == 0.0

    def test_disconnected_chain_raises(self):
        shapes = {
            "two blocks": (4, {(0, 1): 1.0, (2, 3): 1.0}),
            "stiff and slow blocks": (4, {(0, 1): 1e6, (2, 3): 1e-3}),
            "isolated state": (4, {(0, 1): 1.0, (1, 2): 1.0}),
            "three classes": (6, {(0, 1): 1.0, (2, 3): 2.0, (4, 5): 0.5}),
        }
        for n, edges in shapes.values():
            off = np.zeros((n, n))
            for (x, y), rate in edges.items():
                off[x, y] = off[y, x] = rate
            proc = FiniteMarkovProcess.from_offdiag(off, np.full(n, 1.0 / n))
            with pytest.raises(ReducibleChainError):
                poincare_constant(proc)


# ---------------------------------------------------------------------------
# mixture_chain


class TestMixtureChain:
    def build(self):
        grid = np.linspace(-4.0, 4.0, 40)
        centers = (-1.5, 0.5, 2.0)
        sigmas = (0.8, 1.2, 0.6)
        w = np.array([0.5, 0.3, 0.2])
        comps = [
            discretize_density(grid, gauss_masses(grid, c, s))
            for c, s in zip(centers, sigmas)
        ]
        return comps, w, mixture_chain(comps, w)

    def test_stationary_is_weighted_sum(self):
        comps, w, mix = self.build()
        expected = sum(wj * c.stationary for wj, c in zip(w, comps))
        np.testing.assert_allclose(mix.stationary, expected, rtol=1e-14)

    def test_dirichlet_form_decomposes_exactly(self):
        comps, w, mix = self.build()
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = rng.standard_normal(40)
            g = rng.standard_normal(40)
            lhs = dirichlet_form(mix, g, f)
            rhs = sum(wj * dirichlet_form(c, g, f) for wj, c in zip(w, comps))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_law_of_total_variance(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            inst = random_simple_instance(rng)
            w, dens = inst.weights, inst.densities
            pi = w @ dens
            for _ in range(5):
                g = rng.standard_normal(pi.size)
                mean = float(pi @ g)
                total = float(pi @ (g - mean) ** 2)
                comp_means = dens @ g
                within = float(
                    sum(w[j] * (dens[j] @ (g - comp_means[j]) ** 2)
                        for j in range(w.size))
                )
                between = float(w @ (comp_means - mean) ** 2)
                assert abs(total - (within + between)) < 1e-10

    def test_weight_validation(self):
        comps, _, _ = self.build()
        with pytest.raises(ValueError, match="sum to 1"):
            mixture_chain(comps, np.array([0.5, 0.3, 0.3]))
        with pytest.raises(ValueError, match="one weight per component"):
            mixture_chain(comps, np.array([0.5, 0.5]))

    def test_state_space_mismatch(self):
        grid_a = np.linspace(-1, 1, 10)
        grid_b = np.linspace(-1, 1, 12)
        a = discretize_density(grid_a, np.ones(10))
        b = discretize_density(grid_b, np.ones(12))
        with pytest.raises(ValueError, match="share one state space"):
            mixture_chain([a, b], np.array([0.5, 0.5]))


@pytest.mark.parametrize("builder", ["mixture_chain", "build_projected_chain",
                                     "build_tempering_chain"])
def test_nan_weight_is_refused_by_name(builder):
    grid = np.linspace(-4.0, 4.0, 40)
    comps = [discretize_density(grid, gauss_masses(grid, c, 1.0)) for c in (-1.0, 1.0)]
    nan_pair = np.array([np.nan, 0.5])
    dens = np.stack([c.stationary for c in comps])[None, :, :]
    call, message = {
        "mixture_chain": (lambda: mixture_chain(comps, nan_pair), "weights must be positive"),
        "build_projected_chain": (
            lambda: build_projected_chain(nan_pair[None, :], np.array([1.0]), dens, 1.0),
            "comp_weights must be positive",
        ),
        "build_tempering_chain": (
            lambda: build_tempering_chain(comps, nan_pair, 1.0), "rel_probs must be positive"
        ),
    }[builder]
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# discrete divergences


class TestDiscreteDivergences:
    def test_chi2_hand_value(self):
        q = np.array([0.5, 0.5])
        p = np.array([0.25, 0.75])
        assert chi2_discrete(q, p) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_chi2_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert chi2_discrete(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_chi2_support_violation_is_infinite(self):
        q = np.array([0.5, 0.5, 0.0])
        p = np.array([0.5, 0.0, 0.5])
        assert chi2_discrete(q, p) == INFINITY
        # reference mass vanishing where q also vanishes is fine
        r = np.array([0.6, 0.4, 0.0])
        assert math.isfinite(chi2_discrete(q, r))

    def test_chi2_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            chi2_discrete(np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            chi2_discrete(np.array([1.5, -0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="same length"):
            chi2_discrete(np.array([1.0]), np.array([0.5, 0.5]))

    def test_chi2_max_is_symmetric_max(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.uniform(0.05, 1.0, 6)
            p /= p.sum()
            q = rng.uniform(0.05, 1.0, 6)
            q /= q.sum()
            m = chi2_max_discrete(p, q)
            assert m == chi2_max_discrete(q, p)
            assert m == max(chi2_discrete(p, q), chi2_discrete(q, p))

    def test_overlap_hand_value(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.2, 0.8])
        assert overlap_discrete(p, q) == 0.4


# ---------------------------------------------------------------------------
# tempering chain


class TestTemperingChain:
    def levels(self, n=24):
        grid = np.linspace(-3.0, 3.0, n)
        betas = (0.25, 0.5, 1.0)
        out = []
        for beta in betas:
            mass = 0.6 * gauss_masses(grid, -1.5, 0.9, beta)
            mass += 0.4 * gauss_masses(grid, 1.5, 0.7, beta)
            out.append(discretize_density(grid, mass))
        return out

    def test_single_level_is_the_level_chain(self):
        level = self.levels()[0]
        joint = build_tempering_chain([level], np.array([1.0]), swap_rate=1.0)
        np.testing.assert_allclose(joint.rates, level.rates, atol=1e-12)
        np.testing.assert_allclose(joint.stationary, level.stationary)

    def test_identical_levels_have_flat_cross_rates(self):
        level = self.levels()[1]
        lam = 0.8
        joint = build_tempering_chain([level, level], np.array([0.5, 0.5]), lam)
        n = level.num_states
        for x in range(n):
            assert joint.rates[x, n + x] == pytest.approx(lam / 2)
            assert joint.rates[n + x, x] == pytest.approx(lam / 2)
        np.testing.assert_allclose(
            joint.stationary[:n], joint.stationary[n:]
        )

    def test_stationary_is_rel_prob_times_level_law(self):
        levels = self.levels()
        r = np.array([0.5, 0.3, 0.2])
        joint = build_tempering_chain(levels, r, swap_rate=1.3)
        expected = np.concatenate(
            [ri * lv.stationary for ri, lv in zip(r, levels)]
        )
        np.testing.assert_allclose(joint.stationary, expected, rtol=1e-14)

    def test_cross_rate_formula_and_sparsity(self):
        levels = self.levels(n=12)
        r = np.array([0.5, 0.3, 0.2])
        lam = 0.7
        joint = build_tempering_chain(levels, r, lam)
        Q = joint.rates
        n = 12
        for i in range(2):
            pi_lo = r[i] * levels[i].stationary
            pi_hi = r[i + 1] * levels[i + 1].stationary
            for x in range(n):
                up = 0.5 * lam * min(pi_hi[x] / pi_lo[x], 1.0)
                assert Q[i * n + x, (i + 1) * n + x] == pytest.approx(up, rel=1e-12)
        # no moves that change level and position at once, none that skip a level
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert Q[x, n + y] == 0.0
                assert Q[x, 2 * n + y] == 0.0

    def test_within_level_blocks_match_level_generators(self):
        levels = self.levels(n=10)
        joint = build_tempering_chain(levels, np.full(3, 1.0 / 3.0), 1.0)
        Q = joint.rates
        for i, lv in enumerate(levels):
            block = Q[i * 10:(i + 1) * 10, i * 10:(i + 1) * 10].copy()
            expected = lv.rates.copy()
            np.fill_diagonal(block, 0.0)
            np.fill_diagonal(expected, 0.0)
            np.testing.assert_allclose(block, expected, atol=1e-14)

    def test_dirichlet_form_splits_into_levels_plus_exchange(self):
        levels = self.levels(n=20)
        r = np.array([0.45, 0.35, 0.2])
        lam = 0.9
        joint = build_tempering_chain(levels, r, lam)
        rng = np.random.default_rng(17)
        n = 20
        for _ in range(50):
            g = rng.standard_normal(3 * n)
            parts = g.reshape(3, n)
            lhs = dirichlet_form(joint, g)
            rhs = sum(
                r[i] * dirichlet_form(levels[i], parts[i]) for i in range(3)
            )
            # ordered adjacent level pairs each contribute lam/4 * min-flow
            for i in range(2):
                cross = np.minimum(
                    r[i] * levels[i].stationary,
                    r[i + 1] * levels[i + 1].stationary,
                )
                term = 0.25 * lam * float(cross @ (parts[i] - parts[i + 1]) ** 2)
                rhs += 2.0 * term
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_flat_index_matches_labels(self):
        # state (level i, position x) sits at flat index (i - 1) * n + x
        levels = self.levels(n=8)
        joint = build_tempering_chain(levels, np.full(3, 1.0 / 3.0), 1.0)
        assert len(joint.labels) == joint.num_states == 24
        for i in (1, 2, 3):
            for x in (0, 3, 7):
                assert joint.labels[(i - 1) * 8 + x] == (i, x)

    def test_validation(self):
        levels = self.levels(n=8)
        with pytest.raises(ValueError, match="share one position grid"):
            build_tempering_chain(
                [levels[0], self.levels(n=10)[0]], np.array([0.5, 0.5]), 1.0
            )
        with pytest.raises(ValueError, match="sum to 1"):
            build_tempering_chain(levels, np.array([0.5, 0.3, 0.3]), 1.0)
        with pytest.raises(ValueError, match="swap_rate"):
            build_tempering_chain(levels, np.full(3, 1.0 / 3.0), 0.0)

    def test_joint_state_cap(self):
        grid = np.linspace(-1.0, 1.0, 60)
        level = discretize_density(grid, np.ones(60))
        with pytest.raises(ValueError, match="states"):
            build_tempering_chain([level] * 9, np.full(9, 1.0 / 9.0), 1.0)


# ---------------------------------------------------------------------------
# projected chains


class TestProjectedChain:
    def test_level_one_rate_formula(self):
        # chi2(p || q) = 3 exactly for p uniform, q = (a, 1-a), a(1-a) = 1/16
        a = (2.0 - math.sqrt(3.0)) / 4.0
        p = np.array([0.5, 0.5])
        q = np.array([a, 1.0 - a])
        assert chi2_max_discrete(p, q) == pytest.approx(3.0, rel=1e-12)
        proj = build_projected_chain(
            comp_weights=np.array([[0.5, 0.5]]),
            rel_probs=np.array([1.0]),
            densities=np.stack([p, q])[None, :, :],
            swap_strength=1.0,
        )
        assert proj.rates[0, 1] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert proj.rates[1, 0] == pytest.approx(1.0 / 6.0, rel=1e-12)
        np.testing.assert_allclose(proj.stationary, [0.5, 0.5])

    def test_vertical_rate_is_strength_times_overlap(self):
        dens = np.zeros((2, 1, 2))
        dens[0, 0] = (0.8, 0.2)
        dens[1, 0] = (0.2, 0.8)
        proj = build_projected_chain(
            comp_weights=np.ones((2, 1)),
            rel_probs=np.array([0.5, 0.5]),
            densities=dens,
            swap_strength=1.0,
        )
        assert proj.rates[0, 1] == 0.4
        assert proj.rates[1, 0] == 0.4
        doubled = build_projected_chain(
            np.ones((2, 1)), np.array([0.5, 0.5]), dens, swap_strength=2.0
        )
        assert doubled.rates[0, 1] == 0.8

    def test_vertical_rates_satisfy_detailed_balance(self):
        dens = np.zeros((2, 1, 3))
        dens[0, 0] = (0.5, 0.3, 0.2)
        dens[1, 0] = (0.1, 0.2, 0.7)
        proj = build_projected_chain(
            np.ones((2, 1)), np.array([0.75, 0.25]), dens, swap_strength=1.5
        )
        flow_up = 0.75 * proj.rates[0, 1]
        flow_down = 0.25 * proj.rates[1, 0]
        assert flow_up == pytest.approx(flow_down, rel=1e-12)
        np.testing.assert_allclose(proj.stationary, [0.75, 0.25])

    def test_sparsity_pattern(self):
        rng = np.random.default_rng(23)
        dens = rng.uniform(0.1, 1.0, (3, 2, 6))
        dens /= dens.sum(axis=2, keepdims=True)
        cw = rng.uniform(0.2, 1.0, (3, 2))
        cw /= cw.sum(axis=1, keepdims=True)
        proj = build_projected_chain(
            cw, np.full(3, 1.0 / 3.0), dens, swap_strength=1.0
        )
        m = 2

        def idx(i, j):
            return i * m + j

        # horizontal moves only at the hottest level
        assert proj.rates[idx(1, 0), idx(1, 1)] == 0.0
        assert proj.rates[idx(2, 0), idx(2, 1)] == 0.0
        assert proj.rates[idx(0, 0), idx(0, 1)] > 0.0
        # vertical moves keep the component and step one level
        assert proj.rates[idx(0, 0), idx(2, 0)] == 0.0
        assert proj.rates[idx(0, 0), idx(1, 1)] == 0.0
        assert proj.rates[idx(0, 1), idx(1, 1)] > 0.0

    def test_identical_components_hit_rate_cap(self):
        p = np.array([0.5, 0.3, 0.2])
        with pytest.warns(RuntimeWarning, match="capping"):
            proj = build_simple_projected_chain(
                np.array([0.5, 0.5]), np.stack([p, p]), kind="chi2"
            )
        assert proj.rates[0, 1] == 0.5 * RATE_CAP

    def test_simple_overlap_kind(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.2, 0.8])
        proj = build_simple_projected_chain(
            np.array([0.25, 0.75]), np.stack([p, q]), kind="overlap"
        )
        assert proj.rates[0, 1] == pytest.approx(0.75 * 0.4)
        assert proj.rates[1, 0] == pytest.approx(0.25 * 0.4)
        with pytest.raises(ValueError, match="kind"):
            build_simple_projected_chain(
                np.array([0.5, 0.5]), np.stack([p, q]), kind="bogus"
            )

    def test_input_validation(self):
        dens = np.full((2, 1, 2), 0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            build_projected_chain(
                np.full((2, 1), 0.9), np.array([0.5, 0.5]), dens, 1.0
            )
        with pytest.raises(ValueError, match="swap_strength"):
            build_projected_chain(
                np.ones((2, 1)), np.array([0.5, 0.5]), dens, 0.0
            )


# ---------------------------------------------------------------------------
# canonical paths


class TestCanonicalPaths:
    def test_path_graph_geodesics(self):
        adj = np.zeros((4, 4))
        for i in range(3):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
        paths = geodesic_paths(adj)
        assert paths[(0, 3)] == (0, 1, 2, 3)
        assert paths[(3, 0)] == (3, 2, 1, 0)
        assert paths[(1, 2)] == (1, 2)
        assert len(paths.paths) == 12

    def test_disconnected_graph_raises(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        with pytest.raises(ReducibleChainError, match="no path"):
            geodesic_paths(adj)

    def test_path_set_validation(self):
        with pytest.raises(ValueError, match="from x to y"):
            CanonicalPathSet(paths={(0, 1): (0, 2)})
        with pytest.raises(ValueError, match="revisits"):
            CanonicalPathSet(paths={(0, 1): (0, 2, 0, 1)})

    def test_two_state_congestion_is_one(self):
        T = np.array([[0.5, 0.5], [0.5, 0.5]])
        p = np.array([0.5, 0.5])
        paths = geodesic_paths(np.array([[0, 1], [1, 0]]))
        rho, edge = congestion_bound(T, p, paths)
        assert rho == pytest.approx(1.0, rel=1e-14)
        assert edge in ((0, 1), (1, 0))

    @staticmethod
    def cycle_walk(n):
        T = np.zeros((n, n))
        idx = np.arange(n)
        T[idx, (idx + 1) % n] = 0.5
        T[idx, (idx - 1) % n] = 0.5
        return T, np.full(n, 1.0 / n)

    @staticmethod
    def cycle_congestion_by_enumeration(n):
        """Independent BFS + per-edge load tally for the uniform n-cycle."""
        nbrs = {x: sorted(((x - 1) % n, (x + 1) % n)) for x in range(n)}
        load = {}
        for s in range(n):
            parent = {s: None}
            order = [s]
            head = 0
            while head < len(order):
                x = order[head]
                head += 1
                for y in nbrs[x]:
                    if y not in parent:
                        parent[y] = x
                        order.append(y)
            for t in range(n):
                if t == s:
                    continue
                path = [t]
                while path[-1] != s:
                    path.append(parent[path[-1]])
                path.reverse()
                contrib = (len(path) - 1) / n**2
                for z, w in zip(path[:-1], path[1:]):
                    load[(z, w)] = load.get((z, w), 0.0) + contrib
        return max(v / ((1.0 / n) * 0.5) for v in load.values())

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_cycle_congestion_matches_enumeration(self, n):
        T, p = self.cycle_walk(n)
        adj = (T > 0).astype(float)
        rho, _ = congestion_bound(T, p, geodesic_paths(adj))
        assert rho == pytest.approx(self.cycle_congestion_by_enumeration(n),
                                    rel=1e-12)

    def test_cycle_congestion_grows_quadratically(self):
        values = {}
        for n in (4, 8, 16):
            T, p = self.cycle_walk(n)
            rho, _ = congestion_bound(T, p, geodesic_paths((T > 0).astype(float)))
            values[n] = rho
        assert 3.0 < values[16] / values[8] < 5.0
        assert 2.5 < values[8] / values[4] < 5.0

    @pytest.mark.parametrize("n,expected", [(5, 2.0), (9, 20.0 / 3.0)])
    def test_odd_cycle_closed_form(self, n, expected):
        # unique geodesics: rho = k(k+1)(2k+1)/(3n) for n = 2k+1
        T, p = self.cycle_walk(n)
        rho, _ = congestion_bound(T, p, geodesic_paths((T > 0).astype(float)))
        assert rho == pytest.approx(expected, rel=1e-12)

    def test_star_graph_and_zero_rate_edge(self):
        n = 5
        T = np.zeros((n, n))
        T[0, 1:] = 0.25
        T[1:, 0] = 1.0
        p = np.zeros(n)
        p[0] = 0.5
        p[1:] = 0.5 / 4
        adj = (T > 0).astype(float)
        rho, _ = congestion_bound(T, p, geodesic_paths(adj))
        assert math.isfinite(rho) and rho > 0
        leaf_hop = dict(geodesic_paths(adj).paths)
        leaf_hop[(1, 2)] = (1, 2)  # skips the hub over a zero-rate edge
        with pytest.raises(ValueError, match="zero"):
            congestion_bound(T, p, CanonicalPathSet(paths=leaf_hop))

    def test_transition_validation(self):
        paths = geodesic_paths(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="sum to 1"):
            congestion_bound(np.array([[0.5, 0.4], [0.5, 0.5]]),
                             np.array([0.5, 0.5]), paths)
        with pytest.raises(ValueError, match="nonnegative"):
            congestion_bound(np.array([[1.5, -0.5], [0.5, 0.5]]),
                             np.array([0.5, 0.5]), paths)

    def test_variance_bounded_by_congestion_times_energy(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            T, p = random_lazy_walk(rng, n)
            paths = geodesic_paths((T > 0).astype(float))
            rho, _ = congestion_bound(T, p, paths)
            proc = FiniteMarkovProcess.from_offdiag(T.copy(), p)
            for _ in range(100):
                g = rng.standard_normal(n)
                assert variance(proc, g) <= rho * dirichlet_form(proc, g) + 1e-9
            assert poincare_constant(proc) <= rho * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# verification pipelines


class TestVerifySimple:
    def test_two_gaussian_instance_passes_both_bounds(self):
        grid = np.linspace(-5.0, 5.0, 64)
        dens = np.stack(
            [gauss_masses(grid, -1.2, 0.9), gauss_masses(grid, 1.2, 0.9)]
        )
        inst = SimpleInstance(grid=grid, weights=np.array([0.5, 0.5]), densities=dens)
        reports = verify_simple_decomposition(inst)
        assert [r.theorem for r in reports] == [
            "mixture-decomposition-chi2",
            "mixture-decomposition-overlap",
        ]
        for rep in reports:
            assert rep.passed
            assert rep.identity_residual < 1e-10
            assert rep.C_star <= rep.bound * (1.0 + 1e-6)
            assert rep.bound / rep.C_star >= 1.0
            assert rep.slack >= 0.0

    def test_single_component_reduces_to_its_own_constant(self):
        grid = np.linspace(-4.0, 4.0, 48)
        dens = gauss_masses(grid, 0.3, 1.1)[None, :]
        inst = SimpleInstance(grid=grid, weights=np.array([1.0]), densities=dens)
        chi2_rep, overlap_rep = verify_simple_decomposition(inst)
        for rep in (chi2_rep, overlap_rep):
            assert rep.passed
            assert rep.C_bar == 0.0
            assert rep.C == pytest.approx(rep.C_star, rel=1e-10)
            assert rep.bound == pytest.approx(rep.C, rel=1e-12)

    def test_zero_flow_projected_chain_is_a_vacuous_pass(self, monkeypatch):
        # point masses on distinct states: chi2 is infinite and the overlap 0,
        # so neither projected chain has a single flow
        build = decomposition.build_simple_projected_chain
        assert not build(np.array([0.5, 0.5]), np.eye(2), "overlap").flows.any()
        monkeypatch.setattr(decomposition, "build_simple_projected_chain",
                            lambda w, dens, kind: build(w, np.eye(w.size), kind))
        grid = np.linspace(-4.0, 4.0, 40)
        dens = np.stack([gauss_masses(grid, -1.0, 0.8), gauss_masses(grid, 1.4, 1.0)])
        inst = SimpleInstance(grid=grid, weights=np.array([0.6, 0.4]), densities=dens)
        for rep in verify_simple_decomposition(inst):
            assert rep.C_bar == rep.bound == rep.slack == INFINITY
            assert rep.passed

    def test_nan_weight_is_rejected(self):
        grid = np.linspace(-4.0, 4.0, 40)
        dens = np.stack([gauss_masses(grid, -1.0, 0.8), gauss_masses(grid, 1.4, 1.0)])
        inst = SimpleInstance(grid=grid, weights=np.array([np.nan, 0.4]), densities=dens)
        with pytest.raises(ValueError, match="weights must be positive"):
            verify_simple_decomposition(inst)

    def test_identical_components_trigger_rate_cap_but_pass(self):
        grid = np.linspace(-3.0, 3.0, 32)
        d = gauss_masses(grid, 0.0, 1.0)
        inst = SimpleInstance(grid=grid, weights=np.array([0.5, 0.5]),
                              densities=np.stack([d, d]))
        with pytest.warns(RuntimeWarning, match="capping"):
            reports = verify_simple_decomposition(inst)
        assert all(r.passed for r in reports)

    def test_randomized_instances_pass(self):
        rng = np.random.default_rng(101)
        for _ in range(8):
            inst = random_simple_instance(rng)
            for rep in verify_simple_decomposition(inst):
                assert rep.passed, rep.to_dict()
                assert rep.identity_residual < 1e-9

    def test_report_serializes(self):
        rng = np.random.default_rng(5)
        rep = verify_simple_decomposition(random_simple_instance(rng))[0]
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["theorem"] == "mixture-decomposition-chi2"
        for key in ("instance_hash", "C", "C_bar", "C_star", "bound", "slack",
                    "passed", "identity_residual"):
            assert key in back


class TestVerifyTempering:
    def test_random_instance_passes(self):
        rng = np.random.default_rng(19)
        inst = random_tempering_instance(rng)
        rep = verify_tempering_decomposition(inst)
        assert rep.theorem == "tempering-decomposition"
        assert rep.passed
        assert rep.identity_residual < 1e-9
        assert rep.details["levels"] == 3
        assert rep.details["components"] == 2

    def test_strength_sweep_passes(self):
        rng = np.random.default_rng(29)
        inst = random_tempering_instance(rng)
        bounds = {}
        for strength in (0.5, 1.0, 2.0):
            rep = verify_tempering_decomposition(
                dataclasses.replace(inst, swap_strength=strength)
            )
            assert rep.passed, rep.to_dict()
            bounds[strength] = rep.bound
        assert all(math.isfinite(b) for b in bounds.values())

    def test_single_level_matches_simple_verifier(self):
        grid = np.linspace(-4.0, 4.0, 40)
        dens = np.stack(
            [gauss_masses(grid, -1.0, 0.8), gauss_masses(grid, 1.4, 1.0)]
        )
        w = np.array([0.6, 0.4])
        simple = verify_simple_decomposition(
            SimpleInstance(grid=grid, weights=w, densities=dens)
        )[0]
        temp = verify_tempering_decomposition(
            TemperingInstance(
                grid=grid, betas=np.array([1.0]), rel_probs=np.array([1.0]),
                comp_weights=w[None, :], densities=dens[None, :, :],
                swap_rate=1.0, swap_strength=1.0,
            )
        )
        assert temp.C == pytest.approx(simple.C, rel=1e-10)
        assert temp.C_bar == pytest.approx(simple.C_bar, rel=1e-10)
        assert temp.C_star == pytest.approx(simple.C_star, rel=1e-10)
        assert temp.passed

    def test_nan_weight_is_rejected(self):
        inst = random_tempering_instance(np.random.default_rng(19))
        cw = inst.comp_weights.copy()
        cw[1, 0] = np.nan
        with pytest.raises(ValueError, match="weights must be positive"):
            verify_tempering_decomposition(dataclasses.replace(inst, comp_weights=cw))

    def test_strength_choices_are_respected(self):
        rng = np.random.default_rng(37)
        seen = {
            random_tempering_instance(rng, strength_choices=(0.5, 1.0, 2.0)
                                      ).swap_strength
            for _ in range(20)
        }
        assert seen <= {0.5, 1.0, 2.0}
        assert len(seen) > 1

    def test_instance_shapes(self):
        rng = np.random.default_rng(41)
        inst = random_tempering_instance(rng)
        L, m, n = inst.densities.shape
        assert (L, m) == (3, 2)
        assert 48 <= n <= 64
        np.testing.assert_allclose(inst.densities.sum(axis=2), 1.0, rtol=1e-12)
        np.testing.assert_allclose(inst.comp_weights.sum(axis=1), 1.0)
        assert inst.betas[-1] == 1.0


@st.composite
def tempering_shapes(draw):
    """(levels, components, positions, seed) with at most MAX_STATES joint states."""
    L = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(8, MAX_STATES // L))
    return L, m, n, draw(st.integers(0, 2**32 - 1))


@given(tempering_shapes())
@settings(max_examples=25, deadline=None)
def test_tempering_bound_holds_at_random_shapes(shape):
    L, m, n, seed = shape
    rng = np.random.default_rng(seed)
    grid = np.linspace(-6.0, 6.0, n)
    betas = np.ones(1) if L == 1 else rng.uniform(0.05, 0.3) ** (1.0 - np.arange(L) / (L - 1))
    centers = rng.uniform(-2.5, 2.5, m)
    sigmas = rng.uniform(0.6, 1.2, m)
    dens = np.stack([
        np.stack([gauss_masses(grid, c, s, beta) for c, s in zip(centers, sigmas)])
        for beta in betas
    ])
    cw = rng.uniform(0.1, 1.0, (L, m))
    cw /= cw.sum(axis=1, keepdims=True)
    inst = TemperingInstance(
        grid=grid, betas=betas, rel_probs=np.full(L, 1.0 / L), comp_weights=cw,
        densities=dens, swap_rate=float(rng.uniform(0.5, 2.0)),
        swap_strength=float(rng.choice([0.5, 1.0, 2.0])),
    )
    rep = verify_tempering_decomposition(inst, tol=1e-6)
    assert rep.passed, rep.to_dict()
    assert rep.identity_residual < 1e-8
    assert (rep.details["levels"], rep.details["components"], rep.details["positions"]) == (L, m, n)


class TestInstanceHashing:
    def test_same_seed_same_hash(self):
        a = random_simple_instance(np.random.default_rng(7)).hash()
        b = random_simple_instance(np.random.default_rng(7)).hash()
        assert a == b
        assert len(a) == 16
        int(a, 16)

    def test_different_seeds_differ(self):
        a = random_simple_instance(np.random.default_rng(1)).hash()
        b = random_simple_instance(np.random.default_rng(2)).hash()
        assert a != b

    def test_tempering_hash_covers_strength(self):
        rng = np.random.default_rng(3)
        inst = random_tempering_instance(rng)
        other = dataclasses.replace(inst, swap_strength=inst.swap_strength * 2)
        assert inst.hash() != other.hash()

    def test_hash_is_order_sensitive(self):
        x = np.arange(4.0)
        y = np.arange(4.0)[::-1]
        assert instance_hash(x, y) != instance_hash(y, x)

    def test_random_densities_equal_the_per_component_masses(self):
        # replay each builder's draws; every density row is gauss_masses, bit for bit
        for seed in range(20):
            inst = random_simple_instance(np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            rng.integers(24, 65)
            m = int(rng.integers(1, 4))
            centers, sigmas = rng.uniform(-2.0, 2.0, m), rng.uniform(0.6, 1.5, m)
            for j in range(m):
                np.testing.assert_array_equal(
                    inst.densities[j], gauss_masses(inst.grid, centers[j], sigmas[j]))
            inst = random_tempering_instance(np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            rng.integers(48, 65)
            rng.uniform(0.05, 0.3)
            centers, sigmas = rng.uniform(-2.5, 2.5, 2), rng.uniform(0.6, 1.2, 2)
            for i, beta in enumerate(inst.betas):
                for j in range(2):
                    np.testing.assert_array_equal(
                        inst.densities[i, j],
                        gauss_masses(inst.grid, centers[j], sigmas[j], beta))

    def test_random_simple_instance_ranges(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            inst = random_simple_instance(rng)
            m, n = inst.densities.shape
            assert 1 <= m <= 3
            assert 24 <= n <= 64
            np.testing.assert_allclose(inst.densities.sum(axis=1), 1.0,
                                       rtol=1e-12)
            assert inst.weights.sum() == pytest.approx(1.0)
