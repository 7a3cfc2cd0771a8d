"""Monte Carlo estimators: sample sizes, concentration, sessions, determinism."""
import numpy as np
import pytest

from repbublik import (
    br_sample_size,
    build_graph,
    estimate_br,
    estimate_rwcc,
    exact_br,
    exact_rwcc,
    rwcc_sample_size,
    simulate_restart_session,
)
from repbublik.errors import EmptySourceSet, MixedColorSet, ThresholdOrder
from repbublik.montecarlo import (
    _STREAM_RWCC_SOURCES,
    _STREAM_RWCC_WALKS,
    _WalkSampler,
    _walk,
    derive_seed,
    stream,
)

from conftest import random_polarized


class TestSampleSizes:
    def test_br_formula_reference_value(self):
        assert br_sample_size(100, 10, 0.5, 0.05) == 3318

    def test_br_t_one(self):
        import math

        n, eps, delta = 30, 0.4, 0.1
        assert br_sample_size(n, 1, eps, delta) == math.ceil(
            (1 / eps**2) * math.log(2 * n / delta)
        )

    def test_br_loose_limit(self):
        # epsilon -> 1, delta -> 0.5, n = t = 1: ceil(ln 4) = 2
        assert br_sample_size(1, 1, 1.0, 0.5) == 2

    def test_rwcc_reference_value(self):
        assert rwcc_sample_size(10, 1.0, 0.1) == 250

    def test_rwcc_delta_one_rejected(self):
        with pytest.raises(ValueError):
            rwcc_sample_size(2, 1.0, 1.0)

    def test_rwcc_quarter_delta(self):
        assert rwcc_sample_size(4, 0.5, 0.25) == 64

    @pytest.mark.parametrize("epsilon,delta", [(0.0, 0.05), (1.5, 0.05), (0.5, 1.0)])
    def test_accuracy_outside_range_rejected(self, epsilon, delta):
        # The same rule WalkConfig applies.
        with pytest.raises(ThresholdOrder):
            br_sample_size(10, 5, epsilon, delta)
        with pytest.raises(ThresholdOrder):
            rwcc_sample_size(5, epsilon, delta)


class TestWalkSampler:
    def test_step_matches_linear_count(self):
        # Out-degrees 1, 4 (a power of two), 3 and 5, with uneven weights.
        rows = {0: [1], 1: [0, 2, 3, 4], 2: [0, 5, 6], 3: [0, 1, 2, 4, 5]}
        raw = {0: [1], 1: [1, 2, 3, 4], 2: [5, 1, 1], 3: [3, 1, 4, 1, 5]}
        edges = [(4, 0, 1.0), (5, 0, 1.0), (6, 0, 1.0)]
        for v, targets in rows.items():
            total = sum(raw[v])
            edges += [(v, w, m / total) for w, m in zip(targets, raw[v])]
        graph = build_graph(["R", "R", "B", "B", "R", "B", "R"], edges)
        sampler = _WalkSampler(graph)
        cum = sampler.rowcum

        rng = np.random.default_rng(5)
        u = np.concatenate([
            rng.random(400), cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        for s in range(graph.n):
            lo, hi = graph.indptr[s], graph.indptr[s + 1]
            states = np.full(u.size, s, dtype=np.int64)
            brute = (cum[lo:hi][None, :] <= u[:, None]).sum(axis=1)
            brute = np.minimum(brute, hi - lo - 1)
            assert np.array_equal(sampler.step(states, u), graph.targets[lo + brute])

        mixed = rng.integers(0, graph.n, size=u.size)
        expected = [
            graph.targets[graph.indptr[s] + min(
                int((cum[graph.indptr[s]:graph.indptr[s + 1]] <= x).sum()),
                graph.out_degree(int(s)) - 1,
            )]
            for s, x in zip(mixed, u)
        ]
        assert np.array_equal(sampler.step(mixed, u), expected)


class TestEstimateBr:
    def test_g1_exact_one(self, g1):
        est = estimate_br(g1, 5, 0.9, 0.5, seed=3, walks_per_node=64)
        assert est.values == pytest.approx([1.0, 1.0])
        assert est.provenance == "estimated"

    def test_all_red_component_capped(self, all_red_cycle):
        est = estimate_br(all_red_cycle, 4, 0.9, 0.5, seed=3, walks_per_node=32)
        assert est.values == pytest.approx([4.0, 4.0, 4.0])

    def test_g2_concentration_200_reruns(self, g2):
        # |estimate(a) - 3.5| <= 0.2 in at least a 1-delta share of reruns.
        eps, delta = 0.2, 0.01
        misses = 0
        for rep in range(200):
            est = estimate_br(g2, 4, eps, delta, seed=derive_seed(17, rep))
            if abs(est.values[0] - 3.5) > eps:
                misses += 1
        assert misses / 200 <= delta

    def test_walk_lengths_in_bounds(self, g2):
        sampler = _WalkSampler(g2)
        absorbing = g2.color_mask("B")
        uniforms = stream(5, 99, 0).random((500, 4))
        lengths, ends = _walk(sampler, 0, absorbing, uniforms)
        reached = ends >= 0
        assert lengths.min() >= 1 and lengths.max() <= 4
        assert reached.dtype == bool
        assert absorbing[ends[reached]].all() and (lengths[~reached] == 4).all()

    def test_deterministic_given_seed(self, g2):
        a = estimate_br(g2, 4, 0.3, 0.05, seed=11).values
        b = estimate_br(g2, 4, 0.3, 0.05, seed=11).values
        assert np.array_equal(a, b)
        c = estimate_br(g2, 4, 0.3, 0.05, seed=12).values
        assert not np.array_equal(a, c)


def _rwcc_one_source_at_a_time(graph, v, sources, t_prime, kappa, seed, z):
    """Reference: the per-source loop the batched estimator replaced."""
    src = np.asarray(sorted(set(sources)), dtype=np.int64)
    picks = stream(seed, _STREAM_RWCC_SOURCES, v).integers(0, src.size, size=z)
    sampler = _WalkSampler(graph)
    stop = graph.color_mask("B" if graph.color_of(v) == "R" else "R").copy()
    stop[v] = True
    h_bars = np.empty(z)
    for i, pick in enumerate(picks):
        w = int(src[pick])
        if w == v:
            h_bars[i] = t_prime
            continue
        uniforms = stream(seed, _STREAM_RWCC_WALKS, v, i).random((kappa, t_prime))
        steps, ends = _walk(sampler, w, stop, uniforms)
        h_bars[i] = np.where(ends == v, steps, t_prime).mean()
    return float(t_prime - h_bars.mean())


class TestEstimateRwcc:
    def test_batched_walks_match_per_source_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            graph, t = random_polarized(rng, n_max=20)
            reds = [int(w) for w in graph.nodes_of("R")]
            for v in reds[:3]:
                for kappa in (1, 4):
                    seed = int(rng.integers(2**32))
                    got = estimate_rwcc(graph, v, reds, t, 0.5, 0.1, kappa=kappa,
                                        seed=seed, num_sources=40)
                    assert got == _rwcc_one_source_at_a_time(
                        graph, v, reds, t, kappa, seed, 40
                    )

    def test_deterministic_single_edge(self):
        g = build_graph(["R", "R", "B"], [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        for kappa in (1, 3):
            value = estimate_rwcc(g, 1, {0}, 3, 0.5, 0.1, kappa=kappa, seed=1)
            assert value == pytest.approx(2.0)

    def test_unreachable_target_zero(self):
        g = build_graph(["R", "R", "B"], [(0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        assert estimate_rwcc(g, 1, {0}, 4, 0.5, 0.1, seed=2) == 0.0

    def test_g2_concentration(self, g2):
        eps, delta = 0.5, 0.05
        exact = exact_rwcc(g2, 2, {0, 1}, 4)
        misses = 0
        for rep in range(200):
            est = estimate_rwcc(
                g2, 2, {0, 1}, 4, eps, delta, kappa=4, seed=derive_seed(23, rep)
            )
            if abs(est - exact) > eps:
                misses += 1
        assert misses / 200 <= 0.05

    def test_hit_times_within_horizon(self, g2):
        value = estimate_rwcc(g2, 2, {0, 1}, 4, 1.0, 0.1, kappa=2, seed=5)
        assert 0.0 <= value <= 4.0 - 1.0  # t' minus at least one step

    def test_mixed_colors_rejected(self, g2):
        with pytest.raises(MixedColorSet):
            estimate_rwcc(g2, 2, {0, 3}, 4, 0.5, 0.1, seed=1)

    def test_empty_sources_rejected(self, g2):
        with pytest.raises(EmptySourceSet):
            estimate_rwcc(g2, 2, set(), 4, 0.5, 0.1, seed=1)

    def test_self_source_contributes_zero(self, g2):
        # With S = {v}, every draw is the self source: centrality must be 0.
        assert estimate_rwcc(g2, 0, {0}, 4, 0.5, 0.1, seed=9) == 0.0


class TestRestartSessions:
    def test_g1_always_one_step(self, g1):
        for seed in range(20):
            assert simulate_restart_session(g1, 0, 5, 3, seed=seed) == 1

    def test_all_red_never_reaches(self, all_red_cycle):
        for seed in range(20):
            assert simulate_restart_session(all_red_cycle, 0, 4, 2, seed=seed) is None

    def test_trapped_node_rarely_escapes_fast(self):
        # BR(0) >= t(1 - 1/(8r)) ==> P(session <= t/2) <= 1/4 (+ slack).
        t, r, q = 8, 2, 0.002
        g = build_graph(
            ["R", "R", "B"],
            [(0, 1, 1.0 - q), (0, 2, q), (1, 0, 1.0), (2, 0, 1.0)],
        )
        assert exact_br(g, t).values[0] >= t * (1 - 1 / (8 * r))
        fast = sum(
            1
            for s in range(2000)
            if (steps := simulate_restart_session(g, 0, t, r, seed=s)) is not None
            and steps <= t / 2
        )
        assert fast / 2000 <= 0.25 + 0.03

    def test_low_br_node_rarely_exceeds_4br(self, g1):
        # BR(0) = 1 <= b = 1 ==> P(session > 4br) <= 1/4 (+ slack).
        r, b = 2, 1.0
        exceed = sum(
            1
            for s in range(2000)
            if (steps := simulate_restart_session(g1, 0, 6, r, seed=s)) is None
            or steps > 4 * b * r
        )
        assert exceed / 2000 <= 0.25 + 0.03
