"""Monte Carlo estimators: sample sizes, concentration, sessions, determinism."""
import warnings

import numpy as np
import pytest

import repbublik.montecarlo as mc
from repbublik import (
    ColoredGraph,
    EdgeInsertion,
    WalkConfig,
    apply_plan,
    br_sample_size,
    build_graph,
    estimate_br,
    estimate_rwcc,
    estimate_rwcc_many,
    exact_br,
    exact_rwcc,
    generate_polarized,
    insert_edge,
    opposite,
    repbublik_plus,
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


def _two_hub_graph(rng):
    """Two hubs far longer than the other rows, with uneven weights."""
    n = 300
    edges = [(v, 0, 1.0) for v in range(2, n)]
    for hub, width in ((0, n - 2), (1, 40)):
        raw = rng.random(width) + 0.01
        edges += [(hub, w, x) for w, x in zip(range(2, 2 + width), raw / raw.sum())]
    return build_graph(["R", "R"] + ["B"] * (n - 2), edges)


def _packed_row_graph():
    """Row 0 puts 40 tiny weights below one bucket width, then one large
    weight, then 20 tiny weights again: two buckets hold many cuts."""
    n = 63
    raw = np.concatenate([np.full(40, 1e-5), [1.0], np.full(20, 3e-6)])
    edges = [(0, w, x) for w, x in zip(range(2, n), raw / raw.sum())]
    edges += [(1, 0, 1.0)] + [(v, 1, 1.0) for v in range(2, n)]
    return build_graph(["R", "R"] + ["B"] * (n - 2), edges)


def _grown(graph, rng):
    """``graph`` after up to 20 random cross-color insertions."""
    plan, seen = [], set()
    for _ in range(int(rng.integers(1, 21))):
        v = int(rng.integers(graph.n))
        others = graph.nodes_of(opposite(graph.color_of(v)))
        w = int(others[rng.integers(others.size)])
        if (v, w) in seen or graph.has_edge(v, w):
            continue
        seen.add((v, w))
        plan.append(EdgeInsertion(v, w, float(rng.uniform(0.01, 0.99))))
    return apply_plan(graph, plan)


def _full_row_search(graph, rowcum, states, u):
    """Reference step: a binary search of each walk's whole row for the last
    entry ``<= u``, in ``bit_length(max_degree)`` power-of-two steps clamped
    to the row's end (the search the bucket guide replaced)."""
    last = graph.indptr[states + 1] - 1
    pos = graph.indptr[states] - 1
    rounds = int(np.diff(graph.indptr).max()).bit_length()
    for size in [1 << k for k in reversed(range(rounds))]:
        cand = np.minimum(pos + size, last)
        pos = np.where(rowcum[cand] <= u, cand, pos)
    return graph.targets[np.minimum(pos + 1, last)]


def _probes(sampler, graph, s):
    """Uniforms at every guide bucket edge of row ``s`` and just below it,
    at each of the row's cumulative weights and their neighbours, and at 1
    and above."""
    edges = np.arange(int(sampler.scale[s]) + 1) / sampler.scale[s]
    cum = sampler.rowcum[graph.indptr[s] : graph.indptr[s + 1]]
    return np.concatenate([
        edges, np.nextafter(edges[1:], 0.0), cum, np.nextafter(cum, 0.0),
        np.nextafter(cum, 2.0), [np.nextafter(1.0, 2.0), 1.5],
    ])


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


    def test_rowcum_equals_per_row_cumsum(self):
        rng = np.random.default_rng(71)
        graphs = [random_polarized(rng)[0] for _ in range(24)]
        graphs.append(_two_hub_graph(rng))
        for graph in graphs:
            cum = _WalkSampler(graph).rowcum
            for v in range(graph.n):
                lo, hi = graph.indptr[v], graph.indptr[v + 1]
                assert np.array_equal(cum[lo:hi], np.cumsum(graph.weights[lo:hi]))
        # Extreme degree profiles as bare CSR rows, in shuffled order: one
        # huge row among short ones, and rows of pairwise distinct degrees
        # (no graph has those on every node: out-degrees lie in 1..n-1).
        huge = np.r_[rng.integers(1, 4, 500), 20_000]
        for degrees in (rng.permutation(huge), rng.permutation(np.arange(1, 121))):
            indptr = np.concatenate(([0], np.cumsum(degrees)))
            weights = rng.random(indptr[-1])
            cum = mc._row_cumsum(indptr, weights)
            for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
                assert np.array_equal(cum[lo:hi], np.cumsum(weights[lo:hi]))

    def test_step_matches_full_row_search_and_linear_count(self):
        rng = np.random.default_rng(89)
        graphs = [random_polarized(rng)[0] for _ in range(24)]
        graphs += [_grown(random_polarized(rng)[0], rng) for _ in range(12)]
        graphs += [_two_hub_graph(rng), _packed_row_graph()]
        assert len(_WalkSampler(graphs[-1]).search) > 1  # a multi-round bucket search
        for graph in graphs:
            sampler = _WalkSampler(graph)
            cum = sampler.rowcum
            states, u, linear = [], [], []
            for s in range(graph.n):
                lo, hi = graph.indptr[s], graph.indptr[s + 1]
                probe = _probes(sampler, graph, s)
                count = (cum[lo:hi][None, :] <= probe[:, None]).sum(axis=1)
                states.append(np.full(probe.size, s))
                u.append(probe)
                linear.append(graph.targets[lo + np.minimum(count, hi - lo - 1)])
            order = rng.permutation(sum(p.size for p in u))
            states, u = np.concatenate(states)[order], np.concatenate(u)[order]
            got = sampler.step(states, u)
            assert np.array_equal(got, _full_row_search(graph, cum, states, u))
            assert np.array_equal(got, np.concatenate(linear)[order])

    def test_guide_size_and_read_only(self):
        graphs = [_two_hub_graph(np.random.default_rng(71)),
                  generate_polarized(1000, 1000, 0.0025, 0.0004, seed=3)]
        for graph in graphs:
            sampler = _WalkSampler(graph)
            assert sampler.guide.size < 2 * mc.GUIDE * graph.edge_count
            for arr in (sampler.rowcum, sampler.scale, sampler.offsets,
                        sampler.guide, sampler.span_first, sampler.span_last):
                assert not arr.flags.writeable

    def test_one_sampler_per_graph(self, monkeypatch):
        built = []
        original = _WalkSampler.__init__

        def counting(self, graph):
            built.append(graph)
            original(self, graph)

        monkeypatch.setattr(_WalkSampler, "__init__", counting)
        graph, t = random_polarized(np.random.default_rng(97))
        reds = graph.nodes_of("R")
        estimate_br(graph, t, 0.5, 0.1, seed=1, walks_per_node=5)
        estimate_rwcc_many(graph, reds, reds, t, 0.5, 0.1, seed=1, num_sources=3)
        for seed in (1, 2):
            simulate_restart_session(graph, int(reds[0]), t, 2, seed=seed)
        assert len(built) == 1
        # An MC plan scores its input graph with one sampler, not two.
        fresh, _ = random_polarized(np.random.default_rng(97))
        cfg = WalkConfig(t=t, theta_good=1.0, epsilon=0.9, delta=0.5, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            repbublik_plus(fresh, "R", 3, cfg, backend="mc")
        assert sum(g is fresh for g in built) == 1

    def test_insert_edge_leaves_other_rows_bit_identical(self):
        rng = np.random.default_rng(73)
        for _ in range(24):
            graph, _ = random_polarized(rng)
            v = int(rng.integers(graph.n))
            others = graph.nodes_of(opposite(graph.color_of(v)))
            free = [int(w) for w in others if not graph.has_edge(v, int(w))]
            if not free:
                continue
            grown = insert_edge(graph, EdgeInsertion(v, free[0], 0.3))
            before, after = _WalkSampler(graph).rowcum, _WalkSampler(grown).rowcum
            for u in range(graph.n):
                if u != v:
                    old = before[graph.indptr[u] : graph.indptr[u + 1]]
                    new = after[grown.indptr[u] : grown.indptr[u + 1]]
                    assert old.tobytes() == new.tobytes()


def _fresh(graph):
    """The same graph with an empty memo, so that estimates are computed again."""
    return ColoredGraph(graph.colors, graph.indptr, graph.targets, graph.weights)


class TestEstimateBr:
    def test_g1_exact_one(self, g1):
        est = estimate_br(g1, 5, 0.9, 0.5, seed=3, walks_per_node=64)
        assert est.values == pytest.approx([1.0, 1.0])
        assert est.provenance == "estimated"

    def test_empty_graph_gives_empty_table(self):
        empty = build_graph([], [])
        est = estimate_br(empty, 4, 0.5, 0.05, seed=0, walks_per_node=2)
        assert est.values.shape == (0,) and est.t == 4

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
        a = estimate_br(_fresh(g2), 4, 0.3, 0.05, seed=11).values
        b = estimate_br(_fresh(g2), 4, 0.3, 0.05, seed=11).values
        assert np.array_equal(a, b)
        c = estimate_br(_fresh(g2), 4, 0.3, 0.05, seed=12).values
        assert not np.array_equal(a, c)


def _rwcc_one_source_at_a_time(graph, v, sources, t_prime, kappa, seed, z):
    """Reference: one drawn source at a time, each walking alone on rows
    i*kappa .. i*kappa + kappa - 1 of the node's one walk block."""
    src = np.asarray(sorted(set(sources)), dtype=np.int64)
    picks = stream(seed, _STREAM_RWCC_SOURCES, v).integers(0, src.size, size=z)
    block = stream(seed, _STREAM_RWCC_WALKS, v).random((z * kappa, t_prime))
    sampler = _WalkSampler(graph)
    stop = graph.color_mask("B" if graph.color_of(v) == "R" else "R").copy()
    stop[v] = True
    h_bars = np.empty(z)
    for i, pick in enumerate(picks):
        w = int(src[pick])
        if w == v:
            h_bars[i] = t_prime
            continue
        uniforms = block[i * kappa : (i + 1) * kappa]
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


BUDGETS = (1, 37, mc.WALK_ELEMENTS, 2**30)


class TestChunking:
    """No walk budget and no batch changes a Monte Carlo result."""

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(79)
        return [random_polarized(rng, n_max=20) for _ in range(4)]

    def test_br_equal_under_every_budget(self, monkeypatch):
        for graph, t in self._graphs():
            tables = []
            for budget in BUDGETS:
                monkeypatch.setattr(mc, "WALK_ELEMENTS", budget)
                table = estimate_br(_fresh(graph), t, 0.5, 0.1, seed=3, walks_per_node=9)
                tables.append(table.values)
            assert all(np.array_equal(tables[0], other) for other in tables[1:])

    def test_rwcc_many_equal_under_every_budget(self, monkeypatch):
        for graph, t in self._graphs():
            reds = graph.nodes_of("R")
            runs = []
            for budget in BUDGETS:
                monkeypatch.setattr(mc, "WALK_ELEMENTS", budget)
                runs.append(estimate_rwcc_many(graph, reds, reds, t, 0.5, 0.1, kappa=3,
                                               seed=5, num_sources=11))
            assert all(np.array_equal(runs[0], other) for other in runs[1:])

    @pytest.mark.parametrize("z", [13, 150])
    def test_one_node_equals_its_entry_in_any_batch(self, z, monkeypatch):
        rng = np.random.default_rng(83)
        monkeypatch.setattr(mc, "WALK_ELEMENTS", 37)
        for graph, t in self._graphs():
            blues = graph.nodes_of("B")
            batches = [blues, blues[::-1], np.concatenate([blues, blues[:2]]),
                       rng.permutation(blues)[: max(1, blues.size // 2)]]
            for batch in batches:
                got = estimate_rwcc_many(graph, batch, blues, t, 0.5, 0.1, kappa=2,
                                         seed=7, num_sources=z)
                for i, v in enumerate(batch):
                    alone = estimate_rwcc(graph, int(v), blues, t, 0.5, 0.1, kappa=2,
                                          seed=7, num_sources=z)
                    assert got[i] == alone

    def test_empty_batch(self, g2):
        assert estimate_rwcc_many(g2, [], [0, 1], 4, 0.5, 0.1).shape == (0,)


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
