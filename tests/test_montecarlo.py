"""Monte Carlo estimators: sample sizes, concentration, sessions, determinism."""
import collections
import itertools
import math
import tracemalloc

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
    exact_rwcc_many,
    generate_polarized,
    insert_edge,
    opposite,
    repbublik_plus,
    rwcc_sample_size,
)
from repbublik.errors import (
    EmptySourceSet,
    MixedColorSet,
    ThresholdOrder,
    WorkLimitExceeded,
)
from repbublik.graph import MAX_WORK
from repbublik.montecarlo import _WalkSampler, derive_seed, stream

from conftest import random_polarized
from oracles import _walk, br_by_walks, rwcc_by_walks, simulate_restart_session


class TestSampleSizes:
    def test_br_formula_reference_value(self):
        # ceil(9^2 * ln(4000) / (2 * 0.25)) = ceil(1343.6)
        assert br_sample_size(100, 10, 0.5, 0.05) == 1344

    def test_br_t_one(self):
        # Every capped length is exactly 1, so one walk is exact.
        assert br_sample_size(30, 1, 0.4, 0.1) == 1

    def test_br_loose_limit(self):
        # epsilon -> 1, delta -> 0.5, n = t = 1: still one walk
        assert br_sample_size(1, 1, 1.0, 0.5) == 1

    def test_br_formula_on_a_grid(self):
        # Hoeffding for lengths in [1, t] with a union bound over n nodes.
        for n, t, eps, delta in itertools.product(
            (1, 7, 400), (2, 3, 10, 25), (0.1, 0.5, 0.9, 1.0), (0.01, 0.2, 0.5)
        ):
            want = math.ceil((t - 1) ** 2 * math.log(2 * n / delta) / (2 * eps**2))
            assert br_sample_size(n, t, eps, delta) == want, (n, t, eps, delta)

    def test_sizes_beyond_the_work_bound_are_typed(self):
        # About 3e20 walks per node, and as many source draws per request.
        with pytest.raises(WorkLimitExceeded, match="Bubble Radius walks"):
            br_sample_size(40, 10, 1e-9, 0.05)
        with pytest.raises(WorkLimitExceeded, match="closeness walks"):
            rwcc_sample_size(40, 10, 1e-9, 0.05)
        # An epsilon whose square underflows, and horizons past any float.
        with pytest.raises(WorkLimitExceeded):
            br_sample_size(40, 10, 1e-200, 0.05)
        with pytest.raises(WorkLimitExceeded):
            br_sample_size(40, 10**400, 0.5, 0.05)
        with pytest.raises(WorkLimitExceeded):
            rwcc_sample_size(40, 10**400, 0.5, 0.05)

    def test_sizes_at_100k_nodes_fit_the_work_bound(self):
        n, t = 100_000, 10
        assert n * br_sample_size(n, t, 0.5, 0.05) * t <= MAX_WORK
        # One closeness request serves every target of the 100k nodes.
        assert rwcc_sample_size(n, t, 0.5, 0.05) * t <= MAX_WORK

    def test_closeness_request_beyond_the_bound_is_typed(self, g2):
        # The source draw would otherwise fail inside numpy, untyped.
        with pytest.raises(WorkLimitExceeded):
            estimate_rwcc_many(g2, [0], {0, 1}, 4, 1e-9, 0.05, 0)

    def test_source_draws_beyond_the_draw_bound_are_typed(self, g2, monkeypatch):
        # 1e9 draws pass the work bound at t' = 3 but would need 8 GiB.
        with pytest.raises(WorkLimitExceeded, match="source draws"):
            estimate_rwcc_many(g2, [0, 1], {0, 1}, 3, 1e-4, 0.05, 0)
        # The bound holds the draws plus twice the first-visit records of a
        # pass: a walk first visits at most min(t' - 1, |C|) nodes, and g2
        # has three red nodes.
        for t_prime, visits in ((3, 2), (10, 3)):
            draws = rwcc_sample_size(g2.n, t_prime, 1.0, 0.5)
            limit = draws + 2 * min(draws, mc._WALK_GROUP) * visits
            monkeypatch.setattr(mc, "DRAW_ELEMENTS", limit)
            assert estimate_rwcc_many(g2, [0, 1], {0, 1}, t_prime, 1.0, 0.5, 0).shape == (2,)
            monkeypatch.setattr(mc, "DRAW_ELEMENTS", limit - 1)
            with pytest.raises(WorkLimitExceeded, match="source draws"):
                estimate_rwcc_many(g2, [0, 1], {0, 1}, t_prime, 1.0, 0.5, 0)
            # A request for no targets holds nothing, so it is never refused.
            assert estimate_rwcc_many(g2, [], {0, 1}, t_prime, 1.0, 0.5, 0).shape == (0,)

    def test_rwcc_reference_value(self):
        # The Bubble Radius rule at horizon t': a draw scores in [0, t' - 1].
        assert rwcc_sample_size(100, 10, 0.5, 0.05) == 1344
        assert rwcc_sample_size(30, 1, 0.4, 0.1) == 1  # every score is 0

    def test_rwcc_delta_one_rejected(self):
        with pytest.raises(ValueError):
            rwcc_sample_size(3, 2, 1.0, 1.0)

    def test_rwcc_quarter_delta(self):
        # ceil(3^2 * ln(8 * 4) / (2 * 0.25)) = ceil(62.4)
        assert rwcc_sample_size(4, 4, 0.5, 0.25) == 63
        for n, t_prime, eps, delta in itertools.product(
            (1, 7, 400), (2, 3, 8), (0.1, 0.5, 1.0), (0.01, 0.25)
        ):
            assert rwcc_sample_size(n, t_prime, eps, delta) == br_sample_size(
                n, t_prime, eps, delta
            )

    @pytest.mark.parametrize("epsilon,delta", [(0.0, 0.05), (1.5, 0.05), (0.5, 1.0)])
    def test_accuracy_outside_range_rejected(self, epsilon, delta):
        # The same rule WalkConfig applies.
        with pytest.raises(ThresholdOrder):
            br_sample_size(10, 5, epsilon, delta)
        with pytest.raises(ThresholdOrder):
            rwcc_sample_size(10, 5, epsilon, delta)


def _br_accuracy(n, t, r):
    """An (epsilon, delta) at which ``br_sample_size`` sizes r walks per node
    for n nodes at horizon t >= 2; needs r >= (t - 1)^2 ln(4n) / 2."""
    delta = 0.5
    epsilon = (t - 1) * math.sqrt(math.log(2 * n / delta) / (2 * r))
    assert br_sample_size(n, t, epsilon, delta) == r
    return epsilon, delta


def _rwcc_accuracy(n, t_prime, draws):
    """An (epsilon, delta) at which ``rwcc_sample_size`` sizes N = ``draws``
    source draws for n nodes at horizon t' >= 2; needs N >= (t' - 1)^2
    ln(4n) / 2."""
    delta = 0.5
    epsilon = (t_prime - 1) * math.sqrt(math.log(2 * n / delta) / (2 * draws))
    assert rwcc_sample_size(n, t_prime, epsilon, delta) == draws
    return epsilon, delta


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
    and at each of the row's cumulative weights and their neighbours; only
    those below 1, as ``Generator.random`` draws them."""
    edges = np.arange(int(sampler.scale[s]) + 1) / sampler.scale[s]
    cum = sampler.rowcum[graph.indptr[s] : graph.indptr[s + 1]]
    probes = np.concatenate([
        edges, np.nextafter(edges[1:], 0.0), cum, np.nextafter(cum, 0.0),
        np.nextafter(cum, 2.0),
    ])
    return probes[probes < 1.0]


class TestDeriveSeed:
    """The cached seed derivation checks every seed it is given and returns
    the values of the uncached SeedSequence computation."""

    @staticmethod
    def _uncached(seed, *key):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
        return int(ss.generate_state(1, np.uint64)[0])

    def test_seed_checks_survive_the_cache(self):
        assert derive_seed(1, 31) == self._uncached(1, 31)
        for bad in (1.0, np.float64(1.0), -1, 2**64, "1", None, [1], np.array(1)):
            with pytest.raises(ThresholdOrder, match="seed"):
                derive_seed(bad, 31)

    def test_cached_values_equal_the_computation(self):
        for seed in (0, 1, 31, 2**63, 2**64 - 1):
            for key in ((), (31,), (11, 0), (11, 7), (12, 3)):
                want = self._uncached(seed, *key)
                for given in (seed, np.uint64(seed), seed, np.uint64(seed)):
                    got = derive_seed(given, *key)
                    assert got == want and type(got) is int


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
        u = u[u < 1.0]  # the sampler's uniforms lie in [0, 1)
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
        estimate_br(graph, t, 1.0, 0.9, seed=1)
        estimate_rwcc_many(graph, reds, reds, t, 1.0, 0.9, seed=1)
        for seed in (1, 2):
            simulate_restart_session(graph, int(reds[0]), t, 2, seed=seed)
        assert len(built) == 1
        # An MC plan scores its input graph with one sampler, not two.
        fresh, _ = random_polarized(np.random.default_rng(97))
        cfg = WalkConfig(t=t, theta_good=1.0, epsilon=0.9, delta=0.5, seed=3)
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
        est = estimate_br(g1, 5, 0.9, 0.5, seed=3)
        assert est.values == pytest.approx([1.0, 1.0])

    def test_empty_graph_gets_the_exact_empty_table(self):
        # No node, no estimate to bound: the table is the exact backend's
        # empty one, while the sizing's union bound still needs a node and
        # the arguments are still checked.
        empty = build_graph([], [])
        table = estimate_br(empty, 4, 0.5, 0.05, seed=0)
        assert table.t == 4 and table.values.shape == (0,)
        assert table.values.dtype == exact_br(empty, 4).values.dtype
        with pytest.raises(ThresholdOrder, match="n must be"):
            br_sample_size(0, 4, 0.5, 0.05)
        for epsilon, t, seed in ((0.0, 4, 0), (0.5, 0, 0), (0.5, 4, -1)):
            with pytest.raises(ThresholdOrder):
                estimate_br(empty, t, epsilon, 0.05, seed=seed)

    def test_all_red_component_capped(self, all_red_cycle):
        est = estimate_br(all_red_cycle, 4, 0.9, 0.5, seed=3)
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


class TestEstimateRwcc:
    def test_batched_walks_match_per_source_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            graph, t = random_polarized(rng, n_max=20)
            reds = [int(w) for w in graph.nodes_of("R")]
            draws = rwcc_sample_size(graph.n, t, 1.0, 0.5)
            seed = int(rng.integers(2**32))
            values, _ = rwcc_by_walks(graph, reds, reds, t, seed, draws)
            got = estimate_rwcc_many(graph, reds, reds, t, 1.0, 0.5, seed)
            assert got.tolist() == values.tolist()
            for i, v in enumerate(reds[:3]):
                assert estimate_rwcc(graph, v, reds, t, 1.0, 0.5, seed) == values[i]

    def test_a_request_runs_one_walk_per_draw(self, monkeypatch):
        # Walk i starts at source draw i, so a request runs exactly N walks,
        # however its groups are cut.
        live_walks, walked = mc._live_walks, []

        def counting(sampler, live, horizon, rng, starts):
            walked.append(starts.size)
            return live_walks(sampler, live, horizon, rng, starts)

        monkeypatch.setattr(mc, "_live_walks", counting)
        monkeypatch.setattr(mc, "_WALK_GROUP", 37)
        rng = np.random.default_rng(101)
        for _ in range(3):
            graph, t = random_polarized(rng, n_max=16)
            reds = graph.nodes_of("R")
            for eps in (1.0, 0.3):
                walked.clear()
                estimate_rwcc_many(graph, reds, reds, t, eps, 0.2, seed=1)
                assert sum(walked) == rwcc_sample_size(graph.n, t, eps, 0.2)

    def test_uniform_miss_rate_against_exact(self):
        # With probability at least 1 - delta a request's estimates all lie
        # within epsilon of c(v, S), over pools and half pools of sources.
        rng = np.random.default_rng(151)
        eps, delta = 0.5, 0.2
        runs = misses = 0
        for _ in range(24):
            graph, t = random_polarized(rng)
            for color in ("R", "B"):
                pool = graph.nodes_of(color)
                for sources in (pool, pool[::2], pool[1::2]):
                    if sources.size == 0:
                        continue
                    exact = exact_rwcc_many(graph, pool, sources, t)
                    for _ in range(3):
                        est = estimate_rwcc_many(graph, pool, sources, t, eps, delta,
                                                 derive_seed(151, runs))
                        misses += int(np.abs(est - exact).max() > eps)
                        runs += 1
        assert runs >= 400
        assert misses <= delta * runs

    def test_deterministic_single_edge(self):
        g = build_graph(["R", "R", "B"], [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        assert estimate_rwcc(g, 1, {0}, 3, 0.5, 0.1, seed=1) == pytest.approx(2.0)

    def test_unreachable_target_zero(self):
        g = build_graph(["R", "R", "B"], [(0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        assert estimate_rwcc(g, 1, {0}, 4, 0.5, 0.1, seed=2) == 0.0

    def test_g2_concentration(self, g2):
        eps, delta = 0.5, 0.05
        exact = exact_rwcc(g2, 2, {0, 1}, 4)
        misses = 0
        for rep in range(200):
            est = estimate_rwcc(g2, 2, {0, 1}, 4, eps, delta, seed=derive_seed(23, rep))
            if abs(est - exact) > eps:
                misses += 1
        assert misses / 200 <= 0.05

    def test_hit_times_within_horizon(self, g2):
        value = estimate_rwcc(g2, 2, {0, 1}, 4, 1.0, 0.1, seed=5)
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


class TestChunking:
    """No batch changes a Monte Carlo result, and walks beyond a group keep
    the oracles' bits."""

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(79)
        return [random_polarized(rng, n_max=20) for _ in range(4)]

    @pytest.mark.parametrize("draws", [13, 150])
    def test_one_node_equals_its_entry_in_any_batch(self, draws):
        rng = np.random.default_rng(83)
        for graph, t in self._graphs():
            # N = 13 draws needs (t' - 1)^2 ln(4n) <= 26, and n < 20 here.
            horizon = min(t, 3 if draws == 13 else 9)
            eps, delta = _rwcc_accuracy(graph.n, horizon, draws)
            blues = graph.nodes_of("B")
            batches = [blues, blues[::-1], np.concatenate([blues, blues[:2]]),
                       rng.permutation(blues)[: max(1, blues.size // 2)]]
            for batch in batches:
                got = estimate_rwcc_many(graph, batch, blues, horizon, eps, delta, seed=7)
                for i, v in enumerate(batch):
                    alone = estimate_rwcc(graph, int(v), blues, horizon, eps, delta, seed=7)
                    assert got[i] == alone

    def test_empty_batch(self, g2):
        assert estimate_rwcc_many(g2, [], [0, 1], 4, 0.5, 0.1, 0).shape == (0,)

    def test_walks_beyond_a_group_equal_the_oracles(self):
        # More walks per node, and more source draws, than a group: every
        # node's walks straddle two groups.
        r = mc._WALK_GROUP + 5
        for graph, t in self._graphs()[:2]:
            reds = graph.nodes_of("R")
            br_eps, br_delta = _br_accuracy(graph.n, t, r)
            rw_eps, rw_delta = _rwcc_accuracy(graph.n, t, r)
            table = estimate_br(_fresh(graph), t, br_eps, br_delta, seed=4)
            assert np.array_equal(table.values, br_by_walks(graph, t, r, 4)[0])
            got = estimate_rwcc_many(graph, reds, reds, t, rw_eps, rw_delta, seed=4)
            assert got.tolist() == rwcc_by_walks(graph, reds, reds, t, 4, r)[0].tolist()

    def test_nodes_sharing_a_group_equal_the_oracle(self):
        # r does not divide the group, so a group holds the whole walks of
        # several nodes and part of the next one's, whose other part opens
        # the next group; and the blue walks draw on after the red ones.
        graph = generate_polarized(12, 10, 0.3, 0.05, seed=5)
        t, r = 6, 3001
        assert mc._WALK_GROUP % r and mc._WALK_GROUP > 4 * r
        eps, delta = _br_accuracy(graph.n, t, r)
        table = estimate_br(graph, t, eps, delta, seed=8)
        assert np.array_equal(table.values, br_by_walks(graph, t, r, 8)[0])

    def test_pass_memory_does_not_grow_with_walks(self, g2):
        peaks = []
        for r in (mc._WALK_GROUP, 8 * mc._WALK_GROUP):
            graph = _fresh(g2)
            mc._sampler_of(graph)
            eps, delta = _br_accuracy(graph.n, 4, r)
            tracemalloc.start()
            estimate_br(graph, 4, eps, delta, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # One group is held at a time either way; allow a few objects of slack.
        assert peaks[1] <= 1.01 * peaks[0]


class _CountingStream:
    """A walk stream that tallies the uniforms drawn from it under ``key``."""

    def __init__(self, rng, tally, key):
        self.rng, self.tally, self.key = rng, tally, key

    def random(self, size=None, out=None):
        self.tally[self.key] += out.size if out is not None else int(np.prod(size))
        return self.rng.random(size, out=out)


class TestDrawsRead:
    """Each request draws one uniform per step its walks take, and no more."""

    @pytest.fixture
    def tally(self, monkeypatch):
        tally = collections.Counter()
        walk_stream = mc._walk_stream

        def counting(seed, *key):
            return _CountingStream(walk_stream(seed, *key), tally, key)

        monkeypatch.setattr(mc, "_walk_stream", counting)
        return tally

    def test_br_draws_the_steps_taken(self, tally):
        rng = np.random.default_rng(89)
        for _ in range(3):
            graph, _ = random_polarized(rng, n_max=16)
            for t in (1, 2, 7):
                tally.clear()
                seed = int(rng.integers(2**32))
                table = estimate_br(graph, t, 1.0, 0.9, seed=seed)
                r = br_sample_size(graph.n, t, 1.0, 0.9)
                values, draws = br_by_walks(graph, t, r, seed)
                assert np.array_equal(table.values, values)
                # The table draws from its one walk stream, and at t = 1 not at all.
                steps = int(draws.sum())
                assert dict(tally) == ({(mc._STREAM_BR,): steps} if steps else {})
                if t == 1:
                    assert steps == 0

    def test_rwcc_draws_the_steps_taken(self, tally):
        # A request draws from its one walk stream, and at t' = 1 not at all.
        rng = np.random.default_rng(97)
        for _ in range(3):
            graph, _ = random_polarized(rng, n_max=16)
            for t in (1, 2, 7):
                draws = rwcc_sample_size(graph.n, t, 1.0, 0.9)
                for color in ("R", "B"):
                    tally.clear()
                    seed = int(rng.integers(2**32))
                    pool = graph.nodes_of(color)
                    got = estimate_rwcc_many(graph, pool, pool, t, 1.0, 0.9, seed=seed)
                    values, steps = rwcc_by_walks(graph, pool, pool, t, seed, draws)
                    assert got.tolist() == values.tolist()
                    assert dict(tally) == ({(mc._STREAM_RWCC_WALKS,): steps} if steps else {})
                    if t == 1:
                        assert steps == 0 and not got.any()

    def test_walks_score_nothing_on_their_own_start(self, g2, tally):
        # Every walk from 0 visits 1 and 2 on steps 1 and 2, and half of them
        # return to 0 on step 3, which scores nothing: the exact form skips
        # the self term.
        got = estimate_rwcc_many(g2, [0, 1, 2], {0}, 4, 0.5, 0.1, seed=9)
        assert got.tolist() == [0.0, 3.0, 2.0]
        assert got.tolist() == exact_rwcc_many(g2, [0, 1, 2], {0}, 4).tolist()
        assert sum(tally.values()) > 0

    def test_walks_across_groups(self, g2, tally):
        r = br_sample_size(g2.n, 4, 0.022, 0.1)
        assert r > 2 * mc._WALK_GROUP  # 40,742 walks per node: three groups each
        table = estimate_br(g2, 4, 0.022, 0.1, seed=6)
        values, draws = br_by_walks(g2, 4, r, 6)
        assert np.array_equal(table.values, values)
        assert tally[(mc._STREAM_BR,)] == draws.sum()
        draws = rwcc_sample_size(g2.n, 4, 0.015, 0.5)
        assert draws > 3 * mc._WALK_GROUP  # 55,452 draws of one walk: four groups
        got = estimate_rwcc_many(g2, [0, 1, 2], {0, 1, 2}, 4, 0.015, 0.5, seed=6)
        values, steps = rwcc_by_walks(g2, [0, 1, 2], {0, 1, 2}, 4, 6, draws)
        assert got.tolist() == values.tolist()
        assert tally[(mc._STREAM_RWCC_WALKS,)] == steps


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
