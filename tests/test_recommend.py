"""Greedy recommenders, target policies, and the randomized baselines."""
import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest

from repbublik import (
    ALGORITHMS,
    ColoredGraph,
    EdgeInsertion,
    WalkConfig,
    apply_plan,
    baseline_pure_random,
    baseline_rcn,
    baseline_rwcn,
    brute_force_opt,
    build_graph,
    estimate_br,
    exact_br,
    exact_gain,
    exact_gamma,
    exact_rwcc,
    exact_rwcc_many,
    generate_gadget,
    generate_polarized,
    repbublik,
    repbublik_plus,
    target_selection,
    weight_oracle,
)
import repbublik.recommend as rec
from repbublik.errors import NoLegalTarget, NoOppositeColor, RepbublikError, ThresholdOrder
from repbublik.recommend import _top_pool

from conftest import random_polarized


def dominant_hub_graph():
    """One red hub fed by six parochial feeders; hub escape chain 0->7->8->blue.

    At t=6, theta_bad=3: parochial = {hub 0, feeders 1..6}; only the hub has
    positive centrality, and by a wide margin.  Two blue nodes so the hub can
    legally take more than one new cross edge.
    """
    edges = [(f, 0, 1.0) for f in range(1, 7)]
    edges += [(0, 7, 1.0), (7, 8, 1.0), (8, 9, 1.0), (9, 0, 1.0), (10, 0, 1.0)]
    return build_graph(["R"] * 9 + ["B", "B"], edges)


def twin_hub_graph():
    """Two symmetric red hubs (ids 0, 1), three feeders each, equal chains."""
    edges = [(f, 0, 1.0) for f in (2, 3, 4)]
    edges += [(f, 1, 1.0) for f in (5, 6, 7)]
    edges += [(0, 8, 1.0), (8, 9, 1.0), (9, 12, 1.0)]
    edges += [(1, 10, 1.0), (10, 11, 1.0), (11, 12, 1.0)]
    edges += [(12, 0, 1.0)]
    return build_graph(["R"] * 12 + ["B"], edges)


class TestRepbublik:
    def test_zero_budget(self, g2):
        cfg = WalkConfig(t=4, theta_good=1.5, theta_bad=2.0)
        plan = repbublik(g2, "R", 0, cfg)
        assert len(plan) == 0 and plan.requested == 0

    def test_gadget_picks_element_node(self):
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=4)
        plan = repbublik(gadget.graph, "R", 1, cfg)
        assert len(plan) == 1
        assert plan.edges[0].src in set(int(v) for v in gadget.elements)
        assert plan.edges[0].dst == gadget.sink

    def test_approximation_bound_on_small_instance(self):
        rng = np.random.default_rng(99)
        t = 6
        while True:
            graph, _ = random_polarized(rng, n_max=10, t_range=(t, t))
            br = exact_br(graph, t)
            parochial = [
                int(v) for v in graph.nodes_of("R") if br.values[v] >= t / 2
            ]
            if parochial:
                break
        cfg = WalkConfig(t=t, theta_good=2.0, theta_bad=t / 2, seed=1)
        plan = repbublik(graph, "R", 1, cfg)
        _, opt_gain = brute_force_opt(graph, "R", 1, t)
        mine = exact_gain(graph, parochial, plan.edges, t) if len(plan) else 0.0
        factor = (4 * exact_gamma(graph, t) + 1) * (1 + 1 / math.e)
        assert mine * factor + 1e-9 >= opt_gain

    def test_early_stop_when_healed(self):
        gadget = generate_gadget(2, [[0], [1]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=0)
        plan = repbublik(gadget.graph, "R", 5, cfg)
        assert plan.requested == 5
        assert len(plan) == 2  # one edge heals each element, then P is empty

    def test_passes_over_a_saturated_source(self):
        # Node 0 comes to link to all three blue nodes while it still scores
        # best; the greedy goes on from the next source instead of failing.
        graph, cfg = _plan_cases()[4]
        plan = repbublik(graph, "R", 9, cfg)
        assert len(plan) == 9 == len(repbublik_plus(graph, "R", 9, cfg))
        assert _legal_targets_reference(apply_plan(graph, plan.edges), 0).size == 0

    def test_no_opposite_color_rejected(self, all_red_cycle):
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0)
        with pytest.raises(NoOppositeColor):
            repbublik(all_red_cycle, "R", 1, cfg)

    def test_plans_are_legal(self):
        rng = np.random.default_rng(3)
        cfgs = 0
        while cfgs < 10:
            graph, t = random_polarized(rng, n_max=20, t_range=(5, 8))
            cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, seed=7)
            plan = repbublik(graph, "R", 3, cfg)
            plan.validate_against(graph)
            assert all(e.weight == pytest.approx(
                1.0 / (graph.out_degree(e.src) + sum(
                    1 for prev in plan.edges[:i] if prev.src == e.src
                ) + 1)
            ) for i, e in enumerate(plan.edges))
            cfgs += 1


class TestRepbublikPlus:
    def test_first_pick_matches_plain_greedy(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            graph, t = random_polarized(rng, n_max=16, t_range=(5, 8))
            cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, seed=5)
            a = repbublik(graph, "R", 1, cfg)
            b = repbublik_plus(graph, "R", 1, cfg)
            assert a.edges == b.edges

    def test_dominant_hub_takes_both_edges(self):
        graph = dominant_hub_graph()
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=2)
        br = exact_br(graph, 6)
        pool = [int(v) for v in graph.nodes_of("R") if br.values[v] >= 3.0]
        assert pool == [0, 1, 2, 3, 4, 5, 6]
        scores = {
            v: exact_rwcc(graph, v, pool, 4) * weight_oracle(graph, v)
            for v in pool
        }
        ranked = sorted(scores.values(), reverse=True)
        assert ranked[0] > 2 * ranked[1]  # the dominance premise
        plan = repbublik_plus(graph, "R", 2, cfg)
        assert [e.src for e in plan.edges] == [0, 0]

    def test_near_tied_hubs_use_distinct_sources(self):
        graph = twin_hub_graph()
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=2)
        br = exact_br(graph, 6)
        pool = [int(v) for v in graph.nodes_of("R") if br.values[v] >= 3.0]
        c0 = exact_rwcc(graph, 0, pool, 4)
        c1 = exact_rwcc(graph, 1, pool, 4)
        assert c0 == pytest.approx(c1)  # exactly tied by symmetry
        plan = repbublik_plus(graph, "R", 2, cfg)
        assert sorted(e.src for e in plan.edges) == [0, 1]

    def test_plans_are_legal_and_eta_consistent(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            graph, t = random_polarized(rng, n_max=20, t_range=(5, 8))
            cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, seed=9)
            plan = repbublik_plus(graph, "B", 4, cfg)
            plan.validate_against(graph)
            for v in set(e.src for e in plan.edges):
                assert plan.eta(v) == 1 + sum(1 for e in plan.edges if e.src == v)


class TestTargetSelection:
    def test_only_blue_node_is_chosen(self):
        g = build_graph(
            ["R", "B", "R"], [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]
        )
        cfg = WalkConfig(t=5, theta_good=2.0, theta_bad=2.5)
        assert target_selection(g, 2, (), cfg=cfg) == 1

    def test_no_legal_target(self, g1):
        cfg = WalkConfig(t=5, theta_good=2.0, theta_bad=2.5)
        with pytest.raises(NoLegalTarget):
            target_selection(g1, 0, (), cfg=cfg)

    def test_gadget_lowest_br_is_sink(self):
        gadget = generate_gadget(2, [[0, 1], [1]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0)
        assert target_selection(gadget.graph, 0, (), cfg=cfg) == gadget.sink

    def test_uniform_policy_is_seeded(self, g2):
        g = build_graph(
            ["R", "B", "B", "B"],
            [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)],
        )
        picks = {
            target_selection(g, 0, (), policy="uniform-seeded", seed=s)
            for s in range(30)
        }
        assert picks <= {2, 3}  # 1 is an existing edge
        assert len(picks) == 2
        assert target_selection(g, 0, (), policy="uniform-seeded", seed=5) == \
            target_selection(g, 0, (), policy="uniform-seeded", seed=5)


class TestBaselines:
    @pytest.fixture
    def polarized(self):
        rng = np.random.default_rng(1)
        graph, _ = random_polarized(rng, n_max=30, t_range=(6, 6))
        return graph

    def test_zero_budget(self, polarized):
        cfg = WalkConfig(t=6, theta_good=1.5, theta_bad=3.0, seed=3)
        for fn in (baseline_pure_random, baseline_rcn, baseline_rwcn):
            assert len(fn(polarized, "R", 0, cfg)) == 0

    def test_reproducible_given_seed(self, polarized):
        cfg = WalkConfig(t=6, theta_good=1.5, theta_bad=3.0, seed=3)
        for fn in (baseline_pure_random, baseline_rcn, baseline_rwcn):
            a = fn(polarized, "R", 4, cfg, seed=11)
            b = fn(polarized, "R", 4, cfg, seed=11)
            assert a.edges == b.edges

    def test_sources_come_from_static_parochial_set(self, polarized):
        cfg = WalkConfig(t=6, theta_good=1.5, theta_bad=3.0, seed=3)
        br = exact_br(polarized, 6)
        parochial = {
            int(v) for v in polarized.nodes_of("R") if br.values[v] >= 3.0
        }
        plan = baseline_pure_random(polarized, "R", 6, cfg, seed=2)
        plan.validate_against(polarized)
        assert {e.src for e in plan.edges} <= parochial

    def test_empty_parochial_warns(self, g1):
        cfg = WalkConfig(t=5, theta_good=2.0, theta_bad=4.0, seed=3)
        with pytest.warns(RuntimeWarning):
            plan = baseline_pure_random(g1, "R", 2, cfg)
        assert len(plan) == 0

    def test_top_pool_ceiling(self):
        pool = np.arange(58)
        scores = np.linspace(1.0, 0.0, 58)
        assert _top_pool(pool, scores, 10.0).size == 6

    def test_rcn_pool_ordering_matches_exact_centrality(self):
        graph = dominant_hub_graph()
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=8)
        # 10% of 7 parochial nodes -> pool of 1: must be the hub (node 0).
        plan = baseline_rcn(graph, "R", 2, cfg, seed=4)
        assert len(plan) == 2
        assert {e.src for e in plan.edges} == {0}

    def test_rwcn_matches_rcn_when_degrees_equal(self):
        graph = twin_hub_graph()
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=8)
        br = exact_br(graph, 6)
        pool = np.array(
            [int(v) for v in graph.nodes_of("R") if br.values[v] >= 3.0]
        )
        cent = np.array([exact_rwcc(graph, int(v), pool, 4) for v in pool])
        weights = np.array([weight_oracle(graph, int(v)) for v in pool])
        # All out-degrees equal -> the two rankings coincide.
        assert len(set(graph.out_degree(int(v)) for v in pool)) == 1
        a = _top_pool(pool, cent, 30.0)
        b = _top_pool(pool, cent * weights, 30.0)
        assert a.tolist() == b.tolist()

    def test_rwcn_diverges_from_rcn_when_degrees_differ(self):
        # Hub 0: two feeders, out-degree 1.  Hub 1: three feeders, out-degree
        # 3.  Centrality ranks hub 1 first, the weighted score ranks hub 0
        # first, so the two top-10% pools differ.
        edges = [(2, 0, 1.0), (3, 0, 1.0)]
        edges += [(f, 1, 1.0) for f in (4, 5, 6)]
        edges += [(0, 7, 1.0), (7, 8, 1.0), (8, 13, 1.0)]
        edges += [(1, m, 1 / 3) for m in (9, 10, 11)]
        edges += [(m, 12, 1.0) for m in (9, 10, 11)]
        edges += [(12, 13, 1.0), (13, 0, 1.0)]
        graph = build_graph(["R"] * 13 + ["B"], edges)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=8)
        br = exact_br(graph, 6)
        pool = np.array(
            [int(v) for v in graph.nodes_of("R") if br.values[v] >= 3.0]
        )
        assert set(pool.tolist()) == {0, 1, 2, 3, 4, 5, 6}
        rcn_plan = baseline_rcn(graph, "R", 2, cfg, seed=6)
        rwcn_plan = baseline_rwcn(graph, "R", 2, cfg, seed=6)
        assert {e.src for e in rcn_plan.edges} == {1}
        assert {e.src for e in rwcn_plan.edges} == {0}

    def test_registry_names(self):
        assert set(ALGORITHMS) == {
            "repbublik", "repbublik-plus", "pure-random", "rcn", "rwcn"
        }


# ---------------------------------------------------------------- references
# The mask-based target choice and the per-round lexsort loop of
# repbublik_plus, as they were before the sorted-position targets and the
# heap replaced them; the plan builders must reproduce them bit for bit.


def _legal_targets_reference(graph, v, taken=()):
    legal = ~graph.color_mask(graph.color_of(v))
    legal[graph.row(v)[0]] = False
    legal[list(taken)] = False
    return np.flatnonzero(legal)


def _pick_reference(legal, v, policy, br, rng):
    if legal.size == 0:
        raise NoLegalTarget(v)
    if policy == "uniform-seeded":
        return int(legal[rng.integers(legal.size)])
    return int(legal[np.lexsort((legal, br.values[legal]))[0]])


def _plus_reference(graph, color, budget, cfg, seed, policy):
    seed, _, pool = rec._prologue(graph, color, budget, cfg, seed, "exact")
    if pool.size == 0 or budget == 0:
        return ()
    base = rec._centralities(graph, pool, cfg, "exact", rec.derive_seed(seed, rec._TAG_RWCC, 0))
    target_br = exact_br(graph, cfg.t)
    rng = rec.stream(seed, rec._TAG_TARGET)
    planned = np.zeros(graph.n, dtype=np.int64)
    open_ = np.ones(pool.size, dtype=bool)
    taken = {}
    edges = []
    while len(edges) < budget and open_.any():
        weight = rec._oracle_weights(graph, pool, planned)
        eta = planned[pool] + 1
        score = base * weight / eta
        ranked = np.lexsort((pool, eta, -score))
        i = int(ranked[open_[ranked]][0])
        v = int(pool[i])
        legal = _legal_targets_reference(graph, v, taken.get(v, ()))
        try:
            target = _pick_reference(legal, v, policy, target_br, rng)
        except NoLegalTarget:
            open_[i] = False
            continue
        edges.append((v, target, float(weight[i])))
        taken.setdefault(v, []).append(target)
        planned[v] += 1
    return tuple(edges)


def _random_plan_reference(graph, pool, budget, rng):
    pool = [int(v) for v in pool]
    planned = {}
    edges = []
    while len(edges) < budget and pool:
        v = pool[int(rng.integers(len(pool)))]
        legal = _legal_targets_reference(graph, v, planned.get(v, ()))
        if legal.size == 0:
            pool.remove(v)
            continue
        w = int(legal[rng.integers(legal.size)])
        taken = planned.setdefault(v, [])
        edges.append((v, w, weight_oracle(graph, v, planned=len(taken))))
        taken.append(w)
    return tuple(edges)


def _triples(plan):
    return tuple((e.src, e.dst, e.weight) for e in plan.edges)


def _plan_cases(n=24):
    rng = np.random.default_rng(61)
    cases = []
    for i in range(n):
        graph, t = random_polarized(rng, n_max=30, t_range=(3, 9))
        cases.append((graph, WalkConfig(t=t, theta_good=1.0, seed=i)))
    return cases


class _Draws:
    """Stands in for a Generator: records each bound and draws from ``rng``."""

    def __init__(self, rng):
        self.rng = rng
        self.high = self.k = None

    def integers(self, high):
        self.high, self.k = high, int(self.rng.integers(high))
        return self.k


class TestUnknownPolicy:
    """An unknown target policy raises before any closeness work, whatever
    the pool, and after the budget, seed and opposite-color checks."""

    GREEDIES = [repbublik, repbublik_plus]
    CFG = WalkConfig(t=4, theta_good=1.5, theta_bad=2.0)

    @pytest.mark.parametrize("fn", GREEDIES)
    def test_raised_on_an_all_cosmopolitan_graph(self, fn, g1):
        for color in ("R", "B"):
            for budget in (0, 2):
                assert len(fn(g1, color, budget, self.CFG)) == 0  # the pool is empty
                with pytest.raises(ValueError, match="unknown target policy 'bogus'"):
                    fn(g1, color, budget, self.CFG, policy="bogus")

    @pytest.mark.parametrize("fn", GREEDIES)
    def test_raised_before_closeness(self, fn, g2, monkeypatch):
        def no_closeness(*args, **kwargs):
            raise AssertionError("closeness computed for an unknown policy")

        assert len(fn(g2, "R", 1, self.CFG)) == 1  # the pool is not empty
        monkeypatch.setattr(rec, "closeness", no_closeness)
        with pytest.raises(ValueError, match="unknown target policy 'bogus'"):
            fn(g2, "R", 1, self.CFG, policy="bogus")

    @pytest.mark.parametrize("fn", GREEDIES)
    def test_earlier_checks_keep_precedence(self, fn, g2, all_red_cycle):
        with pytest.raises(ThresholdOrder, match="budget"):
            fn(g2, "R", -1, self.CFG, policy="bogus")
        with pytest.raises(ThresholdOrder, match="seed"):
            fn(g2, "R", 1, self.CFG, seed=-1, policy="bogus")
        with pytest.raises(NoOppositeColor):
            fn(all_red_cycle, "R", 1, self.CFG, policy="bogus")


class TestTargets:
    """Sorted-position targets equal the mask-based legal targets."""

    @pytest.mark.parametrize("policy", ["uniform-seeded", "lowest-br"])
    def test_pick_equals_mask_reference(self, policy):
        rng = np.random.default_rng(67)
        checked = exhausted = 0
        for graph, cfg in _plan_cases():
            br = exact_br(graph, cfg.t)
            for v in range(graph.n):
                targets = rec._Targets(graph, graph.color_of(v), policy)
                targets.rank(br)
                draws = _Draws(rng)
                taken = []
                while True:
                    legal = _legal_targets_reference(graph, v, taken)
                    if legal.size == 0:
                        with pytest.raises(NoLegalTarget):
                            targets.pick(v, draws)
                        exhausted += 1
                        break
                    w = targets.pick(v, draws)
                    if policy == "uniform-seeded":
                        assert draws.high == legal.size
                        assert w == legal[draws.k]
                    else:
                        assert w == _pick_reference(legal, v, policy, br, None)
                    taken.append(w)
                    checked += 1
        assert checked > 2000 and exhausted > 300

    def test_unknown_policy_rejected(self, g2):
        with pytest.raises(ValueError, match="unknown target policy"):
            rec._Targets(g2, "R", "nearest")


class TestPlanPaths:
    """The heap plan and the sorted-position baselines equal the old loops."""

    SCORINGS = {
        "exact": None,
        "zero": lambda pool: np.zeros(pool.size),
        "tied": lambda pool: np.array([0.0, 0.5, 1.0])[pool % 3],
    }

    @pytest.mark.parametrize("scoring", sorted(SCORINGS))
    def test_heap_equals_lexsort_loop(self, scoring, monkeypatch):
        scores = self.SCORINGS[scoring]
        if scores is not None:
            monkeypatch.setattr(rec, "_centralities", lambda g, pool, *a: scores(pool))
        runs = 0
        for graph, cfg in _plan_cases():
            for color in ("R", "B"):
                others = graph.nodes_of("B" if color == "R" else "R").size
                for budget in (1, 7, graph.n * others):  # the last one exhausts
                    for policy in ("lowest-br", "uniform-seeded"):
                        plan = repbublik_plus(graph, color, budget, cfg, policy=policy)
                        expected = _plus_reference(graph, color, budget, cfg, cfg.seed, policy)
                        assert _triples(plan) == expected
                        runs += bool(expected)
        assert runs > 200

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_one_br_table_per_plan(self, backend, monkeypatch):
        # Targets are ranked with the prologue's table.  With the exact
        # backend that is the table a separate request returns, so the plan
        # is the one the reference builds with its own exact_br call.
        original = rec.br_table
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rec, "br_table", spy)
        for graph, cfg in _plan_cases(8):
            cfg = WalkConfig(t=cfg.t, theta_good=1.0, epsilon=0.9, delta=0.5, seed=cfg.seed)
            for policy in ("lowest-br", "uniform-seeded"):
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    plan = repbublik_plus(graph, "R", 5, cfg, backend=backend, policy=policy)
                assert len(calls) == 1
                if backend == "exact":
                    assert _triples(plan) == _plus_reference(graph, "R", 5, cfg, cfg.seed, policy)

    def test_baselines_equal_mask_loop(self):
        for graph, cfg in _plan_cases():
            for color in ("R", "B"):
                pool = graph.nodes_of(color)
                for budget in (5, graph.n * graph.n):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        plan = rec._random_plan(graph, pool, color, budget, rec.stream(cfg.seed, 3))
                    expected = _random_plan_reference(graph, pool, budget, rec.stream(cfg.seed, 3))
                    assert _triples(plan) == expected


class TestMemo:
    """Exact BR and closeness, and Monte Carlo BR, are computed once per
    graph and read-only."""

    @staticmethod
    def _plans(graph, cfg, backend):
        out = []
        for fn in ALGORITHMS.values():
            for color in ("R", "B"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    out.append(_triples(fn(graph, color, 6, cfg, seed=3, backend=backend)))
        return out

    def test_warm_and_cold_memo_give_the_same_plans(self):
        for (graph, cfg), backend in itertools.product(_plan_cases(8), ["exact", "mc"]):
            cfg = WalkConfig(t=cfg.t, theta_good=1.0, epsilon=0.9, delta=0.5, seed=cfg.seed)
            warm = self._plans(graph, cfg, backend)
            assert graph.memo
            cold = ColoredGraph(graph.colors, graph.indptr, graph.targets, graph.weights)
            assert not cold.memo
            assert self._plans(graph, cfg, backend) == self._plans(cold, cfg, backend) == warm

    def test_cached_results_are_read_only_and_shared(self, g2):
        table = exact_br(g2, 4)
        assert exact_br(g2, 4) is table
        assert not table.values.flags.writeable
        values = exact_rwcc_many(g2, [2, 0], [0, 1, 2], 3)
        assert exact_rwcc_many(g2, [2, 0], [0, 1, 2], 3) is values
        with pytest.raises(ValueError):
            values[0] = 1.0
        assert exact_rwcc_many(g2, [0, 2], [0, 1, 2], 3).tolist() == values.tolist()[::-1]
        grown = apply_plan(g2, [EdgeInsertion(0, 3, 0.5)])
        assert not grown.memo
        assert exact_br(grown, 4) is not table
        estimate = estimate_br(g2, 4, 0.9, 0.5, seed=3)
        assert estimate_br(g2, 4, 0.9, 0.5, seed=3) is estimate
        assert not estimate.values.flags.writeable

    def test_memo_keys_tell_requests_apart(self):
        for graph, cfg in _plan_cases(8):
            nodes = graph.nodes_of("R")
            requests = [
                (nodes, nodes, cfg.t), (nodes, nodes[::2], cfg.t), (nodes[::-1], nodes, cfg.t),
                (nodes, nodes, cfg.t + 1), (nodes[:1], nodes, cfg.t),
            ]
            for t in (cfg.t, cfg.t + 1):
                cold = ColoredGraph(graph.colors, graph.indptr, graph.targets, graph.weights)
                assert exact_br(graph, t).values.tolist() == exact_br(cold, t).values.tolist()
            for t, seed, walks in [(3, 0, 5), (4, 0, 5), (3, 1, 5), (3, 0, 6), (3, 0, None)]:
                cold = ColoredGraph(graph.colors, graph.indptr, graph.targets, graph.weights)
                args = (t, 0.9, 0.5, seed, walks)
                expected = estimate_br(cold, *args).values.tolist()
                assert estimate_br(graph, *args).values.tolist() == expected
            for args in requests:
                cold = ColoredGraph(graph.colors, graph.indptr, graph.targets, graph.weights)
                expected = exact_rwcc_many(cold, *args).tolist()
                assert exact_rwcc_many(graph, *args).tolist() == expected

    def test_bad_horizon_is_checked_before_the_memo(self, g2):
        exact_br(g2, 4)
        with pytest.raises(ThresholdOrder):
            exact_br(g2, 4.0)
        estimate_br(g2, 4, 0.9, 0.5, seed=3, walks_per_node=5)
        for bad in [(4.0, 3, 5), (4, 3.0, 5), (4, 3, 5.0)]:
            t, seed, walks = bad
            with pytest.raises(ThresholdOrder):
                estimate_br(g2, t, 0.9, 0.5, seed=seed, walks_per_node=walks)

    def test_memo_is_dropped_with_the_graph(self, g2):
        grown = apply_plan(g2, [EdgeInsertion(0, 3, 0.5)])
        exact_br(grown, 4)
        ref = weakref.ref(grown)
        del grown
        gc.collect()
        assert ref() is None


class TestPrefixContract:
    """A plan for budget K is the first K edges of the plan for any larger
    budget: the heap, the per-round greedy and the random draws consume
    their streams in the same order whatever the budget.  An entry that
    fails raises the same error at every positive budget.  The sweep builds
    one plan per (algorithm, seed, color) and slices it, so it relies on
    both for every registry entry, both backends and both target policies.
    """

    BUDGETS = (0, 1, 3, 7, 16, 29)
    TOP = 40

    @staticmethod
    def _variants():
        for fn in ALGORITHMS.values():
            if fn in (repbublik, repbublik_plus):
                yield from ((fn, {"policy": p}) for p in ("lowest-br", "uniform-seeded"))
            else:
                yield fn, {}

    @staticmethod
    def _cases():
        rng = np.random.default_rng(113)
        cases = []
        for i in range(14):  # the small ones run out of legal edges below 40
            graph, t = random_polarized(rng, n_max=12 if i % 2 else 40, t_range=(4, 7))
            cases.append((graph, WalkConfig(
                t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=i,
            )))
        saturating = _plan_cases()
        for i in (4, 17):  # the greedy's best red sources come to link to every blue node
            graph, cfg = saturating[i]
            cases.append((graph, WalkConfig(
                t=cfg.t, theta_good=1.0, epsilon=0.9, delta=0.5, seed=cfg.seed,
            )))
        one_color = build_graph(["R"] * 3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        cases.append((one_color, WalkConfig(t=4, theta_good=1.5, epsilon=0.9, delta=0.5)))
        return cases

    @staticmethod
    def _outcome(fn, graph, color, budget, cfg, backend, kwargs):
        """(error or None, edges) of one call."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                plan = fn(graph, color, budget, cfg, seed=cfg.seed + 5, backend=backend, **kwargs)
        except (RepbublikError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}", ()
        return None, plan.edges

    def _check(self, fn, graph, cfg, backend, kwargs, tally):
        for color in ("R", "B"):
            error, top = self._outcome(fn, graph, color, self.TOP, cfg, backend, kwargs)
            assert error is None or not error.startswith("NoLegalTarget")
            for k in self.BUDGETS:
                outcome = self._outcome(fn, graph, color, k, cfg, backend, kwargs)
                if k > 0 or error is None:
                    assert outcome == (error, top[:k]), (k, color)
            if fn is repbublik and error is None and len(top) < self.TOP:
                self._assert_no_legal_target_left(graph, color, top, cfg, backend)
            tally["error" if error else "short" if len(top) < self.TOP else "full"] += 1

    @staticmethod
    def _assert_no_legal_target_left(graph, color, edges, cfg, backend):
        """A short greedy plan ends on a round whose pool has no legal target."""
        grown = apply_plan(graph, edges)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, pool = rec._parochial_pool(grown, color, cfg, cfg.seed + 5, backend, len(edges))
        assert all(_legal_targets_reference(grown, v).size == 0 for v in pool.tolist())

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_random_graphs(self, backend):
        tally = {"full": 0, "short": 0, "error": 0}
        for fn, kwargs in self._variants():
            for graph, cfg in self._cases():
                self._check(fn, graph, cfg, backend, kwargs, tally)
        assert tally["full"] >= 20 and tally["short"] >= 100 and tally["error"] == 7

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_desk_graph(self, backend):
        graph = generate_polarized(200, 200, 0.02, 0.002, seed=0)
        if backend == "exact":
            cfg = WalkConfig(t=10, theta_good=2.0, theta_bad=5.0, seed=0)
        else:  # a short horizon keeps the Monte Carlo passes cheap
            cfg = WalkConfig(t=4, theta_good=1.5, theta_bad=2.0, epsilon=1.0, delta=0.5, seed=0)
        tally = {"full": 0, "short": 0, "error": 0}
        for fn, kwargs in self._variants():
            if backend == "mc" and fn is repbublik:
                continue  # 96 Monte Carlo BR passes per color; covered on the random graphs
            self._check(fn, graph, cfg, backend, kwargs, tally)
        assert tally["full"] > 0
