"""Greedy recommenders, their targets, and the randomized baselines."""
import gc
import itertools
import math
import warnings
import weakref
from dataclasses import replace

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
    build_graph,
    estimate_br,
    exact_br,
    exact_gamma,
    exact_rwcc,
    exact_rwcc_many,
    generate_gadget,
    generate_polarized,
    repbublik,
    repbublik_plus,
    weight_oracle,
)
import repbublik.harness as harness
import repbublik.recommend as rec
from repbublik.errors import NoOppositeColor, RepbublikError, ThresholdOrder
from repbublik.recommend import _top_pool

from conftest import random_polarized
from oracles import (
    NoLegalTarget,
    brute_force_opt,
    exact_gain,
    legal_targets,
    random_plan_by_integers,
    target_selection,
)


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
        assert legal_targets(apply_plan(graph, plan.edges), 0).size == 0

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
            repbublik(graph, "R", 3, cfg).validate_against(graph)
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
            # eta is one plus the edges planned from the source before.
            for i, e in enumerate(plan.edges):
                eta = 1 + sum(1 for prev in plan.edges[:i] if prev.src == e.src)
                assert e.weight == 1.0 / (graph.out_degree(e.src) + eta)


class TestTargetSelection:
    def test_only_blue_node_is_chosen(self):
        g = build_graph(
            ["R", "B", "R"], [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]
        )
        cfg = WalkConfig(t=5, theta_good=2.0, theta_bad=2.5)
        assert target_selection(g, 2, (), cfg) == 1

    def test_no_legal_target(self, g1):
        cfg = WalkConfig(t=5, theta_good=2.0, theta_bad=2.5)
        with pytest.raises(NoLegalTarget):
            target_selection(g1, 0, (), cfg)

    def test_gadget_lowest_br_is_sink(self):
        gadget = generate_gadget(2, [[0, 1], [1]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0)
        assert target_selection(gadget.graph, 0, (), cfg) == gadget.sink


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
        cfg = WalkConfig(t=6, theta_good=1.5, theta_bad=3.0, seed=11)
        for fn in (baseline_pure_random, baseline_rcn, baseline_rwcn):
            a = fn(polarized, "R", 4, cfg)
            b = fn(polarized, "R", 4, cfg)
            assert a.edges == b.edges

    def test_sources_come_from_static_parochial_set(self, polarized):
        cfg = WalkConfig(t=6, theta_good=1.5, theta_bad=3.0, seed=2)
        br = exact_br(polarized, 6)
        parochial = {
            int(v) for v in polarized.nodes_of("R") if br.values[v] >= 3.0
        }
        plan = baseline_pure_random(polarized, "R", 6, cfg)
        plan.validate_against(polarized)
        assert {e.src for e in plan.edges} <= parochial

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_empty_parochial_gives_a_silent_short_plan(self, g1, name, backend):
        # A short plan is data: the callers that present results warn.
        cfg = WalkConfig(t=5, theta_good=2.0, theta_bad=4.0, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = ALGORITHMS[name](g1, "R", 2, cfg, backend=backend)
        assert plan.requested == 2 and len(plan) == 0

    def test_top_pool_ceiling(self):
        pool = np.arange(58)
        scores = np.linspace(1.0, 0.0, 58)
        assert _top_pool(pool, scores).size == 6

    def test_rcn_pool_ordering_matches_exact_centrality(self):
        graph = dominant_hub_graph()
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=4)
        # 10% of 7 parochial nodes -> pool of 1: must be the hub (node 0).
        plan = baseline_rcn(graph, "R", 2, cfg)
        assert len(plan) == 2
        assert {e.src for e in plan.edges} == {0}

    def test_rwcn_matches_rcn_when_degrees_equal(self, monkeypatch):
        graph = twin_hub_graph()
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=8)
        br = exact_br(graph, 6)
        pool = np.array(
            [int(v) for v in graph.nodes_of("R") if br.values[v] >= 3.0]
        )
        cent = np.array([exact_rwcc(graph, int(v), pool, 4) for v in pool])
        weights = np.array([weight_oracle(graph, int(v)) for v in pool])
        # All out-degrees equal -> the two rankings coincide, all the way down.
        assert len(set(graph.out_degree(int(v)) for v in pool)) == 1
        monkeypatch.setattr(rec, "DEFAULT_TOP_PCT", 100.0)
        a = _top_pool(pool, cent)
        b = _top_pool(pool, cent * weights)
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
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=6)
        br = exact_br(graph, 6)
        pool = np.array(
            [int(v) for v in graph.nodes_of("R") if br.values[v] >= 3.0]
        )
        assert set(pool.tolist()) == {0, 1, 2, 3, 4, 5, 6}
        rcn_plan = baseline_rcn(graph, "R", 2, cfg)
        rwcn_plan = baseline_rwcn(graph, "R", 2, cfg)
        assert {e.src for e in rcn_plan.edges} == {1}
        assert {e.src for e in rwcn_plan.edges} == {0}

    def test_registry_names(self):
        assert set(ALGORITHMS) == {
            "repbublik", "repbublik-plus", "pure-random", "rcn", "rwcn"
        }


@pytest.mark.parametrize("backend", ["exact", "mc"])
def test_no_recommender_warns(backend):
    # The gadget has three legal edges, so every plan for 8 comes back
    # short, and epsilon = 0.9 cannot separate thresholds 0.5 apart: the
    # package still raises nothing in the process that builds the plans.
    gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
    cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, epsilon=0.9, delta=0.2, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plans = [fn(gadget.graph, "R", 8, cfg, backend=backend) for fn in ALGORITHMS.values()]
        rec.br_table(gadget.graph, cfg, "mc", 0)
    assert all(plan.requested == 8 > len(plan) for plan in plans)


class TestSeedFree:
    """``EXACT_SEED_FREE`` names exactly the entries whose exact-backend
    plan does not depend on the seed, and the sweep builds their plans once
    per color under the exact backend and once per (seed, color) otherwise."""

    SEEDS = (0, 1, 2, 3, 4)

    @staticmethod
    def _cases():
        rng = np.random.default_rng(331)
        cases = []
        for i in range(12):
            graph, t = random_polarized(rng, n_max=30, t_range=(4, 7))
            cases.append((graph, WalkConfig(
                t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=i,
            )))
        return cases

    def test_set_holds_exactly_the_seed_free_entries(self):
        assert rec.EXACT_SEED_FREE <= set(ALGORITHMS)
        differs = dict.fromkeys(ALGORITHMS, False)
        for graph, cfg in self._cases():
            for name, fn in ALGORITHMS.items():
                for color in ("R", "B"):
                    plans = {
                        fn(graph, color, 6, replace(cfg, seed=seed)).edges
                        for seed in self.SEEDS
                    }
                    if name in rec.EXACT_SEED_FREE:
                        assert len(plans) == 1, (name, color)
                    differs[name] |= len(plans) > 1
        assert {name for name, d in differs.items() if not d} == rec.EXACT_SEED_FREE

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_sweep_builds_a_seed_free_plan_once_per_color(
        self, backend, tmp_path, monkeypatch, call_log
    ):
        evaluated = []
        for name in rec.EXACT_SEED_FREE:
            def spy(graph, color, budget, cfg, backend="exact", name=name, fn=ALGORITHMS[name]):
                call_log.note(name, cfg.seed, color)
                return fn(graph, color, budget, cfg, backend=backend)

            monkeypatch.setitem(ALGORITHMS, name, spy)
        original = harness.br_table

        def br_spy(grown, *args):
            evaluated.append(grown)
            return original(grown, *args)

        monkeypatch.setattr(harness, "br_table", br_spy)
        algorithms, k_values = sorted(rec.EXACT_SEED_FREE), [1, 4, 9]
        built = total = 0
        for graph, cfg in self._cases()[:4]:
            # The call log reads the notes of forked workers too; the graphs
            # the cells evaluate are compared by identity at one worker, where
            # every cell runs in this process.
            for workers in (1, 2, 3):
                monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
                call_log.clear()
                evaluated.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    records = harness.run_sweep(
                        graph, algorithms, k_values, cfg, self.SEEDS, tmp_path / "s.csv",
                        backend=backend,
                    )
                calls = call_log.read()
                colors = {color for _, _, color in calls}
                per_seed = [
                    (n, s, c) for n in algorithms for s in self.SEEDS for c in sorted(colors)
                ]
                if backend == "mc":
                    assert sorted(calls) == per_seed
                    continue
                # Built by the first seed's cell, and only then.
                assert sorted(calls) == sorted({(n, self.SEEDS[0], c) for n, _, c in per_seed})
                if workers > 1:
                    continue
                # Every seed's cell at one K evaluates the one shared grown graph.
                for i in range(0, len(records), len(self.SEEDS)):
                    cell_graphs = evaluated[1 + i : 1 + i + len(self.SEEDS)]
                    assert all(g is cell_graphs[0] for g in cell_graphs)
            built += len(colors)
            total += len(records)
        assert built >= 6 and total == 4 * len(algorithms) * len(k_values) * len(self.SEEDS)


# ---------------------------------------------------------------- references
# The lowest-BR pick from the mask-based legal targets and the per-round
# lexsort loop of repbublik_plus, as they were before the sorted-position
# targets and the heap replaced them; the plan builders must reproduce them
# bit for bit.  The mask-based random plan is ``oracles.random_plan_by_integers``.


def _pick_reference(legal, v, br):
    if legal.size == 0:
        raise NoLegalTarget(v)
    return int(legal[np.lexsort((legal, br.values[legal]))[0]])


def _plus_reference(graph, color, budget, cfg):
    _, pool = rec._prologue(graph, color, budget, cfg, "exact")
    if pool.size == 0 or budget == 0:
        return ()
    base = rec._centralities(
        graph, pool, cfg, "exact", rec.derive_seed(cfg.seed, rec._TAG_RWCC, 0)
    )
    target_br = exact_br(graph, cfg.t)
    planned = np.zeros(graph.n, dtype=np.int64)
    open_ = np.ones(pool.size, dtype=bool)
    taken = {}
    edges = []
    while len(edges) < budget and open_.any():
        weight = np.array([weight_oracle(graph, v, planned=int(planned[v])) for v in pool])
        eta = planned[pool] + 1
        score = base * weight / eta
        ranked = np.lexsort((pool, eta, -score))
        i = int(ranked[open_[ranked]][0])
        v = int(pool[i])
        legal = legal_targets(graph, v, taken.get(v, ()))
        try:
            target = _pick_reference(legal, v, target_br)
        except NoLegalTarget:
            open_[i] = False
            continue
        edges.append((v, target, float(weight[i])))
        taken.setdefault(v, []).append(target)
        planned[v] += 1
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


class _RecordedDraws:
    """Stands in for a plan's draws: records each bound and draws from
    ``rng`` with ``Generator.integers``."""

    def __init__(self, rng):
        self.rng = rng
        self.high = self.k = None

    def below(self, high):
        self.high, self.k = high, int(self.rng.integers(high))
        return self.k


class TestArgumentChecks:
    """Every registry entry checks its budget, then that the other color
    exists, before any Bubble Radius or closeness work; a bad seed cannot
    reach an entry, since the config it reads the seed from rejects it.
    An empty parochial pool is no error: the plan is empty."""

    CFG = WalkConfig(t=4, theta_good=1.5, theta_bad=2.0)

    @pytest.mark.parametrize("fn", list(ALGORITHMS.values()), ids=list(ALGORITHMS))
    def test_checks_keep_their_order(self, fn, g1, g2, all_red_cycle, monkeypatch):
        for color in ("R", "B"):  # g1 is all cosmopolitan
            assert len(fn(g1, color, 2, self.CFG)) == 0

        def no_walks(*args, **kwargs):
            raise AssertionError("walk work before the argument checks")

        monkeypatch.setattr(rec, "br_table", no_walks)
        monkeypatch.setattr(rec, "closeness", no_walks)
        with pytest.raises(ThresholdOrder, match="budget"):
            fn(g2, "R", -1, self.CFG)
        with pytest.raises(ThresholdOrder, match="budget"):
            fn(all_red_cycle, "R", -1, self.CFG)
        with pytest.raises(NoOppositeColor):
            fn(all_red_cycle, "R", 1, self.CFG)
        with pytest.raises(ThresholdOrder, match="seed"):
            fn(g2, "R", 1, replace(self.CFG, seed=-1))


class TestTargets:
    """The plan builder's sorted-position targets equal the mask-based legal
    targets, both the uniform draws of a plan given ``draws`` and the
    lowest-BR picks of one without, and a source without one leaves the
    plan and the stream as they were."""

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform-seeded", "lowest-br"])
    def test_pick_equals_mask_reference(self, uniform):
        rng = np.random.default_rng(67)
        checked = exhausted = 0
        for graph, cfg in _plan_cases():
            br = exact_br(graph, cfg.t)
            for v in range(graph.n):
                draws = _RecordedDraws(rng) if uniform else None
                plan = rec._Plan(graph, graph.color_of(v), 0, draws)
                plan.rank(br)
                taken = []
                while True:
                    legal = legal_targets(graph, v, taken)
                    if legal.size == 0:
                        edges, planned = list(plan.edges), plan.planned.copy()
                        state = rng.bit_generator.state
                        assert not plan.add(v)
                        assert plan.edges == edges
                        assert plan.planned.tolist() == planned.tolist()
                        assert rng.bit_generator.state == state
                        exhausted += 1
                        break
                    assert plan.add(v)
                    edge = plan.edges[-1]
                    if uniform:
                        assert plan.draws.high == legal.size
                        assert edge.dst == legal[plan.draws.k]
                    else:
                        assert edge.dst == _pick_reference(legal, v, br)
                    assert edge.weight == weight_oracle(graph, v, planned=len(taken))
                    taken.append(edge.dst)
                    assert plan.planned[v] == len(taken) == plan.planned.sum()
                    checked += 1
        assert checked > 2000 and exhausted > 300


class TestDraws:
    """A plan's draws replay ``Generator.integers(bound)`` from the raw words
    of the same Philox stream, and a random plan built on them is the plan
    the scalar draws give."""

    EDGES = [1, 2, 2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32]
    REJECTING = [3 * 2**30, 2**31 + 1]  # about a quarter and a half rejected

    @classmethod
    def _bounds(cls, rng, kind):
        small, large = rng.integers(1, 500, 3000), rng.integers(1, 2**32 + 1, 3000)
        if kind == "edges":
            return rng.choice(cls.EDGES, 3000).tolist()
        if kind == "mixed":
            return np.where(rng.random(3000) < 0.5, small, large).tolist()
        return (small if kind == "small" else large).tolist()

    @pytest.mark.parametrize("kind", ["edges", "small", "large", "mixed"])
    def test_equals_generator_integers(self, kind):
        rng = np.random.default_rng(83)
        for seed in range(4):
            bounds = self._bounds(rng, kind)
            generator = rec.stream(seed, rec._TAG_BASELINE, 5)
            draws = rec._Draws(rec.stream(seed, rec._TAG_BASELINE, 5).bit_generator)
            want = [int(generator.integers(b)) for b in bounds]
            assert [draws.below(b) for b in bounds] == want
            assert all(0 <= k < b for k, b in zip(want, bounds))

    @pytest.mark.parametrize("bound", REJECTING)
    def test_rejected_draws_are_drawn_again(self, bound):
        """With a bound that often rejects, the generator's draws are not
        the plain products of the stream's 32-bit halves, and the replay
        still equals them: the rejection loop ran, draw for draw."""
        words = rec.stream(7, 1).bit_generator.random_raw(1000)
        halves = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel().tolist()
        generator = rec.stream(7, 1)
        want = [int(generator.integers(bound)) for _ in range(1000)]
        assert [(u * bound) >> 32 for u in halves[:1000]] != want
        draws = rec._Draws(rec.stream(7, 1).bit_generator)
        assert [draws.below(bound) for _ in range(1000)] == want

    def test_a_bound_of_one_reads_nothing(self):
        draws = rec._Draws(rec.stream(3, 2).bit_generator)
        assert [draws.below(1) for _ in range(5)] == [0] * 5
        want = rec.stream(3, 2).integers(1000, size=50).tolist()
        assert [draws.below(1000) for _ in range(50)] == want


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
                    plan = repbublik_plus(graph, color, budget, cfg)
                    expected = _plus_reference(graph, color, budget, cfg)
                    assert _triples(plan) == expected
                    runs += bool(expected)
        assert runs > 100

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
            calls.clear()
            plan = repbublik_plus(graph, "R", 5, cfg, backend=backend)
            assert len(calls) == 1
            if backend == "exact":
                assert _triples(plan) == _plus_reference(graph, "R", 5, cfg)

    def test_baselines_equal_mask_loop(self):
        """Whole random plans, over pools of a whole color, a top slice, one
        node and none, several seeds, and budgets that run the pool out of
        legal targets, equal the mask loop's plans, drawn with one scalar
        ``Generator.integers`` call a draw."""
        short = edges = 0
        for graph, cfg in _plan_cases():
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                top = _top_pool(nodes, np.arange(nodes.size, dtype=float))
                budgets = (5, 40, graph.n * graph.n)
                for pool, budget, seed in itertools.product(
                    (nodes, top, nodes[:1], nodes[:0]), budgets, range(3)
                ):
                    rng = rec.stream(cfg.seed, 3, seed)
                    plan = rec._random_plan(graph, pool, color, budget, rng)
                    want = random_plan_by_integers(graph, pool, budget, rec.stream(cfg.seed, 3, seed))
                    assert _triples(plan) == want
                    short += 0 < len(plan) < budget  # the pool ran out
                    edges += len(plan)
        assert short > 300 and edges > 15000

    def test_pooled_exclusions_equal_per_source_rows(self):
        """One pass over a pool finds, for each source in pool order, the
        positions in the other color of its out-neighbors that a per-source
        ``graph.row`` lookup finds."""
        rng = np.random.default_rng(71)
        checked = 0
        for graph, _ in _plan_cases():
            for color in ("R", "B"):
                others = graph.nodes_of("B" if color == "R" else "R")
                nodes = graph.nodes_of(color)
                for pool in (nodes, nodes[::-1], nodes[:0], nodes[:1], rng.permutation(nodes)):
                    want = [
                        [i for i, w in enumerate(others.tolist()) if w in graph.row(v)[0]]
                        for v in pool.tolist()
                    ]
                    assert rec._excluded_positions(graph, others, pool) == want
                    checked += len(want)
        assert checked > 500

    def test_source_linked_to_the_whole_other_color(self, monkeypatch):
        """A source that starts out linked to every node of the other color
        is passed over with nothing drawn for its target, then dropped from
        the pool, as in the mask loop."""
        colors = ["R"] * 4 + ["B"] * 3
        edges = [(0, w, 0.25) for w in (1, 4, 5, 6)]  # node 0 links to every blue node
        edges += [(1, 2, 0.5), (1, 4, 0.5), (2, 3, 1.0), (3, 1, 1.0)]
        edges += [(4, 5, 1.0), (5, 6, 1.0), (6, 0, 1.0)]
        graph = build_graph(colors, edges)
        pool = np.arange(4)
        assert rec._excluded_positions(graph, graph.nodes_of("B"), pool)[0] == [0, 1, 2]
        add, passed_over = rec._Plan.add, []

        def spy(plan, v):
            added = add(plan, v)
            passed_over.extend([v] if not added else [])
            return added

        monkeypatch.setattr(rec._Plan, "add", spy)
        for seed in range(8):
            plan = rec._random_plan(graph, pool, "R", 6, rec.stream(seed, 3))
            assert _triples(plan) == random_plan_by_integers(graph, pool, 6, rec.stream(seed, 3))
            assert 0 not in [e.src for e in plan.edges] and len(plan) == 6
        assert passed_over.count(0) >= 4  # at most once per plan


class TestMemo:
    """Exact BR and closeness, and Monte Carlo BR, are computed once per
    graph and read-only."""

    @staticmethod
    def _plans(graph, cfg, backend):
        out = []
        for fn in ALGORITHMS.values():
            for color in ("R", "B"):
                out.append(_triples(fn(graph, color, 6, cfg, backend=backend)))
        return out

    def test_warm_and_cold_memo_give_the_same_plans(self):
        for (graph, cfg), backend in itertools.product(_plan_cases(8), ["exact", "mc"]):
            cfg = WalkConfig(t=cfg.t, theta_good=1.0, epsilon=0.9, delta=0.5, seed=3)
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
            # Each epsilon sizes its own walk count.
            for t, epsilon, seed in [(3, 0.9, 0), (4, 0.9, 0), (3, 0.9, 1), (3, 0.8, 0),
                                     (3, 0.7, 0)]:
                cold = ColoredGraph(graph.colors, graph.indptr, graph.targets, graph.weights)
                args = (t, epsilon, 0.5, seed)
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
        estimate_br(g2, 4, 0.9, 0.5, seed=3)
        for t, seed in [(4.0, 3), (4, 3.0)]:
            with pytest.raises(ThresholdOrder):
                estimate_br(g2, t, 0.9, 0.5, seed=seed)

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
    both for every registry entry and both backends.
    """

    BUDGETS = (0, 1, 3, 7, 16, 29)
    TOP = 40

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
    def _outcome(fn, graph, color, budget, cfg, backend):
        """(error or None, edges) of one call."""
        try:
            plan = fn(graph, color, budget, cfg, backend=backend)
        except (RepbublikError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}", ()
        return None, plan.edges

    def _check(self, fn, graph, cfg, backend, tally):
        for color in ("R", "B"):
            error, top = self._outcome(fn, graph, color, self.TOP, cfg, backend)
            self._assert_oracle_weights(graph, color, top)
            for k in self.BUDGETS:
                outcome = self._outcome(fn, graph, color, k, cfg, backend)
                if k > 0 or error is None:
                    assert outcome == (error, top[:k]), (k, color)
            if fn is repbublik and error is None and len(top) < self.TOP:
                self._assert_no_legal_target_left(graph, color, top, cfg, backend)
            tally["error" if error else "short" if len(top) < self.TOP else "full"] += 1

    @staticmethod
    def _assert_oracle_weights(graph, color, edges):
        """Each edge carries ``weight_oracle`` of the edges planned from its
        source before it, and ``weight_oracle`` of an array of nodes equals
        the one-node calls under the plan's counts."""
        planned = np.zeros(graph.n, dtype=np.int64)
        for e in edges:
            assert e.weight == weight_oracle(graph, e.src, planned=int(planned[e.src]))
            planned[e.src] += 1
        pool = graph.nodes_of(color)
        assert weight_oracle(graph, pool, planned=planned[pool]).tolist() == [
            weight_oracle(graph, v, planned=int(planned[v])) for v in pool.tolist()
        ]

    @staticmethod
    def _assert_no_legal_target_left(graph, color, edges, cfg, backend):
        """A short greedy plan ends on a round whose pool has no legal target."""
        grown = apply_plan(graph, edges)
        _, pool = rec._parochial_pool(grown, color, cfg, backend, len(edges))
        assert all(legal_targets(grown, v).size == 0 for v in pool.tolist())

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_random_graphs(self, backend):
        tally = {"full": 0, "short": 0, "error": 0}
        for fn in ALGORITHMS.values():
            for graph, cfg in self._cases():
                self._check(fn, graph, cfg, backend, tally)
        assert tally["full"] >= 15 and tally["short"] >= 100 and tally["error"] == 5

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_desk_graph(self, backend):
        graph = generate_polarized(200, 200, 0.02, 0.002, seed=0)
        if backend == "exact":
            cfg = WalkConfig(t=10, theta_good=2.0, theta_bad=5.0, seed=0)
        else:  # a short horizon keeps the Monte Carlo passes cheap
            cfg = WalkConfig(t=4, theta_good=1.5, theta_bad=2.0, epsilon=1.0, delta=0.5, seed=0)
        tally = {"full": 0, "short": 0, "error": 0}
        for fn in ALGORITHMS.values():
            if backend == "mc" and fn is repbublik:
                continue  # 96 Monte Carlo BR passes per color; covered on the random graphs
            self._check(fn, graph, cfg, backend, tally)
        assert tally["full"] > 0
