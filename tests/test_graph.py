"""Graph construction, edge insertion, the weight oracle, and plan types."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repbublik import (
    ColoredGraph,
    EdgeInsertion,
    InsertionPlan,
    WalkConfig,
    apply_plan,
    build_graph,
    insert_edge,
    weight_oracle,
)
from repbublik.errors import (
    DuplicateEdge,
    EdgeExists,
    GraphValidationError,
    NonStochasticRow,
    SameColorEndpoints,
    SelfLoopEdge,
    ThresholdOrder,
    UnknownColor,
    WorkLimitExceeded,
    ZeroOutDegree,
)
from repbublik.graph import MAX_WORK, STEP_COST, check_work

from conftest import graph_strategy, random_polarized
from oracles import insert_one_by_one


class TestBuildGraph:
    def test_minimal_legal_graph(self, g1):
        assert g1.n == 2
        assert g1.edge_count == 2
        assert g1.color_of(0) == "R" and g1.color_of(1) == "B"
        assert g1.has_edge(0, 1) and g1.has_edge(1, 0)
        assert not g1.has_edge(0, 0)

    def test_zero_out_degree_rejected(self):
        with pytest.raises(ZeroOutDegree) as exc:
            build_graph(["R", "R"], [(0, 1, 1.0)])
        assert exc.value.node == 1

    def test_near_stochastic_row_renormalized(self):
        g = build_graph(
            ["R", "R", "R", "R", "B"],
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 0, 1.0),
             (3, 0, 0.499999), (3, 4, 0.5)],
        )
        _, weights = g.row(3)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_far_from_stochastic_rejected(self):
        with pytest.raises(NonStochasticRow):
            build_graph(["R", "B"], [(0, 1, 0.8), (1, 0, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(["R", "B"], [(0, 1, 0.5), (0, 1, 0.5), (1, 0, 1.0)])

    def test_unknown_color_rejected(self):
        with pytest.raises(UnknownColor):
            build_graph(["R", "G"], [(0, 1, 1.0), (1, 0, 1.0)])

    @pytest.mark.parametrize("labels", [["Red", "Blue"], ["R", "Rx"], ["B ", "R"]])
    def test_longer_color_label_rejected_not_truncated(self, labels):
        with pytest.raises(UnknownColor, match="expected 'R' or 'B'"):
            build_graph(labels, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(UnknownColor):
            build_graph(np.asarray(labels), [(0, 1, 1.0), (1, 0, 1.0)])

    def test_edge_order_matches_lexsort(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            graph, _ = random_polarized(rng)
            src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
            order = rng.permutation(src.size)
            s, d, w = src[order], graph.targets[order], graph.weights[order]
            rebuilt = build_graph(graph.colors, list(zip(s.tolist(), d.tolist(), w.tolist())))
            by_lexsort = np.lexsort((d, s))
            assert np.array_equal(rebuilt.targets, d[by_lexsort])

    def test_edge_to_uncolored_node_rejected(self):
        with pytest.raises(UnknownColor):
            build_graph(["R", "B"], [(0, 2, 1.0), (1, 0, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopEdge):
            build_graph(["R", "B"], [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 1.0)])

    def test_rows_are_immutable(self, g1):
        with pytest.raises(ValueError):
            g1.weights[0] = 0.3


class TestInsertEdge:
    def test_renormalization_arithmetic(self):
        g = build_graph(
            ["R", "R", "B", "B"],
            [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)],
        )
        g2 = insert_edge(g, EdgeInsertion(0, 3, 0.25))
        targets, weights = g2.row(0)
        assert list(targets) == [1, 2, 3]
        assert list(weights) == pytest.approx([0.375, 0.375, 0.25])
        # original graph untouched
        assert not g.has_edge(0, 3)
        assert g.out_degree(0) == 2

    def test_existing_edge_rejected(self, g1):
        with pytest.raises(EdgeExists):
            insert_edge(g1, EdgeInsertion(0, 1, 0.5))

    def test_same_color_rejected(self, g2):
        with pytest.raises(SameColorEndpoints):
            insert_edge(g2, EdgeInsertion(0, 2, 0.5))

    def test_weight_bounds_enforced(self):
        with pytest.raises(NonStochasticRow):
            EdgeInsertion(0, 1, 1.0)
        with pytest.raises(NonStochasticRow):
            EdgeInsertion(0, 1, 0.0)

    def test_grown_graphs_share_one_read_only_red_mask(self):
        rng = np.random.default_rng(19)
        chains = 0
        for _ in range(10):
            graph, _ = random_polarized(rng, n_max=30)
            mask = graph.color_mask("R")
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
            current = graph
            for edge in _random_plan(graph, rng, int(rng.integers(1, 12))):
                current = insert_edge(current, edge)
                assert current.color_mask("R") is mask
                assert np.array_equal(current.color_mask("R"), current.colors == "R")
                assert np.array_equal(current.color_mask("B"), current.colors == "B")
                chains += 1
        assert chains > 30


class TestWeightOracle:
    def test_degree_three(self):
        g = build_graph(
            ["R", "B", "B", "B"],
            [(0, 1, 0.4), (0, 2, 0.3), (0, 3, 0.3),
             (1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)],
        )
        assert weight_oracle(g, 0) == pytest.approx(0.25)

    def test_degree_one(self, g1):
        assert weight_oracle(g1, 0) == pytest.approx(0.5)

    def test_sequential_semantics(self, g1):
        # One edge already planned from node 0.
        assert weight_oracle(g1, 0, planned=1) == pytest.approx(1 / 3)

    def test_locality(self, g2):
        # Only v's own row matters: an edge inserted from another node
        # leaves its weight unchanged.
        grown = apply_plan(g2, [EdgeInsertion(1, 3, 0.5)])
        for planned in (0, 2):
            assert weight_oracle(grown, 0, planned=planned) == \
                weight_oracle(g2, 0, planned=planned)


    def test_out_degree_is_read_from_each_graphs_own_indptr(self):
        rng = np.random.default_rng(23)
        graph, _ = random_polarized(rng)
        assert [graph.out_degree(v) for v in range(graph.n)] == np.diff(graph.indptr).tolist()
        # An edge from v: the child's degrees are its own, not the parent's.
        v = int(graph.nodes_of("R")[0])
        blue = graph.nodes_of("B")
        w = int(blue[~np.isin(blue, graph.row(v)[0])][0])
        grown = apply_plan(graph, [EdgeInsertion(v, w, weight_oracle(graph, v))])
        degrees = [grown.out_degree(u) for u in np.arange(grown.n)]  # numpy ids too
        assert degrees == np.diff(grown.indptr).tolist()
        assert grown.out_degree(v) == graph.out_degree(v) + 1
        assert weight_oracle(grown, v) == 1.0 / (graph.out_degree(v) + 2)


class TestWalkConfig:
    def test_theta_bad_defaults_to_half_t(self):
        cfg = WalkConfig(t=10)
        assert cfg.theta_bad == 5.0

    def test_threshold_order_enforced(self):
        with pytest.raises(ThresholdOrder):
            WalkConfig(t=10, theta_good=5.0, theta_bad=4.0)
        with pytest.raises(ThresholdOrder):
            WalkConfig(t=3, theta_good=2.0, theta_bad=2.0)
        with pytest.raises(ThresholdOrder):
            WalkConfig(t=10, theta_good=0.5, theta_bad=5.0)
        with pytest.raises(ThresholdOrder):
            WalkConfig(t=10, theta_bad=11.0)

    def test_accuracy_bounds(self):
        with pytest.raises(ThresholdOrder):
            WalkConfig(t=10, epsilon=0.0)
        with pytest.raises(ThresholdOrder):
            WalkConfig(t=10, delta=1.0)

    def test_epsilon_one_accepted(self):
        assert WalkConfig(t=10, epsilon=1.0).epsilon == 1.0

    @pytest.mark.parametrize("epsilon,delta", [(0.0, 0.05), (1.5, 0.05), (0.5, 1.0)])
    def test_accuracy_outside_range_rejected(self, epsilon, delta):
        with pytest.raises(ThresholdOrder):
            WalkConfig(t=10, epsilon=epsilon, delta=delta)


class TestCheckWork:
    def test_bound_is_inclusive(self):
        check_work("walks", MAX_WORK // 8, 8)
        with pytest.raises(WorkLimitExceeded, match="walks: 8 steps"):
            check_work("walks", MAX_WORK // 8 + 1, 8)

    def test_a_step_costs_at_least_step_cost(self):
        steps = MAX_WORK // STEP_COST
        for items in (0, 1, STEP_COST):
            check_work("products", items, steps)
            with pytest.raises(WorkLimitExceeded, match=f"products: {steps + 1} steps"):
                check_work("products", items, steps + 1)
        check_work("products", 1, 0)

    def test_counts_of_any_size_are_typed(self):
        # A horizon past any float and a sizing's unrounded infinite count.
        with pytest.raises(WorkLimitExceeded):
            check_work("walks", 1, 10**400)
        with pytest.raises(WorkLimitExceeded):
            check_work("walks", math.inf, 2)
        with pytest.raises(WorkLimitExceeded):
            check_work("walks", np.int64(2**40), np.int64(2))


class TestInsertionPlan:
    def test_validate_against_catches_same_color(self, g2):
        plan = InsertionPlan(edges=(EdgeInsertion(0, 1, 0.5),), color="R")
        with pytest.raises(SameColorEndpoints):
            plan.validate_against(g2)

    def test_validate_against_catches_source_of_other_color(self, g2):
        # (3, 1) joins blue to red, so its endpoints differ; only its source
        # has the wrong color for a red plan.
        plan = InsertionPlan(edges=(EdgeInsertion(3, 1, 0.5),), color="R")
        with pytest.raises(GraphValidationError) as err:
            plan.validate_against(g2)
        assert type(err.value) is GraphValidationError
        assert str(err.value) == (
            "insertion (3, 1): source 3 has color 'B', not the plan's color 'R'"
        )

    def test_validate_against_catches_existing(self, g2):
        plan = InsertionPlan(edges=(EdgeInsertion(2, 3, 0.5),), color="R")
        with pytest.raises(EdgeExists):
            plan.validate_against(g2)

    @pytest.mark.parametrize("src, dst", [(-3, 3), (-1, 3), (4, 3), (0, -1), (0, 4)])
    def test_validate_against_rejects_ids_outside_graph(self, g2, src, dst):
        # g2 has nodes 0..3; a negative id must not wrap around to node 3.
        plan = InsertionPlan(edges=(EdgeInsertion(src, dst, 0.5),), color="R")
        with pytest.raises(UnknownColor):
            plan.validate_against(g2)

    def test_validate_against_repeated_edge_is_existing(self, g2):
        edge = EdgeInsertion(0, 3, 0.5)
        plan = InsertionPlan(edges=(edge, edge), color="R")
        with pytest.raises(EdgeExists):
            plan.validate_against(g2)


@given(graph_strategy())
@settings(max_examples=40, deadline=None)
def test_rows_always_stochastic(graph):
    sums = np.add.reduceat(graph.weights, graph.indptr[:-1])
    assert np.allclose(sums, 1.0, atol=1e-9)


@given(graph_strategy(), st.data())
@settings(max_examples=40, deadline=None)
def test_insert_edge_keeps_rows_stochastic(graph, data):
    pairs = [
        (v, w)
        for v in range(graph.n)
        for w in range(graph.n)
        if graph.color_of(v) != graph.color_of(w) and not graph.has_edge(v, w)
    ]
    if not pairs:
        return
    v, w = data.draw(st.sampled_from(pairs))
    m = data.draw(st.floats(min_value=0.01, max_value=0.99))
    grown = insert_edge(graph, EdgeInsertion(v, w, m))
    sums = np.add.reduceat(grown.weights, grown.indptr[:-1])
    assert np.allclose(sums, 1.0, atol=1e-9)


@given(graph_strategy(), st.lists(st.floats(min_value=0.05, max_value=0.9), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_same_source_insertions_compound(graph, ms):
    """Sequential insertions from one source scale its original weights by
    the product of (1 - m_i)."""
    v = 0
    others = [w for w in range(graph.n) if graph.color_of(w) != graph.color_of(v)
              and not graph.has_edge(v, w)]
    if len(others) < len(ms):
        return
    original = graph.row(v)[1].copy()
    plan = [EdgeInsertion(v, w, m) for w, m in zip(others, ms)]
    grown = apply_plan(graph, plan)
    scale = np.prod([1.0 - m for m in ms])
    targets, weights = grown.row(v)
    kept = [i for i, w in enumerate(targets) if w in set(graph.row(v)[0])]
    assert np.allclose(weights[kept], original * scale, atol=1e-12)


def _random_plan(graph, rng, length):
    """Cross-color edges from a few sources (so sources repeat), each legal."""
    color = "R" if rng.random() < 0.5 else "B"
    sources = rng.choice(graph.nodes_of(color), size=3)
    others = graph.nodes_of("B" if color == "R" else "R")
    plan, seen = [], set()
    for _ in range(length):
        v = int(rng.choice(sources))
        w = int(rng.choice(others))
        if graph.has_edge(v, w) or (v, w) in seen:
            continue
        seen.add((v, w))
        plan.append(EdgeInsertion(v, w, float(rng.uniform(0.01, 0.99))))
    return plan


class TestApplyPlanOnePass:
    """One-pass ``apply_plan`` equals per-edge insertion, bits and errors."""

    def test_equals_one_by_one_insertion(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            graph, _ = random_polarized(rng, n_max=30)
            plan = _random_plan(graph, rng, int(rng.integers(1, 25)))
            got, expected = apply_plan(graph, plan), insert_one_by_one(graph, plan)
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.targets, expected.targets)
            assert np.array_equal(got.weights, expected.weights)
            checked += len(plan)
        assert checked > 200

    def test_structured_plans_equal_one_by_one_insertion(self):
        """The grown CSR arrays equal those of ``np.insert`` edge by edge,
        bit for bit and in dtype, for plans that link one source to every
        node of the other color: from the first and the last row, from
        sources with no within-color out-edge, and mixed with random plans."""
        rng = np.random.default_rng(53)
        graphs = [random_polarized(rng, n_max=30)[0] for _ in range(30)]
        # Node 0 links only across, and node 3 only to node 0.
        graphs.append(build_graph(
            ["R", "R", "R", "B", "B"],
            [(0, 3, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 1.0), (3, 0, 1.0), (4, 3, 1.0)],
        ))
        checked = cross_only = 0
        for graph in graphs:
            plans = [_random_plan(graph, rng, int(rng.integers(1, 25)))]
            across = [
                v for v in range(graph.n)
                if (graph.colors[graph.row(v)[0]] != graph.colors[v]).all()
            ]
            for v in [0, graph.n - 1, int(rng.integers(graph.n)), *across]:
                others = graph.nodes_of("B" if graph.color_of(v) == "R" else "R")
                free = rng.permutation([w for w in others.tolist() if not graph.has_edge(v, w)])
                plans.append([
                    EdgeInsertion(v, int(w), weight_oracle(graph, v, planned=i))
                    for i, w in enumerate(free)
                ])
                cross_only += v in across and free.size > 0
            taken = {(e.src, e.dst) for e in plans[-1]}
            plans.append(plans[-1] + [e for e in plans[0] if (e.src, e.dst) not in taken])
            for plan in plans:
                got, want = apply_plan(graph, plan), insert_one_by_one(graph, plan)
                for name in ("colors", "indptr", "targets", "weights"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                checked += len(plan)
        assert checked > 1000 and cross_only >= 5

    def test_empty_plan_is_identity(self, g2):
        assert apply_plan(g2, []) is g2

    @pytest.mark.parametrize("fault,error", [
        ("out-of-range", UnknownColor),
        ("same-color", SameColorEndpoints),
        ("existing", EdgeExists),
        ("repeated", EdgeExists),
        ("drift", NonStochasticRow),
    ])
    def test_first_bad_edge_raises_like_one_by_one(self, fault, error):
        rng = np.random.default_rng(len(fault))
        checked = 0
        for _ in range(10):
            graph, _ = random_polarized(rng, n_max=30)
            plan = _random_plan(graph, rng, 12)
            if len(plan) < 2:
                continue
            i = int(rng.integers(1, len(plan)))
            v, w = plan[i].src, plan[i].dst
            if fault == "out-of-range":
                bad = EdgeInsertion(v, graph.n, 0.5)
            elif fault == "same-color":
                peers = graph.nodes_of(graph.color_of(v))
                bad = EdgeInsertion(v, int(peers[peers != v][0]), 0.5)
            elif fault == "existing":
                rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
                cross = np.flatnonzero(graph.colors[rows] != graph.colors[graph.targets])
                if cross.size == 0:
                    continue
                k = int(rng.choice(cross))
                bad = EdgeInsertion(int(rows[k]), int(graph.targets[k]), 0.5)
            elif fault == "repeated":
                bad = EdgeInsertion(plan[0].src, plan[0].dst, 0.5)
            else:
                # A source whose row sums to 0.9 drifts on its first insertion.
                weights = graph.weights.copy()
                lo, hi = graph.indptr[v], graph.indptr[v + 1]
                weights[lo:hi] *= 0.9
                graph = ColoredGraph(graph.colors, graph.indptr, graph.targets, weights)
                plan = [e for e in plan if e.src != v]
                i = min(i, len(plan))
                bad = EdgeInsertion(v, w, 0.5)
            plan = plan[:i] + [bad] + plan[i:]
            with pytest.raises(error) as expected:
                insert_one_by_one(graph, plan)
            with pytest.raises(error) as got:
                apply_plan(graph, plan)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("numpy_ints", [False, True])
    def test_first_of_competing_bad_edges_raises(self, numpy_ints):
        """Several bad edges of different kinds in one plan: the first in
        plan order raises its own error, with the per-edge message."""
        # Red 0, 1, 2 and blue 3, 4, 5; node 2's row sums to 0.9.
        base = build_graph(
            ["R", "R", "R", "B", "B", "B"],
            [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.5), (2, 0, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)],
        )
        weights = base.weights.copy()
        weights[base.indptr[2] : base.indptr[3]] *= 0.9
        graph = ColoredGraph(base.colors, base.indptr, base.targets, weights)
        good = [(0, 3), (0, 4), (1, 4)]
        bad = {
            "dst-out-of-range": ((0, 6), UnknownColor),
            "negative-src": ((-1, 3), UnknownColor),
            "far-negative-dst": ((0, -100), UnknownColor),
            "same-color": ((0, 2), SameColorEndpoints),
            "same-color-and-existing": ((0, 1), SameColorEndpoints),
            "existing": ((1, 3), EdgeExists),
            "repeated": ((0, 3), EdgeExists),
            "drift": ((2, 5), NonStochasticRow),
        }
        as_id = np.int64 if numpy_ints else int
        checked = 0
        for kinds in itertools.permutations(bad, 3):
            pairs = [good[0]]
            for kind, extra in zip(kinds, good[1:] + [good[1]]):
                pairs += [bad[kind][0], extra]
            plan = [
                EdgeInsertion(as_id(v), as_id(w), 0.5 if (v, w) in good[1:] else 0.25)
                for v, w in pairs
            ]
            error = bad[kinds[0]][1]
            with pytest.raises(error) as expected:
                insert_one_by_one(graph, plan)
            with pytest.raises(error) as got:
                apply_plan(graph, plan)
            assert type(got.value) is type(expected.value) is error
            assert str(got.value) == str(expected.value)
            checked += 1
        assert checked == 336
