"""Graph construction, edge insertion, the weight oracle, and plan types."""
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
    NonStochasticRow,
    SameColorEndpoints,
    SelfLoopEdge,
    ThresholdOrder,
    UnknownColor,
    ZeroOutDegree,
)

from conftest import graph_strategy, random_polarized


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
        plan = [EdgeInsertion(0, 1, 0.5)]  # one already planned from node 0
        assert weight_oracle(g1, 0, plan) == pytest.approx(1 / 3)

    def test_locality(self, g2):
        # Only the multiset of plan sources equal to v matters.
        a = [EdgeInsertion(0, 3, 0.5), EdgeInsertion(1, 3, 0.5)]
        b = [EdgeInsertion(0, 3, 0.2), EdgeInsertion(2, 3, 0.9)]
        assert weight_oracle(g2, 0, a) == weight_oracle(g2, 0, b)


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


class TestInsertionPlan:
    def test_eta_counts_sources(self):
        plan = InsertionPlan(
            edges=(
                EdgeInsertion(0, 3, 0.5),
                EdgeInsertion(0, 4, 0.3),
                EdgeInsertion(1, 3, 0.5),
            ),
            color="R",
        )
        assert plan.eta(0) == 3
        assert plan.eta(1) == 2
        assert plan.eta(2) == 1

    def test_validate_against_catches_same_color(self, g2):
        plan = InsertionPlan(edges=(EdgeInsertion(0, 1, 0.5),), color="R")
        with pytest.raises(SameColorEndpoints):
            plan.validate_against(g2)

    def test_validate_against_catches_existing(self, g2):
        plan = InsertionPlan(edges=(EdgeInsertion(2, 3, 0.5),), color="R")
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


def _insert_one_by_one(graph, plan):
    """Reference: per-edge insertion building one graph per edge, as
    ``apply_plan`` did before it rebuilt only the touched rows."""
    for edge in plan:
        v, w, m = edge.src, edge.dst, edge.weight
        if not (0 <= v < graph.n and 0 <= w < graph.n):
            raise UnknownColor(f"insertion ({v}, {w}) references a node outside the graph")
        if graph.color_of(v) == graph.color_of(w):
            raise SameColorEndpoints(v, w)
        if graph.has_edge(v, w):
            raise EdgeExists(v, w)
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        pos = lo + int(np.searchsorted(graph.targets[lo:hi], w))
        targets = np.insert(graph.targets, pos, w)
        weights = graph.weights.copy()
        weights[lo:hi] *= 1.0 - m
        weights = np.insert(weights, pos, m)
        indptr = graph.indptr.copy()
        indptr[v + 1 :] += 1
        new_sum = float(weights[lo : hi + 1].sum())
        if abs(new_sum - 1.0) > 1e-9:
            raise NonStochasticRow(v, new_sum, "renormalization drifted")
        graph = ColoredGraph(
            colors=graph.colors, indptr=indptr, targets=targets, weights=weights
        )
    return graph


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
            got, expected = apply_plan(graph, plan), _insert_one_by_one(graph, plan)
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.targets, expected.targets)
            assert np.array_equal(got.weights, expected.weights)
            checked += len(plan)
        assert checked > 200

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
                _insert_one_by_one(graph, plan)
            with pytest.raises(error) as got:
                apply_plan(graph, plan)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
            checked += 1
        assert checked >= 5
