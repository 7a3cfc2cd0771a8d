"""Classification, structural bias, gain dispatch, and budget splits."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repbublik import (
    BrTable,
    EdgeInsertion,
    WalkConfig,
    budget_allocation,
    build_graph,
    classify,
    exact_br,
    generate_gadget,
    structural_bias,
)
from repbublik.errors import (
    EmptySourceSet,
    ThresholdOrder,
    UnknownColor,
)

from oracles import exact_gain, gain


class TestClassify:
    def test_g1_all_cosmopolitan(self, g1):
        part = classify(exact_br(g1, 5), g1.colors, 2.0, 2.5)
        assert part.cosmopolitan.tolist() == [0, 1]
        assert part.parochial.size == 0

    def test_gadget_elements_only(self):
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        part = classify(exact_br(gadget.graph, 6), gadget.graph.colors, 2.0, 3.0)
        assert part.parochial.tolist() == gadget.elements.tolist()
        assert part.parochial_blue.size == 0

    def test_boundaries_inclusive(self):
        values = np.array([2.0, 2.5, 3.0])
        table = BrTable(values=values, t=5)
        part = classify(table, ["R", "R", "B"], 2.0, 3.0)
        assert 0 in part.cosmopolitan          # == theta_good
        assert 2 in part.parochial_blue        # == theta_bad
        assert 1 not in part.cosmopolitan and 1 not in part.parochial

    def test_threshold_order_enforced(self, g1):
        with pytest.raises(ThresholdOrder):
            classify(exact_br(g1, 5), g1.colors, 3.0, 2.0)
        with pytest.raises(ThresholdOrder):
            classify(exact_br(g1, 5), g1.colors, 2.0, 6.0)  # theta_bad > t

    def test_relabeling_invariance(self, g2):
        table = exact_br(g2, 4)
        part = classify(table, g2.colors, 1.5, 2.5)
        perm = np.array([2, 3, 1, 0])  # new id of each old node
        permuted_values = np.empty_like(table.values)
        permuted_values[perm] = table.values
        permuted_colors = np.empty_like(g2.colors)
        permuted_colors[perm] = g2.colors
        part2 = classify(
            BrTable(values=permuted_values, t=4),
            permuted_colors, 1.5, 2.5,
        )
        assert part2.parochial.tolist() == sorted(perm[part.parochial].tolist())
        assert part2.cosmopolitan.tolist() == sorted(perm[part.cosmopolitan].tolist())

    def test_arrays_follow_the_per_color_rule(self):
        rng = np.random.default_rng(61)
        from conftest import random_polarized

        for _ in range(20):
            graph, t = random_polarized(rng, n_max=30)
            table = exact_br(graph, t)
            part = classify(table, graph.colors, 1.5, t / 2)
            for arr in (part.cosmopolitan, part.parochial_red, part.parochial_blue):
                assert arr.dtype == np.int64 and not arr.flags.writeable
            for color, got in (("R", part.parochial_red), ("B", part.parochial_blue)):
                want = [
                    v for v in range(graph.n)
                    if graph.color_of(v) == color and table.values[v] >= t / 2
                ]
                assert got.tolist() == want
                assert part.parochial_of(color) is got
            assert part.parochial.tolist() == sorted(
                part.parochial_red.tolist() + part.parochial_blue.tolist()
            )
            assert part.cosmopolitan.tolist() == [
                v for v in range(graph.n) if table.values[v] <= 1.5
            ]


class TestStructuralBias:
    def test_no_parochial_is_zero(self, g1):
        table = exact_br(g1, 5)
        part = classify(table, g1.colors, 2.0, 2.5)
        assert structural_bias(table, part) == 0.0

    def test_gadget_sum(self):
        gadget = generate_gadget(2, [[0, 1], [1]], 6)
        table = exact_br(gadget.graph, 6)
        part = classify(table, gadget.graph.colors, 2.0, 3.0)
        assert structural_bias(table, part) == pytest.approx(6.0)

    def test_single_node_value(self):
        table = BrTable(values=np.array([4.25, 1.0]), t=5)
        part = classify(table, ["R", "B"], 2.0, 4.0)
        assert structural_bias(table, part) == pytest.approx(4.25)

    def test_lower_bound_by_threshold(self, g2):
        table = exact_br(g2, 4)
        theta_bad = 2.5
        part = classify(table, g2.colors, 1.5, theta_bad)
        assert structural_bias(table, part) >= theta_bad * len(part.parochial)

    def test_unknown_color_rejected(self):
        table = BrTable(values=np.array([4.0, 4.0, 1.0]), t=5)
        part = classify(table, ["R", "B", "B"], 2.0, 4.0)
        assert structural_bias(table, part, "B") == 4.0
        with pytest.raises(UnknownColor):
            part.parochial_of("X")
        with pytest.raises(UnknownColor):
            structural_bias(table, part, "X")

    def test_per_color_split(self, g2):
        table = exact_br(g2, 4)
        part = classify(table, g2.colors, 1.5, 2.5)
        combined = structural_bias(table, part)
        assert combined == pytest.approx(
            structural_bias(table, part, "R") + structural_bias(table, part, "B")
        )


class TestGainDispatch:
    def test_empty_plan_zero(self, g2):
        assert gain(g2, [0, 1, 2], [], 4) == 0.0

    def test_exact_matches_engine(self, g2):
        edge = EdgeInsertion(0, 3, 0.5)
        assert gain(g2, [0, 1, 2], [edge], 4) == pytest.approx(
            exact_gain(g2, [0, 1, 2], [edge], 4)
        )

    def test_monotone_under_plan_extension(self):
        rng = np.random.default_rng(7)
        from conftest import random_polarized

        checked = 0
        while checked < 20:
            graph, t = random_polarized(rng, n_max=24, t_range=(4, 8))
            reds = [int(v) for v in graph.nodes_of("R")]
            blues = [int(v) for v in graph.nodes_of("B")]
            pairs = [
                (v, w) for v in reds for w in blues if not graph.has_edge(v, w)
            ]
            if len(pairs) < 2:
                continue
            idx = rng.choice(len(pairs), size=2, replace=False)
            (v1, w1), (v2, w2) = pairs[idx[0]], pairs[idx[1]]
            if v1 == v2:
                continue
            e1 = EdgeInsertion(v1, w1, float(rng.uniform(0.1, 0.9)))
            e2 = EdgeInsertion(v2, w2, float(rng.uniform(0.1, 0.9)))
            one = gain(graph, reds, [e1], t)
            both = gain(graph, reds, [e1, e2], t)
            assert both >= one - 1e-9
            assert one >= -1e-9
            checked += 1

    def test_mc_backend_paired_seeds(self, g2):
        cfg = WalkConfig(t=4, theta_good=1.5, theta_bad=2.0, epsilon=0.2,
                         delta=0.05, seed=31)
        edge = EdgeInsertion(0, 3, 0.5)
        est = gain(g2, [0, 1, 2], [edge], 4, backend="mc", cfg=cfg)
        assert est == pytest.approx(2 / 3, abs=0.25)
        again = gain(g2, [0, 1, 2], [edge], 4, backend="mc", cfg=cfg)
        assert est == again

    def test_empty_nodes_rejected(self, g2):
        with pytest.raises(EmptySourceSet):
            gain(g2, [], [EdgeInsertion(0, 3, 0.5)], 4)


# Bias sums: zero, tiny (subnormal included), ordinary and large.
_BIAS_SUMS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-300),
    st.floats(0.0, 1e4),
    st.floats(1e4, 1e300),
)


class TestBudgetAllocation:
    def test_proportional_ceiling(self):
        assert budget_allocation(10.0, 30.0, 10) == (2, 8)

    def test_one_sided(self):
        assert budget_allocation(5.0, 0.0, 5) == (5, 0)
        assert budget_allocation(0.0, 5.0, 5) == (0, 5)
        # 27 * y / y rounds above 27, so the ceiling alone gives (-1, 28).
        assert budget_allocation(0.0, 672.6868563178937, 27) == (0, 27)

    def test_zero_budget(self):
        assert budget_allocation(3.0, 4.0, 0) == (0, 0)

    def test_both_unbiased_raises(self):
        # The name is historical: this split once raised BothColorsUnbiased.
        # Neither color is biased now means an even split, blue taking the ceiling.
        assert budget_allocation(0.0, 0.0, 1) == (0, 1)
        assert budget_allocation(0.0, 0.0, 3) == (1, 2)
        assert budget_allocation(0.0, 0.0, 4) == (2, 2)

    def test_even_split_fallback(self):
        for k in range(50):
            assert budget_allocation(0.0, 0.0, k) == (k // 2, k - k // 2)

    def test_parts_always_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y_r, y_b = rng.uniform(0, 50, size=2)
            k = int(rng.integers(0, 40))
            k_r, k_b = budget_allocation(float(y_r), float(y_b), k)
            assert k_r + k_b == k
            assert k_r >= 0 and k_b >= 0

    @given(y_red=_BIAS_SUMS, y_blue=_BIAS_SUMS, k=st.integers(0, 1000))
    @example(y_red=0.0, y_blue=672.6868563178937, k=26)
    @settings(max_examples=500, deadline=None)
    def test_parts_in_range_and_nondecreasing_in_k(self, y_red, y_blue, k):
        k_r, k_b = budget_allocation(y_red, y_blue, k)
        assert 0 <= k_r and 0 <= k_b and k_r + k_b == k
        next_r, next_b = budget_allocation(y_red, y_blue, k + 1)
        assert next_r >= k_r and next_b >= k_b
