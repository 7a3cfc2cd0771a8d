"""Exact DP engine: hitting times, Bubble Radius, passage profiles, gains."""
import numpy as np
import pytest

from repbublik import (
    EdgeInsertion,
    brute_force_opt,
    build_graph,
    exact_bounded_hitting,
    exact_br,
    exact_first_passage,
    exact_gain,
    exact_gamma,
    exact_return_mass,
    exact_rwcc,
    exact_rwcc_many,
    generate_gadget,
    weight_oracle,
)
import repbublik.exact
from repbublik.graph import opposite
from repbublik.errors import (
    EmptySourceSet,
    EnumerationTooLarge,
    MixedColorSet,
    SourceIsTarget,
    TargetInAvoidSet,
)


class TestBoundedHitting:
    def test_single_forced_step(self, g1):
        assert exact_bounded_hitting(g1, {1}, 5)[0] == pytest.approx(1.0)

    def test_absorbed_start(self, g1):
        assert exact_bounded_hitting(g1, {1}, 5)[1] == 0.0

    def test_empty_target_set_caps_at_t(self, all_red_cycle):
        values = exact_bounded_hitting(all_red_cycle, set(), 7)
        assert values == pytest.approx([7.0, 7.0, 7.0])

    def test_monotone_in_horizon(self, g2):
        prev = exact_bounded_hitting(g2, {3}, 1)
        for t in range(2, 9):
            cur = exact_bounded_hitting(g2, {3}, t)
            assert (cur >= prev - 1e-12).all()
            prev = cur


class TestExactBr:
    def test_g1(self, g1):
        assert exact_br(g1, 5).values == pytest.approx([1.0, 1.0])

    def test_g2_hand_enumeration(self, g2):
        # a->b->c then half absorbed at step 3, half capped at 4.
        values = exact_br(g2, 4).values
        assert values == pytest.approx([3.5, 3.0, 2.5, 1.0])

    def test_gadget_values(self):
        gadget = generate_gadget(2, [[0, 1], [1]], 6)
        values = exact_br(gadget.graph, 6).values
        assert values[gadget.elements] == pytest.approx([3.0, 3.0], abs=1e-9)
        assert values[gadget.subsets] == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_monochromatic_component_capped(self, all_red_cycle):
        assert exact_br(all_red_cycle, 6).values == pytest.approx([6.0] * 3)


class TestFirstPassage:
    def test_deterministic_chain(self):
        g = build_graph(
            ["R", "R", "B"], [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]
        )
        profile = exact_first_passage(g, 0, 1, 3)
        assert profile.probs[1:].tolist() == pytest.approx([1.0, 0.0, 0.0])

    def test_source_is_target_rejected(self, g2):
        with pytest.raises(SourceIsTarget):
            exact_first_passage(g2, 0, 0, 4)

    def test_cross_color_target_rejected(self, g2):
        with pytest.raises(TargetInAvoidSet):
            exact_first_passage(g2, 0, 3, 4)

    def test_g2_two_step_path(self, g2):
        profile = exact_first_passage(g2, 0, 2, 4)
        assert profile.probs[1:].tolist() == pytest.approx([0.0, 1.0, 0.0, 0.0])

    def test_mass_bounded_by_one(self, g2):
        profile = exact_first_passage(g2, 1, 0, 8)
        assert (profile.probs >= 0).all()
        assert profile.total <= 1.0 + 1e-12


class TestReturnMass:
    def test_g1_leaves_immediately(self, g1):
        p, total = exact_return_mass(g1, 0, 5)
        assert p.tolist() == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0])
        assert total == pytest.approx(1.0)

    def test_red_two_cycle_returns_every_other_step(self, red_two_cycle):
        p, total = exact_return_mass(red_two_cycle, 0, 4)
        assert p.tolist() == pytest.approx([1.0, 0.0, 1.0, 0.0])
        assert total == pytest.approx(2.0)

    def test_g2_return_through_cycle(self, g2):
        p, total = exact_return_mass(g2, 0, 4)
        assert p.tolist() == pytest.approx([1.0, 0.0, 0.0, 0.5])
        assert total == pytest.approx(1.5)


class TestGamma:
    def test_g1(self, g1):
        assert exact_gamma(g1, 5) == pytest.approx(1.0)

    def test_red_two_cycle(self, red_two_cycle):
        assert exact_gamma(red_two_cycle, 4) == pytest.approx(2.0)

    def test_g2(self, g2):
        assert exact_gamma(g2, 4) == pytest.approx(1.5)

    def test_matches_per_node_return_mass(self, g2):
        expected = max(
            exact_return_mass(g2, v, 6)[1] for v in range(g2.n)
        )
        assert exact_gamma(g2, 6) == pytest.approx(expected, abs=1e-12)


class TestRwcc:
    def test_single_direct_edge(self):
        g = build_graph(
            ["R", "R", "B"], [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]
        )
        assert exact_rwcc(g, 1, {0}, 3) == pytest.approx(2.0)

    def test_unreachable_contributes_zero(self):
        g = build_graph(
            ["R", "R", "B"],
            [(0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)],
        )
        # 1 -> 0 -> blue: node 1 never reaches... target 1 is unreachable from 0.
        assert exact_rwcc(g, 1, {0}, 4) == 0.0

    def test_g2_hand_value(self, g2):
        assert exact_rwcc(g2, 2, {0, 1}, 4) == pytest.approx(2.5)

    def test_mixed_color_set_rejected(self, g2):
        with pytest.raises(MixedColorSet):
            exact_rwcc(g2, 2, {0, 3}, 4)

    def test_empty_set_rejected(self, g2):
        with pytest.raises(EmptySourceSet):
            exact_rwcc(g2, 2, set(), 4)

    def test_self_term_skipped_but_counted_in_denominator(self, g2):
        with_self = exact_rwcc(g2, 2, {0, 1, 2}, 4)
        without = exact_rwcc(g2, 2, {0, 1}, 4)
        assert with_self == pytest.approx(without * 2 / 3)


def _rwcc_one_target(graph, v, sources, t_prime):
    """Reference: the closeness DP for one target column at a time, as it
    ran before the block pass."""
    src = np.asarray(sorted(set(int(u) for u in sources)), dtype=np.int64)
    keep = ~graph.color_mask(opposite(graph.color_of(v)))
    keep[v] = False
    q = graph.matrix_t[v].toarray().ravel()
    acc = (t_prime - 1) * q
    for i in range(2, t_prime):
        q = graph.matrix @ (q * keep)
        acc += (t_prime - i) * q
    return float(acc[src[src != v]].sum() / src.size)


def _random_cases():
    from conftest import random_polarized

    rng = np.random.default_rng(7)
    return [random_polarized(rng, n_max=40, t_range=(3, 12)) for _ in range(24)]


class TestRwccBlock:
    """The block DP equals the one-target DP bit for bit, at any block width."""

    @pytest.mark.parametrize("width", [1, 3, None])
    def test_equals_one_target_loop(
        self, width, monkeypatch, g1, g2, all_red_cycle, red_two_cycle
    ):
        fixtures = [(g1, 5), (g2, 4), (all_red_cycle, 6), (red_two_cycle, 3)]
        checked = 0
        for graph, t in fixtures + _random_cases():
            if width is not None:
                monkeypatch.setattr(repbublik.exact, "BLOCK_ELEMENTS", graph.n * width)
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                if nodes.size == 0:
                    continue
                for sources in (nodes, nodes[::2]):
                    for t_prime in sorted({1, 2, max(t - 2, 1), t}):
                        expected = [
                            _rwcc_one_target(graph, int(v), sources, t_prime)
                            for v in nodes
                        ]
                        got = exact_rwcc_many(graph, nodes, sources, t_prime)
                        assert got.tolist() == expected
                        checked += 1
        assert checked > 200

    def test_order_and_repeats_kept(self, g2):
        got = exact_rwcc_many(g2, [2, 0, 2, 1], {0, 1, 2}, 4)
        expected = [exact_rwcc(g2, v, {0, 1, 2}, 4) for v in (2, 0, 2, 1)]
        assert got.tolist() == expected

    def test_empty_target_list(self, g2):
        assert exact_rwcc_many(g2, [], {0, 1}, 4).shape == (0,)

    def test_target_of_other_color_rejected(self, g2):
        with pytest.raises(MixedColorSet, match="v=3"):
            exact_rwcc_many(g2, [0, 3], {0, 1}, 4)

    def test_target_out_of_range_rejected(self, g2):
        with pytest.raises(ValueError):
            exact_rwcc_many(g2, [0, 4], {0, 1}, 4)


class TestReturnMassBlock:
    """Return-mass profiles and gamma keep their bits at any block width."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_equal_to_default_width(
        self, width, monkeypatch, g1, g2, all_red_cycle, red_two_cycle
    ):
        default = repbublik.exact.BLOCK_ELEMENTS

        def masses(graph, horizon):
            per_node = [exact_return_mass(graph, v, horizon) for v in range(graph.n)]
            return exact_gamma(graph, horizon), [(p.tolist(), f) for p, f in per_node]

        fixtures = [(g1, 5), (g2, 4), (all_red_cycle, 6), (red_two_cycle, 3)]
        checked = 0
        for graph, t in fixtures + _random_cases():
            for horizon in sorted({1, 2, t}):
                monkeypatch.setattr(repbublik.exact, "BLOCK_ELEMENTS", default)
                expected = masses(graph, horizon)
                monkeypatch.setattr(repbublik.exact, "BLOCK_ELEMENTS", graph.n * width)
                assert masses(graph, horizon) == expected
                checked += 1
        assert checked > 60

class TestExactGain:
    def test_empty_plan_is_identity(self, g2):
        assert exact_gain(g2, [0, 1, 2], [], 4) == 0.0

    def test_g2_regression_value(self, g2):
        edge = EdgeInsertion(0, 3, 0.5)
        assert exact_gain(g2, [0, 1, 2], [edge], 4) == pytest.approx(2 / 3)

    def test_single_insertion_sandwich(self, g2):
        edge = EdgeInsertion(0, 3, 0.5)
        gain = exact_gain(g2, [0], [edge], 4)
        br_v = exact_br(g2, 4).values[0]
        _, f_total = exact_return_mass(g2, 0, 4)
        assert (br_v - 1) * 0.5 - 1e-9 <= gain <= f_total * (br_v - 1) * 0.5 + 1e-9

    def test_empty_node_set_rejected(self, g2):
        with pytest.raises(EmptySourceSet):
            exact_gain(g2, [], [EdgeInsertion(0, 3, 0.5)], 4)


class TestBruteForceOpt:
    def test_zero_budget(self, g2):
        plan, gain = brute_force_opt(g2, "R", 0, 4)
        assert len(plan) == 0 and gain == 0.0

    def test_g2_exhaustive_cross_check(self, g2):
        # Independent oracle: enumerate the two candidate single insertions
        # (a,x) and (b,x) by hand; (c,x) already exists.
        plan, gain = brute_force_opt(g2, "R", 1, 4, theta_bad=2.0)
        parochial = [0, 1, 2]
        by_hand = {}
        for v in (0, 1):
            edge = EdgeInsertion(v, 3, weight_oracle(g2, v))
            by_hand[v] = exact_gain(g2, parochial, [edge], 4)
        assert gain == pytest.approx(max(by_hand.values()))
        assert plan.edges[0].src in by_hand
        assert by_hand[plan.edges[0].src] == pytest.approx(gain)

    def test_enumeration_cap(self, g2):
        with pytest.raises(EnumerationTooLarge):
            brute_force_opt(g2, "R", 2, 4, theta_bad=2.0, enumeration_cap=0)


class TestParochialHorizonBound:
    def test_half_horizon_bound_on_random_graphs(self):
        from conftest import random_polarized

        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(30):
            graph, t = random_polarized(rng, n_max=40, t_range=(4, 12))
            br_t = exact_br(graph, t).values
            for t_prime in range(1, t + 1):
                values = exact_br(graph, t_prime).values
                for v in np.flatnonzero(br_t >= t / 2):
                    assert t_prime / 2 - 1e-9 <= values[v] <= t_prime + 1e-9
                    checked += 1
        assert checked > 100
