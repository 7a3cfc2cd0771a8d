"""Exact DP engine: hitting times, Bubble Radius, passage profiles, gains."""
import numpy as np
import pytest

from repbublik import (
    EdgeInsertion,
    build_graph,
    exact_br,
    exact_gamma,
    exact_rwcc,
    exact_rwcc_many,
    generate_gadget,
    generate_polarized,
    weight_oracle,
)
import repbublik.exact
from repbublik.exact import parochial_nodes
from repbublik.graph import opposite
from repbublik.errors import EmptySourceSet, MixedColorSet, WorkLimitExceeded
from repbublik.graph import MAX_WORK, STEP_COST

from oracles import (
    EnumerationTooLarge,
    SourceIsTarget,
    TargetInAvoidSet,
    brute_force_opt,
    exact_bounded_hitting,
    exact_first_passage,
    exact_gain,
    exact_return_mass,
    transition_matrix,
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

    def test_equals_two_absorbing_passes(self, g1, g2, all_red_cycle, red_two_cycle):
        """The one-column pass over W has the bits of one
        exact_bounded_hitting pass per color, also on one-color graphs, where
        it caps at t, and on a graph with empty rows in W."""
        monochrome = _monochrome()
        fixtures = [(g1, 5), (g2, 4), (all_red_cycle, 6), (red_two_cycle, 3)]
        fixtures += [(graph, 9) for graph in monochrome + [_cross_only()]]
        checked = 0
        for graph, t in fixtures + _random_cases():
            for horizon in sorted({1, 2, t}):
                expected = _br_two_passes(graph, horizon)
                assert exact_br(graph, horizon).values.tolist() == expected.tolist()
                checked += 1
        for graph in monochrome:
            assert exact_br(graph, 9).values == pytest.approx([9.0] * graph.n, abs=1e-12)
        assert checked > 60


class TestHorizonBound:
    def test_products_beyond_the_work_bound_are_typed(self, g2):
        # g2 has 4 nodes and 5 edges, fewer than a step's least charge, so
        # its horizon may reach MAX_WORK / STEP_COST.
        repbublik.exact._check_horizon(g2, MAX_WORK // STEP_COST)
        with pytest.raises(WorkLimitExceeded, match="exact products over W"):
            repbublik.exact._check_horizon(g2, MAX_WORK // STEP_COST + 1)
        with pytest.raises(WorkLimitExceeded):
            repbublik.exact._check_horizon(g2, 99999999999999999999)

    def test_renewal_beyond_the_work_bound_is_typed(self, g2, monkeypatch):
        # Two red targets: the renewal's t'(t' - 1)/2 vector operations are
        # charged STEP_COST each, so t' = 23170 passes and 23171 does not,
        # before any product over the block.
        def no_products(*args):
            raise AssertionError("a product ran before the renewal check")

        monkeypatch.setattr(repbublik.exact, "_rwcc_block", no_products)
        with pytest.raises(AssertionError, match="a product ran"):
            exact_rwcc_many(g2, [0, 1], [0, 1, 2], 23170)
        with pytest.raises(WorkLimitExceeded, match="exact renewal operations"):
            exact_rwcc_many(g2, [0, 1], [0, 1, 2], 23171)


class TestColorBlock:
    def test_slice_of_transition_matrix(self, all_red_cycle, red_two_cycle):
        """Each color's block, sliced out of W, holds the CSR arrays of
        M[C][:, C]^T."""
        graphs = [graph for graph, _ in _random_cases()]
        graphs += _monochrome() + [all_red_cycle, red_two_cycle, _cross_only()]
        checked = 0
        for graph in graphs:
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                if nodes.size == 0:
                    continue
                got = repbublik.exact._color_block(graph, color).matrix_t
                want = transition_matrix(graph)[nodes][:, nodes].T.tocsr()
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.data, want.data)
                checked += 1
        assert checked > 50


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
    """Reference: the backward first-passage DP for one target: q_i(w) is
    the probability that a walk from w first hits v at step i."""
    src = np.asarray(sorted(set(int(u) for u in sources)), dtype=np.int64)
    keep = ~graph.color_mask(opposite(graph.color_of(v)))
    keep[v] = False
    matrix = transition_matrix(graph)
    q = matrix.T.tocsr()[v].toarray().ravel()
    acc = (t_prime - 1) * q
    for i in range(2, t_prime):
        q = matrix @ (q * keep)
        acc += (t_prime - i) * q
    return float(acc[src[src != v]].sum() / src.size)


def _br_two_passes(graph, t):
    """Reference: exact_br as one absorbing pass per color."""
    values = np.empty(graph.n)
    for color in ("R", "B"):
        sources = graph.color_mask(color)
        if sources.any():
            hit = exact_bounded_hitting(graph, graph.nodes_of(opposite(color)), t)
            values[sources] = hit[sources]
    return values


def _rwcc_full_matrix(graph, nodes, sources, t_prime):
    """Reference: the backward first-passage DP for a block of targets on
    all n rows of M, zeroing the opposite color's rows before every
    product."""
    targets = np.asarray(nodes, dtype=np.int64)
    uniq = np.unique(targets)
    src = np.unique(np.asarray(sources, dtype=np.int64))
    keep = ~graph.color_mask(opposite(graph.color_of(int(uniq[0]))))
    pos = np.searchsorted(src, uniq)
    in_src = src[np.minimum(pos, src.size - 1)] == uniq
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    cols = np.arange(uniq.size)
    column_of = np.full(graph.n, -1)
    column_of[uniq] = cols
    into = column_of[graph.targets]
    hit = into >= 0
    q = np.zeros((graph.n, uniq.size))
    q[rows[hit], into[hit]] = graph.weights[hit]
    acc = (t_prime - 1) * q
    matrix = transition_matrix(graph)
    for i in range(2, t_prime):
        q *= keep[:, None]
        q[uniq, cols] = 0.0
        q = matrix @ q
        acc += (t_prime - i) * q
    values = np.empty(uniq.size)
    for member in (False, True):
        sel = np.flatnonzero(in_src == member)
        if sel.size == 0:
            continue
        idx = np.broadcast_to(np.arange(src.size - member), (sel.size, src.size - member))
        if member:
            idx = idx + (idx >= pos[sel][:, None])
        values[sel] = acc[src[idx], sel[:, None]].sum(axis=1) / src.size
    return values[np.searchsorted(uniq, targets)]


def _return_profiles_full_matrix(graph, nodes, t_prime):
    """Reference: return-mass profiles stepped on all n rows of M^T, zeroing
    the opposite color's rows after every product."""
    avoid = graph.color_mask(opposite(graph.color_of(int(nodes[0]))))
    profiles = np.zeros((nodes.size, t_prime))
    profiles[:, 0] = 1.0
    cols = np.arange(nodes.size)
    block = np.zeros((graph.n, nodes.size))
    block[nodes, cols] = 1.0
    matrix_t = transition_matrix(graph).T.tocsr()
    for step in range(1, t_prime):
        block = matrix_t @ block
        block[avoid, :] = 0.0
        profiles[cols, step] = block[nodes, cols]
    return profiles


def _monochrome():
    """One-color graphs: a blue 3-cycle and complete red and blue 4-graphs."""
    third = 1.0 / 3.0
    triangle = [(v, w, third) for v in range(4) for w in range(4) if v != w]
    return [
        build_graph(["B", "B", "B"], [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]),
        build_graph(["R"] * 4, triangle),
        build_graph(["B"] * 4, triangle),
    ]


def _cross_only():
    """Red node 1 and blue node 3 link only across colors, so their rows of
    W are empty."""
    return build_graph(
        ["R", "R", "B", "B"],
        [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 1.0), (2, 3, 0.5), (2, 0, 0.5), (3, 0, 1.0)],
    )


def _random_cases():
    from conftest import random_polarized

    rng = np.random.default_rng(7)
    return [random_polarized(rng, n_max=40, t_range=(3, 12)) for _ in range(24)]


def _rwcc_row_by_row(graph, nodes, sources, t_prime):
    """``exact_rwcc_many`` with the renewal solved one row at a time: F_i =
    o'_i - sum_{k=1}^{i-1} F_k r(i - k), subtracted in k order, the loop the
    engine's solve replaced."""
    exact = repbublik.exact
    targets, uniq, src = exact._centrality_request(graph, nodes, sources)
    values = np.zeros(uniq.size)
    if uniq.size == 0:
        return values
    color = exact._color_block(graph, graph.color_of(int(uniq[0])))
    local = color.local(uniq)
    returns = exact._return_profiles(graph, uniq, t_prime).T
    in_src = np.isin(uniq, src, assume_unique=True)
    occupancy = np.zeros(color.nodes.size)
    occupancy[color.local(src)] = 1.0
    passages = np.zeros((t_prime, uniq.size))
    for i in range(1, t_prime):
        occupancy = color.matrix_t @ occupancy
        f = occupancy[local] - np.where(in_src, returns[i], 0.0)
        for k in range(1, i):
            f -= passages[k] * returns[i - k]
        passages[i] = f
        values += (t_prime - i) * f
    values /= src.size
    return values[np.searchsorted(uniq, targets)]


def _assert_close(got, oracle):
    """``got`` lies within 1e-12 of ``oracle``, scaled by its largest value
    (at least 1)."""
    oracle = np.asarray(oracle, dtype=float)
    scale = max(1.0, float(np.abs(oracle).max(initial=0.0)))
    assert float(np.abs(np.asarray(got) - oracle).max(initial=0.0)) <= 1e-12 * scale


class TestRwccBlock:
    """Closeness by renewal over the return profiles agrees with the
    one-target and full-matrix first-passage DPs within 1e-12 of the
    largest value, and keeps its bits at any block width and in any batch
    of targets."""

    @pytest.mark.parametrize("width", [1, 3, None])
    def test_equals_one_target_loop(
        self, width, monkeypatch, g1, g2, all_red_cycle, red_two_cycle
    ):
        fixtures = [(g1, 5), (g2, 4), (all_red_cycle, 6), (red_two_cycle, 3)]
        checked = 0
        for graph, t in fixtures + _random_cases():
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                if nodes.size == 0:
                    continue
                if width is not None:
                    # Blocks are |C| x width, so this runs exactly ``width``
                    # targets per block.
                    monkeypatch.setattr(repbublik.exact, "BLOCK_ELEMENTS", nodes.size * width)
                for sources in (nodes, nodes[::2]):
                    for t_prime in sorted({1, 2, max(t - 2, 1), t}):
                        expected = [
                            _rwcc_one_target(graph, int(v), sources, t_prime)
                            for v in nodes
                        ]
                        got = exact_rwcc_many(graph, nodes, sources, t_prime)
                        _assert_close(got, expected)
                        _assert_close(got, _rwcc_full_matrix(graph, nodes, sources, t_prime))
                        assert (got >= 0.0).all()
                        checked += 1
        assert checked > 200

    def test_equals_full_matrix_on_shuffled_pools(self, monkeypatch):
        """Target lists in any order and with repeats, source pools that
        leave targets out: within 1e-12 of the full-matrix block DP."""
        rng = np.random.default_rng(19)
        checked = 0
        for graph, t in _random_cases():
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                monkeypatch.setattr(repbublik.exact, "BLOCK_ELEMENTS", nodes.size * 2)
                targets = rng.choice(nodes, size=nodes.size + 3)
                sources = rng.choice(nodes, size=max(1, nodes.size // 3), replace=False)
                got = exact_rwcc_many(graph, targets.tolist(), sources.tolist(), t)
                _assert_close(got, _rwcc_full_matrix(graph, targets, sources, t))
                checked += 1
        assert checked == 48

    def test_equals_full_matrix_on_2k_graph(self):
        graph = generate_polarized(1000, 1000, 0.004, 0.0008, seed=5)
        t = 10
        br = exact_br(graph, t)
        for color in ("R", "B"):
            nodes = graph.nodes_of(color)
            pool = parochial_nodes(graph.colors, br, color, t / 2)
            assert pool.size > 100
            got = exact_rwcc_many(graph, nodes, pool, t)
            _assert_close(got, _rwcc_full_matrix(graph, nodes, pool, t))
            assert (got >= 0.0).all()

    def test_renewal_equals_the_row_by_row_solve(self):
        """The solve that takes each F_k from every later row at once keeps
        the bits of the one-row-at-a-time solve, on pools, reversed and
        strided requests and half pools of sources."""
        desk = [(generate_polarized(200, 200, 0.02, 0.002, seed=s), 14) for s in (0, 1)]
        checked = 0
        for graph, t in _random_cases() + desk:
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                for targets, sources in ((nodes, nodes), (nodes[::-1], nodes),
                                         (nodes[::3], nodes[::2])):
                    for t_prime in sorted({1, 2, 5, t}):
                        got = exact_rwcc_many(graph, targets, sources, t_prime)
                        want = _rwcc_row_by_row(graph, targets, sources, t_prime)
                        assert np.array_equal(got, want)
                        checked += 1
        assert checked > 500

    @pytest.mark.parametrize("width", [1, 3])
    def test_equal_to_default_width(self, width, monkeypatch, g2, all_red_cycle):
        fixtures = [(g2, 4), (all_red_cycle, 6)]
        checked = 0
        for graph, t in fixtures + _random_cases():
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                if nodes.size == 0:
                    continue
                for sources in (nodes, nodes[::2]):
                    graph.memo.clear()
                    expected = exact_rwcc_many(graph, nodes, sources, t).tolist()
                    graph.memo.clear()
                    monkeypatch.setattr(repbublik.exact, "BLOCK_ELEMENTS", nodes.size * width)
                    got = exact_rwcc_many(graph, nodes, sources, t)
                    monkeypatch.undo()
                    assert got.tolist() == expected
                    checked += 1
        assert checked > 80

    def test_order_and_repeats_kept(self, g2):
        """Each target requested alone has the bits of its entry in a pool
        given in any order and with repeats."""
        got = exact_rwcc_many(g2, [2, 0, 2, 1], {0, 1, 2}, 4)
        expected = [exact_rwcc(g2, v, {0, 1, 2}, 4) for v in (2, 0, 2, 1)]
        assert got.tolist() == expected
        rng = np.random.default_rng(23)
        for graph, t in _random_cases():
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                targets = rng.choice(nodes, size=nodes.size + 3).tolist()
                for sources in (nodes, nodes[::2]):
                    got = exact_rwcc_many(graph, targets, sources, t)
                    alone = [exact_rwcc(graph, v, sources, t) for v in targets]
                    assert got.tolist() == alone

    def test_unreached_target_is_exactly_zero(self):
        """Target 3 returns to itself through 4, but the other sources 0 and
        5 reach it first at steps 3 and 4: up to t' = 3 its closeness is an
        exact 0.0 although its own walk is dropped from the occupancy."""
        g = build_graph(
            ["R", "R", "R", "R", "R", "R", "B"],
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 0.5), (3, 6, 0.5),
             (4, 3, 1.0), (5, 0, 1.0), (6, 5, 1.0)],
        )
        sources = (0, 3, 5)
        for t_prime in (1, 2, 3):
            got = exact_rwcc_many(g, range(6), sources, t_prime)
            assert got[3] == 0.0
            assert (got >= 0.0).all()
        assert exact_rwcc(g, 3, sources, 4) == pytest.approx(1 / 3, abs=1e-15)
        assert exact_rwcc(g, 3, sources, 5) == pytest.approx((2 + 1) / 3, abs=1e-15)

    def test_empty_target_list(self, g2):
        assert exact_rwcc_many(g2, [], {0, 1}, 4).shape == (0,)

    def test_target_of_other_color_rejected(self, g2):
        with pytest.raises(MixedColorSet, match="v=3"):
            exact_rwcc_many(g2, [0, 3], {0, 1}, 4)

    def test_target_out_of_range_rejected(self, g2):
        with pytest.raises(ValueError):
            exact_rwcc_many(g2, [0, 4], {0, 1}, 4)

    def test_sources_of_both_colors_rejected_for_a_blue_target(self, g2):
        # The sources' colors sort to ("B", "R"), so the blue target matches
        # the first; only the count of source colors rejects the request.
        with pytest.raises(MixedColorSet, match="v=3"):
            exact_rwcc_many(g2, [3], {0, 3}, 4)

    def test_sorted_array_with_duplicates_is_deduplicated(self, g2):
        nodes = np.array([0, 1, 1, 2], dtype=np.int64)
        got = repbublik.exact._node_set(g2, nodes)
        assert got.tolist() == [0, 1, 2]


class TestReturnMassBlock:
    """Return-mass profiles and gamma keep their bits at any block width and
    equal the full-matrix pass."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_equal_to_default_width(
        self, width, monkeypatch, g1, g2, all_red_cycle, red_two_cycle
    ):
        default = repbublik.exact.BLOCK_ELEMENTS

        def masses(graph, horizon, block_elements):
            out = []
            for color in ("R", "B"):
                nodes = graph.nodes_of(color)
                if nodes.size == 0:
                    continue
                monkeypatch.setattr(repbublik.exact, "BLOCK_ELEMENTS", block_elements(nodes))
                profiles = repbublik.exact._return_profiles(graph, nodes, horizon)
                per_node = [exact_return_mass(graph, v, horizon) for v in nodes]
                out.append((
                    profiles.tolist(),
                    exact_gamma(graph, horizon),
                    [(p.tolist(), f) for p, f in per_node],
                ))
            return out

        fixtures = [(g1, 5), (g2, 4), (all_red_cycle, 6), (red_two_cycle, 3)]
        checked = 0
        for graph, t in fixtures + _random_cases():
            for horizon in sorted({1, 2, t}):
                expected = masses(graph, horizon, lambda nodes: default)
                # Blocks are |C| x width, so this runs exactly ``width``
                # columns per block.
                got = masses(graph, horizon, lambda nodes: nodes.size * width)
                assert got == expected
                colors = [graph.nodes_of(c) for c in ("R", "B") if graph.nodes_of(c).size]
                full = [_return_profiles_full_matrix(graph, nodes, horizon) for nodes in colors]
                assert [profiles for profiles, _, _ in got] == [f.tolist() for f in full]
                gamma = max(1.0, *(float(f.sum(axis=1).max()) for f in full))
                assert all(g == gamma for _, g, _ in got)
                checked += 1
        assert checked > 60

def _fixed_length_br(graph, t):
    """``exact_br(graph, t).values`` with all t - 1 products over W taken."""
    within = repbublik.exact._within(graph)
    survival = np.ones(graph.n)
    expected = survival.copy()
    for _ in range(t - 1):
        survival = within @ survival
        expected += survival
    return expected


def _fixed_length_profiles(graph, nodes, t_prime):
    """``_return_profiles`` in one block with all t' - 1 products taken."""
    color = repbublik.exact._color_block(graph, graph.color_of(int(nodes[0])))
    local, cols = color.local(nodes), np.arange(nodes.size)
    profiles = np.zeros((nodes.size, t_prime))
    profiles[:, 0] = 1.0
    block = np.zeros((color.nodes.size, nodes.size))
    block[local, cols] = 1.0
    for step in range(1, t_prime):
        block = color.matrix_t @ block
        profiles[cols, step] = block[local, cols]
    return profiles


def _fixed_length_rwcc(graph, nodes, t_prime):
    """``exact_rwcc_many(graph, nodes, nodes, t_prime)`` with every product of
    its occupancy and profile passes taken."""
    color = repbublik.exact._color_block(graph, graph.color_of(int(nodes[0])))
    local = color.local(nodes)
    returns = _fixed_length_profiles(graph, nodes, t_prime).T
    occupancy = np.zeros(color.nodes.size)
    occupancy[local] = 1.0
    passages = np.zeros((t_prime, nodes.size))
    for i in range(1, t_prime):
        occupancy = color.matrix_t @ occupancy
        passages[i] = occupancy[local] - returns[i]
    values = np.zeros(nodes.size)
    for k in range(1, t_prime):
        passages[k + 1 :] -= passages[k] * returns[1 : t_prime - k]
        values += (t_prime - k) * passages[k]
    return values / nodes.size


def _dying_graph(rng, n):
    """Every node sends at least half its weight across the colors, so every
    walk's survival falls below 2**-k and reaches +0.0 within 1,100 steps."""
    colors = ["R"] * (n // 2) + ["B"] * (n - n // 2)
    edges = []
    for v in range(n):
        same = [w for w in range(n) if w != v and colors[w] == colors[v]]
        other = [w for w in range(n) if colors[w] != colors[v]]
        cross = float(rng.uniform(0.5, 1.0)) if same else 1.0
        edges.append((v, other[int(rng.integers(len(other)))], cross))
        if same:
            edges.append((v, same[int(rng.integers(len(same)))], 1.0 - cross))
    return build_graph(colors, edges)


class TestEarlyExit:
    """The passes that stop once every walk has died keep the bits of the
    loops that take every product."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(131)
        dying = [_dying_graph(rng, int(rng.integers(4, 12))) for _ in range(6)]
        # Monochrome graphs and the all-red cycle never let a walk leave.
        trapped = _monochrome() + [
            build_graph(["R", "R", "R"], [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]),
            _cross_only(),
        ]
        randoms = [graph for graph, _ in _random_cases()[:4]]
        return dying + trapped + randoms

    def test_equal_to_fixed_length_loops(self):
        cases = self._cases()
        for graph in cases[:6]:  # the early exits run on these
            assert not np.linalg.matrix_power(
                repbublik.exact._within(graph).toarray(), 1100
            ).any()
        checked = 0
        for graph in cases:
            for t in (1, 2, 7, 1200):
                assert np.array_equal(exact_br(graph, t).values, _fixed_length_br(graph, t))
                for color in ("R", "B"):
                    nodes = graph.nodes_of(color)
                    if nodes.size == 0:
                        continue
                    profiles = repbublik.exact._return_profiles(graph, nodes, t)
                    assert np.array_equal(profiles, _fixed_length_profiles(graph, nodes, t))
                    got = exact_rwcc_many(graph, nodes, nodes, t)
                    assert np.array_equal(got, _fixed_length_rwcc(graph, nodes, t))
                    checked += 1
        assert checked > 80

    def test_br_at_a_huge_horizon_stops_when_the_walks_die(self, monkeypatch):
        # Survival on this graph is all +0.0 after about 2,150 products.
        graph = build_graph(
            ["R", "R", "B"], [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0), (2, 0, 1.0)]
        )
        products = []
        within = repbublik.exact._within(graph)
        monkeypatch.setitem(graph.memo, "within", _Counting(within, products))
        got = exact_br(graph, 10**8).values
        assert 2000 < len(products) < 2300
        assert np.array_equal(got, _fixed_length_br(graph, 3000))


class _Counting:
    """A matrix whose products are tallied in ``products``."""

    def __init__(self, matrix, products):
        self.matrix, self.products = matrix, products

    def __matmul__(self, other):
        self.products.append(1)
        return self.matrix @ other


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
