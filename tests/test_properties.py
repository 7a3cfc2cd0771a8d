"""Cross-module invariants on randomized instances."""
from dataclasses import replace

import numpy as np
import pytest

import repbublik.montecarlo as mc
import repbublik.recommend as rec
from repbublik import (
    ALGORITHMS,
    EdgeInsertion,
    WalkConfig,
    apply_plan,
    baseline_rcn,
    baseline_rwcn,
    br_sample_size,
    budget_allocation,
    build_graph,
    estimate_br,
    estimate_rwcc,
    estimate_rwcc_many,
    exact_br,
    exact_gamma,
    exact_rwcc,
    exact_rwcc_many,
    generate_gadget,
    generate_polarized,
    opposite,
    repbublik,
    run_sweep,
    rwcc_sample_size,
    weight_oracle,
    write_dataset,
)
from repbublik.cli import build_parser
from repbublik.errors import IdOutOfRange, ThresholdOrder
from repbublik.montecarlo import _WalkSampler, derive_seed, stream

import oracles
from conftest import random_polarized
from oracles import (
    _walk,
    br_by_walks,
    brute_force_opt,
    exact_bounded_hitting,
    exact_first_passage,
    exact_gain,
    exact_return_mass,
    gain,
    rwcc_by_walks,
    simulate_restart_session,
)


def test_bounded_hitting_monotone_in_horizon_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(15):
        graph, t = random_polarized(rng, n_max=30)
        absorbing = set(int(v) for v in graph.nodes_of("B"))
        prev = exact_bounded_hitting(graph, absorbing, 1)
        for horizon in range(2, t + 1):
            cur = exact_bounded_hitting(graph, absorbing, horizon)
            assert (cur >= prev - 1e-12).all()
            prev = cur


def test_gain_nonnegative_for_legal_plans():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 25:
        graph, t = random_polarized(rng, n_max=24)
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, seed=int(rng.integers(2**32)))
        plan = repbublik(graph, "B", 2, cfg)
        if not plan:
            continue
        nodes = [int(v) for v in graph.nodes_of("B")]
        assert exact_gain(graph, nodes, plan.edges, t) >= -1e-9
        checked += 1


def test_central_baselines_return_legal_plans():
    rng = np.random.default_rng(23)
    produced = 0
    while produced < 12:
        graph, t = random_polarized(rng, n_max=24)
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, seed=3)
        for fn in (baseline_rcn, baseline_rwcn):
            plan = fn(graph, "R", 3, replace(cfg, seed=int(rng.integers(2**32))))
            plan.validate_against(graph)
            if plan:
                produced += 1


def test_targets_never_move_an_exact_br():
    """Two legal plans with the same sources and weights in the same order
    but other targets grow graphs with bit-identical exact Bubble Radii: a
    new edge leaves its source's color, and a walk ends at its first node
    of the other color, whichever node that is.  (Monte Carlo estimates do
    move, since a target's place in its row sets which uniform picks it.)"""
    rng = np.random.default_rng(29)
    differing = 0
    for i in range(12):
        graph, t = random_polarized(rng, n_max=20)
        br = exact_br(graph, t)
        for color in ("R", "B"):
            nodes = graph.nodes_of(color)
            lowest = rec._Plan(graph, color, 0)
            lowest.rank(br)
            # The draws read ahead, so they get a stream of their own.
            draws = rec._Draws(stream(29, i, color == "R").bit_generator)
            uniform = rec._Plan(graph, color, 0, draws)
            for v in rng.choice(nodes, size=3 * nodes.size).tolist():
                assert lowest.add(v) == uniform.add(v)
            assert [(e.src, e.weight) for e in lowest.edges] == [
                (e.src, e.weight) for e in uniform.edges
            ]
            differing += lowest.edges != uniform.edges
            a = exact_br(apply_plan(graph, lowest.edges), t).values
            b = exact_br(apply_plan(graph, uniform.edges), t).values
            assert np.array_equal(a, b)
    assert differing > 20  # the plans compared are not all the same


def test_sampled_hit_times_within_horizon():
    rng = np.random.default_rng(31)
    graph, t = random_polarized(rng, n_max=20)
    sampler = _WalkSampler(graph)
    reds = graph.nodes_of("R")
    if reds.size < 2:
        pytest.skip("instance lacks two red nodes")
    stop = graph.color_mask("B").copy()
    stop[reds[1]] = True
    uniforms = stream(3, 1, 2).random((200, t))
    steps, ends = _walk(sampler, int(reds[0]), stop, uniforms)
    times = np.where(ends == reds[1], steps, t)
    assert times.min() >= 1 and times.max() <= t


def _exit_cycle():
    """A red 3-cycle 0 -> 1 -> 2 -> 0 whose node 2 also leaves for a blue
    2-cycle that no walk leaves.  A red walk returns to its own start every
    third step while it lives.  At t' = 10 a blue walk takes 9 steps, past
    2 min(t' - 1, |C|) = 4, so a group's held visits are reduced to first
    visits before its walks end."""
    return build_graph(
        ["R", "R", "R", "B", "B"],
        [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5), (2, 3, 0.5), (3, 4, 1.0), (4, 3, 1.0)],
    )


@pytest.mark.parametrize("small_groups", [True, False])
def test_walk_loop_equals_per_walk_oracle(small_groups, monkeypatch):
    """Both estimators equal the per-walk walker's reduction bit for bit,
    with groups of three walks (each node's walks straddling groups) and
    with groups of the stream layout."""
    if small_groups:
        monkeypatch.setattr(mc, "_WALK_GROUP", 3)
        monkeypatch.setattr(oracles, "_WALK_GROUP", 3)
    rng = np.random.default_rng(41)
    # Fresh graphs: estimate_br keeps its tables in graph.memo.
    graphs = [random_polarized(rng, n_max=16)[0] for _ in range(3)] + [_exit_cycle()]
    for graph in graphs:
        for t in (1, 2, 3, 10):
            seed = int(rng.integers(2**32))
            r = br_sample_size(graph.n, t, 1.0, 0.9)
            draws = rwcc_sample_size(graph.n, t, 1.0, 0.9)
            table = estimate_br(graph, t, 1.0, 0.9, seed=seed)
            assert np.array_equal(table.values, br_by_walks(graph, t, r, seed)[0])
            for color in ("R", "B"):
                pool = graph.nodes_of(color)
                got = estimate_rwcc_many(graph, pool, pool, t, 1.0, 0.9, seed=seed)
                want, _ = rwcc_by_walks(graph, pool, pool, t, seed, draws)
                assert got.tolist() == want.tolist()


def test_estimated_br_within_declared_range():
    rng = np.random.default_rng(37)
    for _ in range(5):
        graph, t = random_polarized(rng, n_max=20)
        table = estimate_br(graph, t, 0.9, 0.5, seed=int(rng.integers(2**32)))
        assert (table.values >= 1.0).all() and (table.values <= t).all()


def _random_legal_plan(rng, graph, color, k):
    """Up to k distinct new edges from ``color`` nodes to the other color."""
    sources = graph.nodes_of(color)
    others = graph.nodes_of(opposite(color))
    edges = []
    for _ in range(k):
        v = int(sources[rng.integers(sources.size)])
        taken = {e.dst for e in edges if e.src == v}
        free = [
            int(w) for w in others
            if not graph.has_edge(v, int(w)) and int(w) not in taken
        ]
        if free:
            w = free[int(rng.integers(len(free)))]
            edges.append(EdgeInsertion(v, w, weight_oracle(graph, v, planned=len(taken))))
    return edges


def test_single_color_plan_leaves_other_color_br_unchanged():
    # A walk from the other color stops at its first node of ``color``, and a
    # plan only rewrites rows of ``color`` nodes, so those Bubble Radii keep
    # every bit.  The penalized greedy picks targets from this invariance.
    rng = np.random.default_rng(41)
    applied = 0
    for _ in range(40):
        graph, t = random_polarized(rng, n_max=24)
        color = "R" if rng.random() < 0.5 else "B"
        plan = _random_legal_plan(rng, graph, color, int(rng.integers(1, 8)))
        if not plan:
            continue
        other = graph.color_mask(opposite(color))
        before = exact_br(graph, t).values[other]
        after = exact_br(apply_plan(graph, plan), t).values[other]
        assert np.array_equal(before, after)
        applied += 1
    assert applied >= 30


# Every public entry point that takes node ids rejects -1 and n (g2 has
# nodes 0..3, node 3 blue); a negative id must not wrap around to node n-1.
NODE_ID_CALLS = {
    "gain-mc": lambda g, u: gain(
        g, [u], [EdgeInsertion(0, 3, 0.5)], 4, backend="mc",
        cfg=WalkConfig(t=4, theta_good=1.5),
    ),
    "estimate_rwcc-v": lambda g, u: estimate_rwcc(g, u, [0, 1], 3, 0.5, 0.1, 0),
    "estimate_rwcc-sources": lambda g, u: estimate_rwcc(g, 2, [u, 2], 3, 0.5, 0.1, 0),
    "simulate_restart_session": lambda g, u: simulate_restart_session(g, u, 4, 2, 0),
    "exact_first_passage-source": lambda g, u: exact_first_passage(g, u, 1, 4),
    "exact_first_passage-target": lambda g, u: exact_first_passage(g, 0, u, 4),
    "exact_return_mass": lambda g, u: exact_return_mass(g, u, 4),
    "generate_gadget-elements": lambda g, u: generate_gadget(g.n, [range(g.n), [u]], 6),
}


@pytest.mark.parametrize("bad", ["-1", "n"])
@pytest.mark.parametrize("entry", sorted(NODE_ID_CALLS))
def test_node_ids_outside_graph_raise(g2, entry, bad):
    node = -1 if bad == "-1" else g2.n
    with pytest.raises(IdOutOfRange, match="outside"):
        NODE_ID_CALLS[entry](g2, node)


def _cli_rwcc(graph, horizon, tmp):
    edges, colors = tmp / "g.edges.tsv", tmp / "g.colors.tsv"
    write_dataset(graph, edges, colors)
    args = build_parser().parse_args([
        "rwcc", "--edges", str(edges), "--colors", str(colors), "--t", "4",
        "--theta-good", "1.5", "--theta-bad", "2.0",
    ])
    args.horizon = horizon
    return args.fn(args)


def _count(call, minimum=1):
    """A count parameter: rejected as a non-integer and just below its minimum."""
    return call, (2.5, minimum - 1)


def _seed(call):
    """A seed parameter: rejected as a non-integer, negative and too wide."""
    return call, (1.5, -1, 2**64)


_CFG = WalkConfig(t=4, theta_good=1.5)
_PLAN = [EdgeInsertion(0, 3, 0.5)]

# Every entry point that takes a horizon, count, budget, seed, bias sum or
# probability, as a call of (g2, value, scratch dir) with the values its
# rule rejects.
PARAMETER_CALLS = {
    "WalkConfig-t": _count(lambda g, x, _: WalkConfig(t=x)),
    "WalkConfig-seed": _seed(lambda g, x, _: WalkConfig(t=4, seed=x)),
    "exact_bounded_hitting": _count(lambda g, x, _: exact_bounded_hitting(g, [3], x)),
    "exact_br": _count(lambda g, x, _: exact_br(g, x)),
    "exact_first_passage": _count(lambda g, x, _: exact_first_passage(g, 0, 1, x)),
    "exact_return_mass": _count(lambda g, x, _: exact_return_mass(g, 0, x)),
    "exact_gamma": _count(lambda g, x, _: exact_gamma(g, x)),
    "exact_rwcc": _count(lambda g, x, _: exact_rwcc(g, 0, [1, 2], x)),
    "exact_rwcc_many": _count(lambda g, x, _: exact_rwcc_many(g, [0, 1], [0, 1, 2], x)),
    "gain-t": _count(lambda g, x, _: gain(g, [0, 1, 2], _PLAN, x)),
    "gain-t-empty-plan": _count(lambda g, x, _: gain(g, [0, 1, 2], [], x)),
    "gain-mc-t-empty-plan": _count(
        lambda g, x, _: gain(g, [0, 1, 2], [], x, backend="mc", cfg=_CFG)
    ),
    "brute_force_opt-k": _count(lambda g, x, _: brute_force_opt(g, "R", x, 4), 0),
    "br_sample_size-n": _count(lambda g, x, _: br_sample_size(x, 10, 0.5, 0.1)),
    "br_sample_size-t": _count(lambda g, x, _: br_sample_size(10, x, 0.5, 0.1)),
    "rwcc_sample_size": _count(lambda g, x, _: rwcc_sample_size(10, x, 0.5, 0.1)),
    "rwcc_sample_size-n": _count(lambda g, x, _: rwcc_sample_size(x, 10, 0.5, 0.1)),
    "estimate_br-t": _count(lambda g, x, _: estimate_br(g, x, 0.5, 0.1, 0)),
    "estimate_br-seed": _seed(lambda g, x, _: estimate_br(g, 4, 0.5, 0.1, x)),
    "estimate_rwcc-t": _count(
        lambda g, x, _: estimate_rwcc(g, 0, [1, 2], x, 0.5, 0.1, 0)
    ),
    "estimate_rwcc-seed": _seed(
        lambda g, x, _: estimate_rwcc(g, 0, [1, 2], 3, 0.5, 0.1, x)
    ),
    "estimate_rwcc_many-empty-seed": _seed(
        lambda g, x, _: estimate_rwcc_many(g, [], [0, 1], 4, 0.5, 0.1, x)
    ),
    "simulate_restart_session-t": _count(
        lambda g, x, _: simulate_restart_session(g, 0, x, 2, 0)
    ),
    "simulate_restart_session-restarts": _count(
        lambda g, x, _: simulate_restart_session(g, 0, 4, x, 0)
    ),
    "simulate_restart_session-seed": _seed(
        lambda g, x, _: simulate_restart_session(g, 0, 4, 2, x)
    ),
    "stream-seed": _seed(lambda g, x, _: stream(x, 1)),
    "derive_seed-seed": _seed(lambda g, x, _: derive_seed(x, 1)),
    "budget_allocation": _count(lambda g, x, _: budget_allocation(1.0, 2.0, x), 0),
    "budget_allocation-bias": (lambda g, x, _: budget_allocation(1.0, x, 3), (-1.0,)),
    "generate_polarized-p_within": (
        lambda g, x, _: generate_polarized(2, 2, x, 0.0, 0), (0.0, 1.5)
    ),
    "generate_polarized-p_cross": (
        lambda g, x, _: generate_polarized(2, 2, 0.5, x, 0), (-0.1, 0.6)
    ),
    "generate_polarized-n_red": _count(lambda g, x, _: generate_polarized(x, 2, 0.5, 0.1, 0)),
    "generate_polarized-n_blue": _count(lambda g, x, _: generate_polarized(2, x, 0.5, 0.1, 0)),
    "generate_polarized-seed": _seed(lambda g, x, _: generate_polarized(2, 2, 0.5, 0.1, x)),
    "generate_gadget-n_elements": _count(lambda g, x, _: generate_gadget(x, [[0]], 4)),
    "generate_gadget-t": _count(lambda g, x, _: generate_gadget(1, [[0]], x), 3),
    "run_sweep-K": _count(
        lambda g, x, tmp: run_sweep(g, ["pure-random"], [x], _CFG, [0], tmp / "sweep.csv"), 0
    ),
    "run_sweep-seed": _seed(
        lambda g, x, tmp: run_sweep(g, ["pure-random"], [1], _CFG, [x], tmp / "sweep.csv")
    ),
    "cli-rwcc-horizon": _count(_cli_rwcc),
    **{
        f"{name}-budget": _count(
            lambda g, x, _, algo=algo: algo(g, "R", x, _CFG), 0
        )
        for name, algo in ALGORITHMS.items()
    },
    **{
        f"{name}-seed": _seed(lambda g, x, _, algo=algo: algo(g, "R", 1, replace(_CFG, seed=x)))
        for name, algo in ALGORITHMS.items()
    },
}


@pytest.mark.parametrize(
    "entry,value",
    [(entry, value) for entry, (_, values) in PARAMETER_CALLS.items() for value in values],
)
def test_bad_parameters_raise_threshold_order(g2, tmp_path, entry, value):
    call, _ = PARAMETER_CALLS[entry]
    with pytest.raises(ThresholdOrder):
        call(g2, value, tmp_path)
    # The sweep checks its budgets and seeds before it writes a row.
    assert not (tmp_path / "sweep.csv").exists()


def _rebuilt(graph, colors, relabel):
    """``graph`` with node v renamed ``relabel[v]`` and the given colors."""
    edges = [
        (int(relabel[v]), int(relabel[w]), float(x))
        for v in range(graph.n)
        for w, x in zip(*graph.row(v))
    ]
    return build_graph(colors, edges)


def _closeness_by_color(graph, t, pools):
    """Closeness of every node of each color w.r.t. that color's pool."""
    return [
        exact_rwcc_many(graph, graph.nodes_of(c), pools[c], t - 2) for c in ("R", "B")
    ]


def _random_pools(rng, graph):
    pools = {}
    for c in ("R", "B"):
        nodes = graph.nodes_of(c)
        pools[c] = nodes[rng.random(nodes.size) < 0.5]
        if pools[c].size == 0:
            pools[c] = nodes[:1]
    return pools


def test_relabelling_permutes_br_and_closeness():
    rng = np.random.default_rng(53)
    for _ in range(15):
        graph, t = random_polarized(rng, n_max=30)
        perm = rng.permutation(graph.n)
        colors = np.empty(graph.n, dtype="<U1")
        colors[perm] = graph.colors
        moved = _rebuilt(graph, colors, perm)
        np.testing.assert_allclose(
            exact_br(moved, t).values[perm], exact_br(graph, t).values, rtol=0, atol=1e-12
        )
        pools = _random_pools(rng, graph)
        before = _closeness_by_color(graph, t, pools)
        for c, old in zip(("R", "B"), before):
            nodes = graph.nodes_of(c)
            got = exact_rwcc_many(moved, perm[nodes], perm[pools[c]], t - 2)
            np.testing.assert_allclose(got, old, rtol=0, atol=1e-12)


def test_color_swap_leaves_br_and_closeness_unchanged():
    rng = np.random.default_rng(59)
    for _ in range(15):
        graph, t = random_polarized(rng, n_max=30)
        swapped = _rebuilt(graph, np.where(graph.colors == "R", "B", "R"), np.arange(graph.n))
        np.testing.assert_allclose(
            exact_br(swapped, t).values, exact_br(graph, t).values, rtol=0, atol=1e-12
        )
        pools = _random_pools(rng, graph)
        swapped_pools = {opposite(c): nodes for c, nodes in pools.items()}
        before = _closeness_by_color(graph, t, pools)
        after = _closeness_by_color(swapped, t, swapped_pools)[::-1]
        for got, old in zip(after, before):
            np.testing.assert_allclose(got, old, rtol=0, atol=1e-12)
