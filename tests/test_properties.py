"""Cross-module invariants on randomized instances."""
import numpy as np
import pytest

from repbublik import (
    EdgeInsertion,
    WalkConfig,
    apply_plan,
    baseline_rcn,
    baseline_rwcn,
    estimate_br,
    exact_bounded_hitting,
    exact_br,
    exact_gain,
    opposite,
    repbublik,
    weight_oracle,
)
from repbublik.montecarlo import _WalkSampler, _hit_times, stream

from conftest import random_polarized


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
            plan = fn(graph, "R", 3, cfg, seed=int(rng.integers(2**32)))
            plan.validate_against(graph)
            if plan:
                produced += 1


def test_repbublik_uniform_policy_deterministic():
    rng = np.random.default_rng(29)
    graph, t = random_polarized(rng, n_max=20)
    cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, seed=77)
    a = repbublik(graph, "R", 3, cfg, policy="uniform-seeded")
    b = repbublik(graph, "R", 3, cfg, policy="uniform-seeded")
    assert a.edges == b.edges


def test_sampled_hit_times_within_horizon():
    rng = np.random.default_rng(31)
    graph, t = random_polarized(rng, n_max=20)
    sampler = _WalkSampler(graph)
    reds = graph.nodes_of("R")
    if reds.size < 2:
        pytest.skip("instance lacks two red nodes")
    forbidden = graph.color_mask("B")
    uniforms = stream(3, 1, 2).random((200, t))
    times = _hit_times(sampler, int(reds[0]), int(reds[1]), forbidden, uniforms)
    assert times.min() >= 1 and times.max() <= t


def test_estimated_br_within_declared_range():
    rng = np.random.default_rng(37)
    for _ in range(5):
        graph, t = random_polarized(rng, n_max=20)
        table = estimate_br(graph, t, 0.9, 0.5, seed=int(rng.integers(2**32)),
                            walks_per_node=16)
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
            edges.append(EdgeInsertion(v, w, weight_oracle(graph, v, edges)))
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
