"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every expected value is either pinned arithmetic, an exact DP oracle, or an
exhaustive enumeration; tolerances are stated inline.  The slow criteria
carry their runtime budget in the assertion.
"""
import math
import time
import warnings
from collections import defaultdict

import numpy as np
import pytest

from repbublik import (
    EdgeInsertion,
    WalkConfig,
    build_graph,
    candidate_universe,
    classify,
    estimate_br,
    estimate_rwcc,
    exact_br,
    exact_gamma,
    exact_rwcc,
    generate_gadget,
    generate_polarized,
    repbublik,
    run_sweep,
    weight_oracle,
)
from repbublik.montecarlo import br_sample_size, derive_seed, rwcc_sample_size

from oracles import (
    brute_force_opt,
    exact_first_passage,
    exact_gain,
    exact_return_mass,
    simulate_restart_session,
)

TOL = 1e-9


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _random_instance(rng, n_max=40, t_lo=5, t_hi=10):
    n_red = int(rng.integers(3, max(4, n_max // 2)))
    n_blue = int(rng.integers(3, max(4, n_max // 2)))
    p_within = float(rng.uniform(0.1, 0.4))
    p_cross = float(rng.uniform(0.0, p_within * 0.3))
    graph = generate_polarized(
        n_red, n_blue, p_within, p_cross, seed=int(rng.integers(2**32))
    )
    return graph, int(rng.integers(t_lo, t_hi + 1))


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gadget_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(4101)
    ok = True
    for case in range(5):
        t = int(rng.choice([4, 6, 8]))
        n_u = int(rng.integers(2, 7))
        n_s = int(rng.integers(2, 5))
        subsets = [set() for _ in range(n_s)]
        for u in range(n_u):  # every element covered at least once
            subsets[int(rng.integers(n_s))].add(u)
        for _ in range(n_u):  # extra memberships
            subsets[int(rng.integers(n_s))].add(int(rng.integers(n_u)))
        subsets = [s for s in subsets if s]
        gadget = generate_gadget(n_u, subsets, t)
        values = exact_br(gadget.graph, t).values
        want_set, want_elem = math.ceil(t / 2) - 1, math.ceil(t / 2)
        ok &= bool(np.all(np.abs(values[gadget.subsets] - want_set) <= TOL))
        ok &= bool(np.all(np.abs(values[gadget.elements] - want_elem) <= TOL))
        part = classify(
            exact_br(gadget.graph, t), gadget.graph.colors, 1.0, float(want_elem)
        )
        ok &= part.parochial.tolist() == gadget.elements.tolist()
    elapsed = time.perf_counter() - started
    _report("1 gadget exactness", ok and elapsed < 1.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_estimator_concentration():
    started = time.perf_counter()
    rng = np.random.default_rng(4202)
    graphs = []
    for _ in range(20):
        n_red = int(rng.integers(10, 21))
        n_blue = int(rng.integers(10, 21))
        t = int(rng.integers(4, 6))
        graphs.append(
            (
                generate_polarized(
                    n_red, n_blue,
                    float(rng.uniform(0.15, 0.35)),
                    float(rng.uniform(0.01, 0.05)),
                    seed=int(rng.integers(2**32)),
                ),
                t,
            )
        )

    br_eps, br_delta = 0.5, 0.05
    br_misses = 0
    for gi, (graph, t) in enumerate(graphs):
        exact = exact_br(graph, t).values
        assert br_sample_size(graph.n, t, br_eps, br_delta) >= 1
        for rep in range(25):
            est = estimate_br(
                graph, t, br_eps, br_delta, seed=derive_seed(999, gi, rep)
            ).values
            if np.max(np.abs(est - exact)) > br_eps:
                br_misses += 1

    rw_eps, rw_delta = 1.0, 0.1
    rw_misses = 0
    for gi, (graph, t) in enumerate(graphs):
        reds, blues = graph.nodes_of("R"), graph.nodes_of("B")
        side = reds if reds.size >= blues.size else blues
        v, sources = int(side[0]), [int(x) for x in side]
        exact_c = exact_rwcc(graph, v, sources, t)
        assert rwcc_sample_size(graph.n, t, rw_eps, rw_delta) >= 1
        for rep in range(25):
            est_c = estimate_rwcc(
                graph, v, sources, t, rw_eps, rw_delta, seed=derive_seed(1001, gi, rep)
            )
            if abs(est_c - exact_c) > rw_eps:
                rw_misses += 1

    elapsed = time.perf_counter() - started
    ok = br_misses / 500 <= 0.07 and rw_misses / 500 <= 0.12 and elapsed < 600
    _report(
        "2 estimator concentration",
        ok,
        f"BR misses {br_misses}/500, RWCC misses {rw_misses}/500, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------- criterion 3

def _legal_targets_of(graph, v):
    from repbublik import opposite

    others = graph.nodes_of(opposite(graph.color_of(v)))
    return [int(w) for w in others if not graph.has_edge(v, int(w))]


def test_criterion_3_gain_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(4303)
    counts = defaultdict(int)
    violations = defaultdict(int)

    while min(
        counts["sandwich"], counts["propagation"], counts["parochial"]
    ) < 120:
        graph, t = _random_instance(rng)
        v = int(rng.integers(graph.n))
        legal = _legal_targets_of(graph, v)
        if not legal:
            continue
        w = legal[int(rng.integers(len(legal)))]
        m = float(rng.uniform(0.05, 0.95))
        edge = EdgeInsertion(v, w, m)
        t_prime = int(rng.integers(2, t + 1))

        # Gain sandwich: (B-1)m <= gain <= F(B-1)m at any horizon.
        gain_v = exact_gain(graph, [v], [edge], t_prime)
        b_v = exact_br(graph, t_prime).values[v]
        _, f_v = exact_return_mass(graph, v, t_prime)
        counts["sandwich"] += 1
        if not ((b_v - 1) * m - TOL <= gain_v <= f_v * (b_v - 1) * m + TOL):
            violations["sandwich"] += 1

        # Gain propagation: another node's gain is the convolution of the
        # source's horizon-shrunk gains with the first-passage profile.
        same = [int(u) for u in graph.nodes_of(graph.color_of(v)) if u != v]
        if same:
            u = same[int(rng.integers(len(same)))]
            gain_u = exact_gain(graph, [u], [edge], t)
            profile = exact_first_passage(graph, u, v, t)
            predicted = sum(
                exact_gain(graph, [v], [edge], t - i) * profile.probs[i]
                for i in range(1, t - 1)
            )
            counts["propagation"] += 1
            if abs(gain_u - predicted) > TOL:
                violations["propagation"] += 1

        # Parochial horizon bound: B(v,t) >= t/2 pins B(v,t') into [t'/2, t'].
        br_t = exact_br(graph, t).values
        t_small = int(rng.integers(1, t + 1))
        br_small = exact_br(graph, t_small).values
        for node in np.flatnonzero(br_t >= t / 2)[:4]:
            counts["parochial"] += 1
            if not (t_small / 2 - TOL <= br_small[node] <= t_small + TOL):
                violations["parochial"] += 1

    while min(
        counts["centrality"], counts["optimality"], counts["submodularity"]
    ) < 120:
        graph, t = _random_instance(rng)
        theta_bad = t / 2
        br = exact_br(graph, t).values
        for color in ("R", "B"):
            pool = [
                int(v) for v in graph.nodes_of(color) if br[v] >= theta_bad
            ]
            if len(pool) < 2:
                continue

            # Centrality lower bound with the oracle weight.
            v = pool[int(rng.integers(len(pool)))]
            legal = _legal_targets_of(graph, v)
            if not legal:
                continue
            m_v = weight_oracle(graph, v)
            gain_pool = exact_gain(
                graph, pool, [EdgeInsertion(v, legal[0], m_v)], t
            )
            counts["centrality"] += 1
            if gain_pool + TOL < m_v / 2 * exact_rwcc(graph, v, pool, t - 2):
                violations["centrality"] += 1

            # Optimality gap: best single-edge gain vs the proxy argmax.
            # A single-edge gain over a monochromatic set does not depend on
            # the chosen target, so the first legal target represents all.
            single = {}
            for u in pool:
                lu = _legal_targets_of(graph, u)
                if lu:
                    single[u] = exact_gain(
                        graph, pool,
                        [EdgeInsertion(u, lu[0], weight_oracle(graph, u))], t,
                    )
            if single:
                best = max(single.values())
                proxy = {
                    u: weight_oracle(graph, u) * exact_rwcc(graph, u, pool, t - 2)
                    for u in single
                }
                chosen = min(u for u in proxy if proxy[u] == max(proxy.values()))
                factor = 4 * exact_gamma(graph, t) + 1
                counts["optimality"] += 1
                if best > factor * single[chosen] + TOL:
                    violations["optimality"] += 1

            # Monotonicity and submodularity for a random pair of sources.
            picks = rng.choice(len(pool), size=2, replace=False)
            v1, v2 = pool[int(picks[0])], pool[int(picks[1])]
            l1, l2 = _legal_targets_of(graph, v1), _legal_targets_of(graph, v2)
            if not l1 or not l2:
                continue
            e1 = EdgeInsertion(
                v1, l1[int(rng.integers(len(l1)))], float(rng.uniform(0.05, 0.9))
            )
            e2 = EdgeInsertion(
                v2, l2[int(rng.integers(len(l2)))], float(rng.uniform(0.05, 0.9))
            )
            g1 = exact_gain(graph, pool, [e1], t)
            g2 = exact_gain(graph, pool, [e2], t)
            g12 = exact_gain(graph, pool, [e1, e2], t)
            counts["submodularity"] += 1
            if not (g1 - TOL <= g12 <= g1 + g2 + TOL):
                violations["submodularity"] += 1

    elapsed = time.perf_counter() - started
    total_viol = sum(violations.values())
    detail = ", ".join(f"{k}:{counts[k]}" for k in sorted(counts))
    _report(
        "3 gain bounds and identities",
        total_viol == 0,
        f"checked {detail}; violations {dict(violations) or 0}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_greedy_approximation():
    started = time.perf_counter()
    rng = np.random.default_rng(4404)
    checked = violations = 0
    while checked < 50:
        n_red = int(rng.integers(3, 7))
        n_blue = int(rng.integers(3, 7))
        t = int(rng.integers(5, 9))
        graph = generate_polarized(
            n_red, n_blue,
            float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.0, 0.1)),
            seed=int(rng.integers(2**32)),
        )
        k = int(rng.integers(1, 3))
        color = "R" if rng.random() < 0.5 else "B"
        theta_bad = t / 2
        br = exact_br(graph, t).values
        pool = [int(v) for v in graph.nodes_of(color) if br[v] >= theta_bad]
        if not pool:
            continue
        cfg = WalkConfig(
            t=t, theta_good=max(1.0, min(2.0, theta_bad - 0.5)),
            theta_bad=theta_bad, seed=int(rng.integers(2**32)),
        )
        _, opt_gain = brute_force_opt(graph, color, k, t, theta_bad=theta_bad)
        plan = repbublik(graph, color, k, cfg)
        mine = exact_gain(graph, pool, plan.edges, t) if len(plan) else 0.0
        factor = (4 * exact_gamma(graph, t) + 1) * (1 + 1 / math.e)
        checked += 1
        if mine * factor + TOL < opt_gain:
            violations += 1
    elapsed = time.perf_counter() - started
    _report(
        "4 greedy vs brute-force optimum",
        violations == 0 and elapsed < 300,
        f"{checked} instances, {violations} violations, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_restart_bounds():
    started = time.perf_counter()
    sessions = 10_000

    # Hypothesis 1: BR(v) >= t(1 - 1/(8r)) => P(steps <= t/2) <= 1/4 (+0.03).
    t, r, leak = 8, 2, 0.002
    trapped = build_graph(
        ["R", "R", "B"],
        [(0, 1, 1.0 - leak), (0, 2, leak), (1, 0, 1.0), (2, 0, 1.0)],
    )
    assert exact_br(trapped, t).values[0] >= t * (1 - 1 / (8 * r))
    fast = sum(
        1
        for s in range(sessions)
        if (steps := simulate_restart_session(trapped, 0, t, r, seed=s)) is not None
        and steps <= t / 2
    )
    bound1_ok = fast / sessions <= 0.25 + 0.03

    # Hypothesis 2: BR(v) <= b => P(steps > 4br) <= 1/4 (+0.03).
    leaky = build_graph(
        ["R", "R", "B"],
        [(0, 1, 0.55), (0, 2, 0.45), (1, 0, 1.0), (2, 0, 1.0)],
    )
    b = float(exact_br(leaky, t).values[0])
    slow = sum(
        1
        for s in range(sessions)
        if (steps := simulate_restart_session(leaky, 0, t, r, seed=s)) is None
        or steps > 4 * b * r
    )
    bound2_ok = slow / sessions <= 0.25 + 0.03

    elapsed = time.perf_counter() - started
    _report(
        "5 restart-session bounds",
        bound1_ok and bound2_ok,
        f"P(fast)={fast / sessions:.4f}, P(slow)={slow / sessions:.4f}, {elapsed:.0f}s",
    )


# ------------------------------------------------------------ criteria 6 and 7

GRAPH_SEEDS = list(range(101, 111))
K_LIST = [1, 2, 4, 8, 16, 32, 64, 128, 256, 365, 512]
REP_SEEDS = [0, 1, 2, 3, 4]
SWEEP_ALGOS = ["repbublik-plus", "pure-random", "rcn", "rwcn"]


def _figure_sweep(graph, cfg, out_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_sweep(
            graph, SWEEP_ALGOS, K_LIST, cfg, REP_SEEDS, out_path, backend="exact"
        )


@pytest.fixture(scope="module")
def figure_sweeps(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig1")
    started = time.perf_counter()
    runs = []
    for gi, graph_seed in enumerate(GRAPH_SEEDS):
        graph = generate_polarized(200, 200, 0.02, 0.002, seed=graph_seed)
        cfg = WalkConfig(t=10, theta_good=2.0, theta_bad=5.0, seed=1000 + gi)
        part = classify(exact_br(graph, 10), graph.colors, 2.0, 5.0)
        universe = candidate_universe(graph, part)
        path = root / f"sweep_{graph_seed}.csv"
        records = _figure_sweep(graph, cfg, path)
        runs.append(
            {
                "graph": graph,
                "cfg": cfg,
                "universe": universe,
                "records": records,
                "path": path,
            }
        )
    return {"runs": runs, "elapsed": time.perf_counter() - started, "root": root}


def test_criterion_6_figure_trend(figure_sweeps):
    dominant = healed = 0
    for run in figure_sweeps["runs"]:
        means = defaultdict(dict)
        for record in run["records"]:
            means[record.algorithm].setdefault(record.budget, []).append(
                record.delta
            )
        small = [k for k in K_LIST if k <= 0.005 * run["universe"]]
        assert small, "budget ladder misses the 0.5% regime"
        dominated = all(
            np.mean(means["repbublik-plus"][k])
            >= max(
                np.mean(means[algo][k])
                for algo in ("pure-random", "rcn", "rwcn")
            )
            for k in small
        )
        dominant += dominated
        # "Heals all the bad vertices": the healed share reaches 1, i.e. the
        # count of still-parochial nodes reaches 0 at some swept budget.
        healed += any(
            r.pct_parochial >= 1.0
            for r in run["records"]
            if r.algorithm == "repbublik-plus"
        )
    elapsed = figure_sweeps["elapsed"]
    ok = dominant >= 8 and healed == len(GRAPH_SEEDS) and elapsed < 900
    _report(
        "6 figure-protocol trend at desk scale",
        ok,
        f"dominance {dominant}/10, fully healed {healed}/10, sweeps {elapsed:.0f}s",
    )


def test_criterion_7_sweep_determinism(figure_sweeps):
    # Each rerun regenerates its graph, so it starts from an empty memo and
    # recomputes every Bubble Radius and closeness value of the sweep.
    identical = 0
    for gi, run in enumerate(figure_sweeps["runs"]):
        repeat_path = figure_sweeps["root"] / f"repeat_{GRAPH_SEEDS[gi]}.csv"
        graph = generate_polarized(200, 200, 0.02, 0.002, seed=GRAPH_SEEDS[gi])
        assert graph is not run["graph"] and not graph.memo
        _figure_sweep(graph, run["cfg"], repeat_path)
        identical += run["path"].read_bytes() == repeat_path.read_bytes()
    _report(
        "7 byte-identical sweep reruns",
        identical == len(GRAPH_SEEDS),
        f"{identical}/10 byte-identical",
    )
