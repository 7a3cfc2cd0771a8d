"""Dataset IO, fixture generators, the sweep protocol, and plot emission."""
import contextlib
import errno
import multiprocessing.connection
import os
import re
import signal
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import repbublik.harness as harness

from repbublik import (
    WalkConfig,
    build_graph,
    candidate_universe,
    classify,
    dataset_stats,
    default_k_values,
    emit_plotdata,
    exact_br,
    generate_gadget,
    generate_polarized,
    load_dataset,
    run_sweep,
    write_dataset,
)
from repbublik.cli import main
from repbublik.errors import (
    BadEdgeWeight,
    DuplicateEdge,
    EmptyRecords,
    NonStochasticRow,
    ParseError,
    RepbublikError,
    SelfLoopEdge,
    ThresholdOrder,
    UncoveredElement,
    UnknownColor,
    WorkLimitExceeded,
    ZeroOutDegree,
)
from repbublik.harness import CSV_HEADER, ExperimentRecord
from repbublik.montecarlo import derive_seed
from repbublik.recommend import ALGORITHMS, baseline_pure_random, repbublik_plus

from conftest import random_polarized


@pytest.fixture
def g1_files(tmp_path):
    edges = tmp_path / "g1.edges.tsv"
    colors = tmp_path / "g1.colors.tsv"
    edges.write_text("0\t1\t1.0\n1\t0\t1.0\n")
    colors.write_text("0\tR\n1\tB\n")
    return edges, colors


class TestLoadDataset:
    def test_g1_stats(self, g1_files):
        loaded = load_dataset(*g1_files)
        s = dataset_stats(loaded.graph, WalkConfig(t=5, theta_good=2.0, theta_bad=2.5))
        assert (s.n_red, s.n_blue) == (1, 1)
        assert (s.edges_red_to_blue, s.edges_blue_to_red) == (1, 1)
        assert s.edge_count == 2

    def test_malformed_weight(self, tmp_path, g1_files):
        edges = tmp_path / "bad.edges.tsv"
        edges.write_text("0\t1\tnot-a-number\n1\t0\t1.0\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(edges, g1_files[1])
        assert exc.value.line_no == 1

    def test_node_without_color(self, tmp_path, g1_files):
        edges = tmp_path / "extra.edges.tsv"
        edges.write_text("0\t1\t1.0\n1\t0\t0.5\n1\t7\t0.5\n")
        with pytest.raises(UnknownColor):
            load_dataset(edges, g1_files[1])

    def test_cross_edge_counts_match_per_edge_colors(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            graph, _ = random_polarized(rng, n_max=40)
            src = np.repeat(np.arange(graph.n), np.diff(graph.indptr)).tolist()
            pairs = [
                (graph.color_of(v), graph.color_of(w))
                for v, w in zip(src, graph.targets.tolist())
            ]
            expected = (pairs.count(("R", "B")), pairs.count(("B", "R")))
            assert harness.cross_edge_counts(graph) == expected

    def test_sparse_ids_compacted(self, tmp_path):
        edges = tmp_path / "sparse.edges.tsv"
        colors = tmp_path / "sparse.colors.tsv"
        edges.write_text("10\t700\t1.0\n700\t10\t1.0\n")
        colors.write_text("700\tB\n10\tR\n")
        loaded = load_dataset(edges, colors)
        assert loaded.graph.n == 2
        assert loaded.original_ids.tolist() == [10, 700]
        assert "dense_ids" not in vars(loaded)  # built on first use
        assert loaded.dense_ids == {10: 0, 700: 1}
        assert loaded.graph.color_of(0) == "R"

    @pytest.mark.parametrize("fault, error, message", [
        ("300\t100\t1.0\n300\t100\t1.0", DuplicateEdge, "duplicate edge (300, 100)"),
        ("300\t300\t0.5\n300\t100\t0.5", SelfLoopEdge, "self-loop on node 300 is not allowed"),
        ("", ZeroOutDegree, "node 300 has no outgoing edge"),
        ("300\t100\t0.7", NonStochasticRow, "out-weights of node 300 sum to 0.7, not 1"),
        ("300\t100\tnan", BadEdgeWeight,
         "edge (300, 100) has weight nan; edge weights must be positive and finite"),
        ("300\t100\t-0.5", BadEdgeWeight,
         "edge (300, 100) has weight -0.5; edge weights must be positive and finite"),
    ], ids=["duplicate", "self-loop", "zero-out-degree", "row-sum", "nan-weight",
            "negative-weight"])
    def test_graph_errors_name_the_original_ids(
        self, fault, error, message, tmp_path, capsys
    ):
        edges = tmp_path / "sparse.edges.tsv"
        colors = tmp_path / "sparse.colors.tsv"
        edges.write_text(f"100\t200\t1.0\n200\t300\t1.0\n{fault}\n")
        colors.write_text("100\tR\n200\tB\n300\tR\n")
        with pytest.raises(error) as caught:
            load_dataset(edges, colors)
        assert type(caught.value) is error and str(caught.value) == message
        assert main(["stats", "--edges", str(edges), "--colors", str(colors)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_roundtrip_through_writer(self, tmp_path):
        gadget = generate_gadget(2, [[0, 1], [1]], 6)
        write_dataset(gadget.graph, tmp_path / "e.tsv", tmp_path / "c.tsv")
        loaded = load_dataset(tmp_path / "e.tsv", tmp_path / "c.tsv")
        assert loaded.graph.n == gadget.graph.n
        assert np.allclose(
            exact_br(loaded.graph, 6).values, exact_br(gadget.graph, 6).values
        )

    def test_stats_recomputation_matches(self, g1_files):
        cfg = WalkConfig(t=5, theta_good=2.0, theta_bad=2.5)
        graph = load_dataset(*g1_files).graph
        s = dataset_stats(graph, cfg)
        assert s == dataset_stats(graph, cfg)
        assert (s.pct_parochial_red, s.pct_parochial_blue) == (0.0, 0.0)


class TestGenerateGadget:
    def test_reference_br_values(self):
        gadget = generate_gadget(2, [[0, 1], [1]], 6)
        values = exact_br(gadget.graph, 6).values
        assert values[gadget.elements] == pytest.approx([3.0, 3.0], abs=1e-9)
        assert values[gadget.subsets] == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_t3_direct_edges(self):
        gadget = generate_gadget(2, [[0], [1]], 3)
        assert gadget.path_nodes.size == 0
        assert gadget.graph.has_edge(int(gadget.subsets[0]), gadget.sink)

    def test_uncovered_element(self):
        with pytest.raises(UncoveredElement) as exc:
            generate_gadget(3, [[0, 1]], 6)
        assert exc.value.element == 2

    def test_sink_escape_does_not_change_red_values(self):
        for t in (4, 6, 8):
            gadget = generate_gadget(3, [[0, 2], [1], [2]], t)
            values = exact_br(gadget.graph, t).values
            want = np.ceil(t / 2)
            assert values[gadget.elements] == pytest.approx([want] * 3, abs=1e-9)


class TestGeneratePolarized:
    def test_no_cross_edges_caps_br(self):
        g = generate_polarized(10, 10, 0.3, 0.0, seed=5)
        assert exact_br(g, 6).values == pytest.approx([6.0] * 20)

    def test_equal_densities_leave_few_parochial(self):
        g = generate_polarized(30, 30, 0.2, 0.2, seed=9)
        t = 6
        br = exact_br(g, t)
        part = classify(br, g.colors, 2.0, t / 2)
        assert len(part.parochial) / g.n < 0.05

    def test_seed_reproducibility(self):
        a = generate_polarized(15, 12, 0.2, 0.02, seed=3)
        b = generate_polarized(15, 12, 0.2, 0.02, seed=3)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.weights, b.weights)
        c = generate_polarized(15, 12, 0.2, 0.02, seed=4)
        assert not np.array_equal(a.targets, c.targets)

    def test_every_node_has_an_out_edge(self):
        g = generate_polarized(40, 5, 0.05, 0.01, seed=7)
        assert (np.diff(g.indptr) >= 1).all()

    def test_draws_past_the_bound_raise_at_once(self):
        # n uniforms for each of n rows: 2**20 nodes pass, one more does not.
        started = time.perf_counter()
        with pytest.raises(WorkLimitExceeded, match="polarized graph draws"):
            generate_polarized(2**20, 1, 0.5, 0.1, seed=0)
        assert time.perf_counter() - started < 1.0


class TestRunSweep:
    @pytest.fixture
    def gadget6(self):
        return generate_gadget(3, [[0, 1], [1, 2], [2]], 6)

    def test_zero_budget_row(self, gadget6, tmp_path):
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        records = run_sweep(
            gadget6.graph, ["repbublik-plus", "pure-random"], [0], cfg, [1, 2],
            tmp_path / "s.csv",
        )
        assert all(r.delta == 0.0 and r.pct_parochial == 0.0 for r in records)

    def test_no_parochial_node_splits_evenly(self, monkeypatch, tmp_path, call_log):
        # Every walk of this graph leaves its color at the first step.
        graph = build_graph(
            ["R", "R", "B", "B"],
            [(0, 2, 0.5), (0, 3, 0.5), (1, 2, 1.0), (2, 0, 1.0), (3, 1, 1.0)],
        )
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)

        def spy(graph, color, budget, cfg, backend="exact"):
            call_log.note(cfg.seed, color, budget)
            return repbublik_plus(graph, color, budget, cfg, backend=backend)

        monkeypatch.setitem(ALGORITHMS, "spy", spy)
        records = run_sweep(graph, ["spy"], [0, 1, 2, 3], cfg, [1, 2], tmp_path / "s.csv")
        assert len(records) == 8
        for r in records:
            assert r.error is None and r.pct_candidate == 0.0
            assert r.delta == 0.0 and r.pct_parochial == 0.0
        # Even splits (0, 0), (0, 1), (1, 1), (1, 2): blue gets the ceiling,
        # and each (seed, color) plan is built at the color's largest budget.
        assert sorted(call_log.read()) == [(1, "B", 2), (1, "R", 1), (2, "B", 2), (2, "R", 1)]

    def test_record_count(self, gadget6, tmp_path):
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        records = run_sweep(
            gadget6.graph, ["repbublik-plus", "rcn"], [0, 1, 2], cfg, [1, 2, 3],
            tmp_path / "s.csv",
        )
        per_algo = {}
        for r in records:
            per_algo[r.algorithm] = per_algo.get(r.algorithm, 0) + 1
        assert per_algo == {"repbublik-plus": 9, "rcn": 9}

    def test_gadget_fully_healed_at_universe_budget(self, gadget6, tmp_path):
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        records = run_sweep(
            gadget6.graph, ["repbublik-plus"], [3], cfg, [1], tmp_path / "s.csv"
        )
        assert records[0].pct_parochial == pytest.approx(1.0)

    def test_candidate_universe_by_enumeration(self, gadget6):
        from conftest import random_polarized

        rng = np.random.default_rng(23)
        cases = [(gadget6.graph, 6)] + [random_polarized(rng) for _ in range(24)]
        counts = []
        for graph, t in cases:
            part = classify(exact_br(graph, t), graph.colors, 2.0, t / 2)
            by_hand = sum(
                1
                for v in part.parochial.tolist()
                for w in range(graph.n)
                if graph.color_of(w) != graph.color_of(v) and not graph.has_edge(v, w)
            )
            assert candidate_universe(graph, part) == by_hand
            counts.append(by_hand)
        assert counts[0] == 3
        assert sum(c > 0 for c in counts) >= 20

    def test_byte_identical_reruns(self, gadget6, tmp_path):
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        for name in ("a.csv", "b.csv"):
            run_sweep(
                gadget6.graph, ["repbublik-plus", "pure-random", "rcn", "rwcn"],
                [1, 2], cfg, [5, 6], tmp_path / name,
            )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_failed_cell_marked_and_sweep_continues(self, gadget6, tmp_path):
        class DeliberatelyBroken(RepbublikError):
            pass

        def broken(graph, color, budget, cfg, backend="exact"):
            raise DeliberatelyBroken("deliberately broken")

        ALGORITHMS["broken"] = broken
        try:
            cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
            records = run_sweep(
                gadget6.graph, ["broken", "pure-random"], [1], cfg, [1],
                tmp_path / "s.csv",
            )
        finally:
            del ALGORITHMS["broken"]
        assert records[0].error is not None
        assert records[1].error is None
        text = (tmp_path / "s.csv").read_text()
        assert "ERROR" in text.splitlines()[1]

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_programming_error_propagates(self, error, gadget6, tmp_path, monkeypatch):
        def broken(graph, color, budget, cfg, backend="exact"):
            raise error("a bug, not a recordable failure")

        monkeypatch.setitem(ALGORITHMS, "broken", broken)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        with pytest.raises(error, match="a bug"):
            run_sweep(gadget6.graph, ["broken"], [1], cfg, [1], tmp_path / "s.csv")

    def test_delta_nondecreasing_in_k_for_greedy(self, tmp_path):
        g = generate_polarized(20, 20, 0.15, 0.01, seed=2)
        cfg = WalkConfig(t=8, theta_good=2.0, theta_bad=4.0, seed=3)
        records = run_sweep(
            g, ["repbublik", "repbublik-plus"], [1, 2, 4, 8], cfg, [7],
            tmp_path / "s.csv",
        )
        for algo in ("repbublik", "repbublik-plus"):
            deltas = [r.delta for r in records if r.algorithm == algo]
            assert deltas == sorted(deltas)

    def test_ascending_k_required(self, gadget6, tmp_path):
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        with pytest.raises(ValueError):
            run_sweep(gadget6.graph, ["rcn"], [4, 2], cfg, [1], tmp_path / "s.csv")

    def test_unregistered_algorithm_rejected(self, gadget6, tmp_path):
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        with pytest.raises(ValueError):
            run_sweep(gadget6.graph, ["nope"], [1], cfg, [1], tmp_path / "s.csv")


def _reference_sweep(graph, algorithms, k_values, cfg, seeds, out_path, backend):
    """The sweep as one independent cell per (algorithm, K, seed): every
    cell builds its plans at its own budget and applies them all to the
    input graph.  run_sweep must write the same bytes and records."""
    base_br = harness.br_table(graph, cfg, backend, cfg.seed)
    partition = classify(base_br, graph.colors, cfg.theta_good, cfg.theta_bad)
    y_red = harness.structural_bias(base_br, partition, "R")
    y_blue = harness.structural_bias(base_br, partition, "B")
    parochial = partition.parochial
    universe = candidate_universe(graph, partition)
    records = []
    with open(out_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for algo in algorithms:
            for k in k_values:
                for seed in seeds:
                    delta = healed = float("nan")
                    error = None
                    try:
                        k_red, k_blue = harness.budget_allocation(y_red, y_blue, k)
                        edges = []
                        for color, k_c in (("R", k_red), ("B", k_blue)):
                            if k_c > 0:
                                plan = ALGORITHMS[algo](
                                    graph, color, k_c, replace(cfg, seed=seed), backend=backend
                                )
                                edges.extend(plan.edges)
                        grown = harness.apply_plan(graph, edges)
                        new_br = harness.br_table(
                            grown, cfg, backend, derive_seed(seed, harness._TAG_EVAL)
                        )
                        if parochial.size:
                            left = classify(new_br, grown.colors, cfg.theta_good, cfg.theta_bad)
                            delta = float(np.mean(
                                base_br.values[parochial] - new_br.values[parochial]
                            ))
                            healed = (parochial.size - left.parochial.size) / parochial.size
                        else:
                            delta, healed = 0.0, 0.0
                    except RepbublikError as exc:
                        error = f"{type(exc).__name__}: {exc}"
                    record = ExperimentRecord(
                        algo, k, 100.0 * k / universe if universe else 0.0,
                        delta, healed, seed, 0.0, error,
                    )
                    records.append(record)
                    fh.write(record.csv_row() + "\n")
    return records


class _NoRedPlan(RepbublikError):
    pass


def _y_red_zero_graph():
    """Six red nodes, each linking to blue node 6 and to the next red node,
    and a 30-node blue chain leaking to red node 0.  At t=10, theta_bad=5 no
    red node is parochial and y_blue = 210.97213558013718, a sum for which
    the float quotient K * y_blue / y_blue lands above K = 83."""
    edges = []
    for v in range(6):
        edges += [(v, 6, 0.5), (v, (v + 1) % 6, 0.5)]
    for v in range(6, 35):
        edges += [(v, v + 1, 0.97), (v, 0, 0.03)]
    edges.append((35, 0, 1.0))
    return build_graph(["R"] * 6 + ["B"] * 30, edges)


class TestSweepOracle:
    """run_sweep builds one plan per (algorithm, seed, color) and grows each
    cell's graph from the previous budget's; the per-cell loop it replaced
    is the oracle, byte for byte."""

    K_VALUES = [0, 1, 2, 2, 3, 5, 9, 14]

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(509)
        return [random_polarized(rng, n_max=24, t_range=(4, 7)) for _ in range(12)]

    @staticmethod
    def _cfg(t, seed):
        return WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=seed)

    @staticmethod
    def _bias(graph, t):
        br = exact_br(graph, t)
        part = classify(br, graph.colors, 1.5, t / 2)
        return (harness.structural_bias(br, part, "R"), harness.structural_bias(br, part, "B"))

    def _assert_same(self, tmp_path, graph, algorithms, k_values, cfg, seeds, backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_sweep(
                graph, algorithms, k_values, cfg, seeds, tmp_path / "new.csv", backend=backend
            )
            expected = _reference_sweep(
                graph, algorithms, k_values, cfg, seeds, tmp_path / "old.csv", backend
            )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert [repr(r) for r in records] == [repr(r) for r in expected]  # NaN-safe
        return records

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_equals_per_cell_loop(self, tmp_path, backend):
        errors = rows = 0
        for gi, (graph, t) in enumerate(self._graphs()):
            records = self._assert_same(
                tmp_path, graph, sorted(ALGORITHMS), self.K_VALUES, self._cfg(t, gi),
                [gi, gi + 40], backend,
            )
            errors += sum(r.error is not None for r in records)
            rows += len(records)
        assert rows == 12 * 5 * len(self.K_VALUES) * 2 and errors < rows // 10

    def test_failing_build_fails_each_cell_of_its_color(self, tmp_path, monkeypatch, call_log):
        def red_fails(graph, color, budget, cfg, backend="exact"):
            call_log.note(cfg.seed, color, budget)
            if color == "R" and budget > 0:
                raise _NoRedPlan(f"no red plan for seed {cfg.seed}")
            return baseline_pure_random(graph, color, budget, cfg, backend=backend)

        monkeypatch.setitem(ALGORITHMS, "red-fails", red_fails)
        graph, t = self._graphs()[0]
        k_values, seeds, cfg = [0, 1, 2, 3, 4, 6, 12], [3, 4], self._cfg(t, 1)
        splits = [harness.budget_allocation(*self._bias(graph, t), k) for k in k_values]
        assert any(k_red == 0 < k_blue for k_red, k_blue in splits)
        records = self._assert_same(
            tmp_path, graph, ["red-fails", "pure-random"], k_values, cfg, seeds, "exact"
        )
        for r, (k_red, _) in zip(records, [s for s in splits for _ in seeds] * 2):
            if r.algorithm == "red-fails" and k_red > 0:
                assert r.error == f"_NoRedPlan: no red plan for seed {r.seed}"
            else:
                assert r.error is None
        # The sweep calls the entry once per (seed, color), at the top budget.
        call_log.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(graph, ["red-fails"], k_values, cfg, seeds, tmp_path / "again.csv")
        top = dict(zip("RB", np.max(splits, axis=0).tolist()))
        assert sorted(call_log.read()) == sorted((s, c, top[c]) for s in seeds for c in "RB")

    def test_split_never_applies_more_than_k_edges(self, tmp_path, monkeypatch):
        graph, cfg = _y_red_zero_graph(), WalkConfig(t=10, theta_good=2.0, seed=0)
        y_red, y_blue = self._bias(graph, 10)
        assert y_red == 0.0 and 83 * y_blue / y_blue > 83
        k_values, algorithms, seeds = [1, 82, 83, 84], sorted(ALGORITHMS), [0, 1]
        self._assert_same(tmp_path, graph, algorithms, k_values, cfg, seeds, "exact")
        # One process runs the chains one after another, each K by K and
        # within a K seed by seed, so its tables come in that order.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        original_table = harness.br_table
        gained = []  # the edges each table's graph has beyond the input graph

        def table_spy(grown, *args):
            gained.append(grown.edge_count - graph.edge_count)
            return original_table(grown, *args)

        monkeypatch.setattr(harness, "br_table", table_spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_sweep(graph, algorithms, k_values, cfg, seeds, tmp_path / "s.csv")
        rows = [
            (a * len(k_values) + i) * len(seeds) + j
            for a, positions in harness._chains(algorithms, seeds, "exact")
            for i in range(len(k_values))
            for j in positions
        ]
        # The input graph's table, then one per cell.
        assert len(gained) == 1 + len(records) and gained[0] == 0
        cells = [(records[row].budget, n) for row, n in zip(rows, gained[1:])]
        assert sorted(rows) == list(range(len(records)))
        assert all(r.error is None for r in records)
        assert all(n <= k for k, n in cells)
        assert max(n for k, n in cells if k == 83) == 83

    def test_rows_before_a_programming_error_are_flushed(self, tmp_path, monkeypatch):
        def broken(graph, color, budget, cfg, backend="exact"):
            raise RuntimeError("a bug, not a recordable failure")

        monkeypatch.setitem(ALGORITHMS, "broken", broken)
        graph, t = self._graphs()[1]
        cfg = self._cfg(t, 2)
        with pytest.raises(RuntimeError, match="a bug"):
            run_sweep(graph, ["rwcn", "broken"], [0, 1, 4], cfg, [0, 1], tmp_path / "new.csv")
        _reference_sweep(graph, ["rwcn"], [0, 1, 4], cfg, [0, 1], tmp_path / "old.csv", "exact")
        # Budget 0 builds no plan, so the two K=0 rows of `broken` succeed.
        new = (tmp_path / "new.csv").read_text().splitlines()
        assert new[:7] == (tmp_path / "old.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in new[7:]] == [["broken", "0"], ["broken", "0"]]

    def test_short_plan_warns_once_per_plan(self, tmp_path):
        # Three legal edges in all: every K above 3 asks for more, but each
        # seed's red plan is built once, at K = 8.
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        with pytest.warns(RuntimeWarning) as caught:
            records = run_sweep(
                gadget.graph, ["pure-random"], [1, 2, 4, 6, 8], cfg, [1, 2], tmp_path / "s.csv"
            )
        messages = [str(w.message) for w in caught]
        assert messages == ["only 3 of 8 insertions were possible for color R"] * 2
        assert all(r.error is None for r in records)

    def test_runtime_charges_each_build_to_its_cell(self, tmp_path, monkeypatch, call_log):
        graph, t = self._graphs()[2]

        def slow(graph, color, budget, cfg, backend="exact"):
            call_log.note(color, budget, cfg.seed)
            time.sleep(0.05)
            return baseline_pure_random(graph, color, budget, cfg, backend=backend)

        monkeypatch.setitem(ALGORITHMS, "slow", slow)
        k_values, seeds = [0, 1, 3, 6], [5, 6]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_sweep(
                graph, ["slow"], k_values, self._cfg(t, 0), seeds, tmp_path / "s.csv",
                measure_runtime=True,
            )
        # One build per (seed, color) with a positive budget, at the top
        # budget, inside the first cell that needs it.
        splits = [harness.budget_allocation(*self._bias(graph, t), k) for k in k_values]
        top = dict(zip("RB", np.max(splits, axis=0).tolist()))
        assert sorted(call_log.read()) == sorted((c, top[c], s) for s in seeds for c in "RB" if top[c])
        built = set()
        for r, split in zip(records, [s for s in splits for _ in seeds]):
            needs = {(r.seed, c) for c, k_c in zip("RB", split) if k_c} - built
            built |= needs
            assert r.runtime_ms >= 50.0 * len(needs)
            if not needs:
                assert r.runtime_ms < 50.0


class _WorkerFailure(RepbublikError):
    pass


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _descriptors():
    """This process's open file descriptors and what each one refers to."""
    out = {}
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(FileNotFoundError):  # the listing's own
            out[fd] = os.readlink(f"/proc/self/fd/{fd}")
    return out


class TestParallelSweep:
    """The chains of a sweep run in forked workers; every byte, record,
    warning and error equals the one-worker sweep's, and no child outlives
    the call.  The worker count is pinned through ``harness._usable_cpus``."""

    WORKERS = (1, 2, 3)

    @staticmethod
    def _sweep(monkeypatch, workers, tmp_path, graph, algorithms, k_values, cfg, seeds,
               backend="exact", action="always", measure_runtime=False):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
        out = tmp_path / f"w{workers}"
        out.mkdir(exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            records = run_sweep(
                graph, algorithms, k_values, cfg, seeds, out / "s.csv", backend=backend,
                measure_runtime=measure_runtime,
            )
        _no_child_left()
        if any(r.error is None for r in records):
            emit_plotdata(records, out / "plots")
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*.tsv"))}
        return {
            "csv": (out / "s.csv").read_bytes(),
            "records": [repr(r) for r in records],  # NaN-safe
            "plots": files,
            "warnings": [(w.category, str(w.message), w.filename) for w in caught],
        }

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_outputs_do_not_depend_on_the_worker_count(self, backend, tmp_path, monkeypatch):
        rng = np.random.default_rng(77)
        graph, t = random_polarized(rng, n_max=24, t_range=(5, 6))
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=3)

        def fails_for_seed_4(graph, color, budget, cfg, backend="exact"):
            if cfg.seed == 4:
                raise _WorkerFailure(f"no plan for seed {cfg.seed}")
            return baseline_pure_random(graph, color, budget, cfg, backend=backend)

        monkeypatch.setitem(ALGORITHMS, "fails-for-seed-4", fails_for_seed_4)
        # The largest budgets exhaust the pools, so the baselines warn.
        runs = [
            self._sweep(monkeypatch, w, tmp_path, graph, sorted(ALGORITHMS), [0, 1, 3, 40, 400],
                        cfg, [2, 4, 3, 2], backend)
            for w in self.WORKERS
        ]
        assert all(run == runs[0] for run in runs[1:])
        assert any("ERROR" in row for row in runs[0]["csv"].decode().splitlines())
        assert any("insertions were possible" in m for _, m, _ in runs[0]["warnings"])

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_measured_runtime_changes_no_other_column(self, backend, tmp_path, monkeypatch):
        rng = np.random.default_rng(77)
        graph, t = random_polarized(rng, n_max=24, t_range=(5, 6))
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=3)

        def fails_for_seed_4(graph, color, budget, cfg, backend="exact"):
            if cfg.seed == 4:
                raise _WorkerFailure(f"no plan for seed {cfg.seed}")
            return baseline_pure_random(graph, color, budget, cfg, backend=backend)

        monkeypatch.setitem(ALGORITHMS, "fails-for-seed-4", fails_for_seed_4)
        args = (graph, sorted(ALGORITHMS), [0, 1, 3, 40, 400], cfg, [2, 4, 3, 2], backend)
        expected = self._sweep(monkeypatch, 1, tmp_path, *args)
        unmeasured = re.compile(r"runtime_ms=[^,]*")
        for workers in self.WORKERS:
            run = self._sweep(monkeypatch, workers, tmp_path, *args, measure_runtime=True)
            rows = [row.split(",") for row in run.pop("csv").decode().splitlines()]
            assert rows[0] == CSV_HEADER.split(",") and rows[0][6] == "runtime_ms"
            assert [row[:6] for row in rows] == [
                row.split(",")[:6] for row in expected["csv"].decode().splitlines()
            ]
            assert all(float(row[6]) > 0.0 for row in rows[1:])
            records = [unmeasured.sub("runtime_ms=0.0", r) for r in run.pop("records")]
            assert records == expected["records"]
            assert run == {k: v for k, v in expected.items() if k in run}

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_short_plans_warn_red_then_blue(self, backend, tmp_path, monkeypatch):
        # No cross-color edge: every node is parochial, and blue, the larger
        # color, carries more bias, so K = 1 gives (0, 1) and each chain
        # reads blue's plan first.  K = 40 gives (17, 23), more than the 12
        # legal edges of either color.
        graph = generate_polarized(3, 4, 0.7, 0.0, seed=0)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        partition = classify(exact_br(graph, cfg.t), graph.colors, cfg.theta_good, cfg.theta_bad)
        y_red = harness.structural_bias(exact_br(graph, cfg.t), partition, "R")
        y_blue = harness.structural_bias(exact_br(graph, cfg.t), partition, "B")
        splits = [harness.budget_allocation(y_red, y_blue, k) for k in (1, 3, 40)]
        assert splits == [(0, 1), (1, 2), (17, 23)]
        short = "only {} of {} insertions were possible for color {}".format
        every = [short(12, 17, "R"), short(12, 23, "B")]
        # pure-random's chains at seeds 1 and 2; rcn's, which draw from one
        # source per color; then repbublik-plus's: one chain under the exact
        # backend, one per seed under Monte Carlo.
        messages = every * 2 + [short(4, 17, "R"), short(3, 23, "B")] * 2
        messages += every * (1 if backend == "exact" else 2)
        for workers in self.WORKERS:
            run = self._sweep(monkeypatch, workers, tmp_path, graph,
                              ["pure-random", "rcn", "repbublik-plus"], [1, 3, 40], cfg,
                              [1, 2], backend)
            assert run["warnings"] == [(RuntimeWarning, m, __file__) for m in messages]

    def test_a_failing_red_build_hides_no_short_blue_plan(self, tmp_path, monkeypatch):
        # Every cell that reads blue's plan reads red's, which fails, so the
        # sweep still builds blue's plan and reports it short.
        graph = generate_polarized(3, 4, 0.7, 0.0, seed=0)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)

        def red_fails(graph, color, budget, cfg, backend="exact"):
            if color == "R":
                raise _WorkerFailure(f"no red plan for seed {cfg.seed}")
            return baseline_pure_random(graph, color, budget, cfg, backend=backend)

        monkeypatch.setitem(ALGORITHMS, "red-fails", red_fails)
        message = "only 12 of 23 insertions were possible for color B"
        for workers in self.WORKERS:
            run = self._sweep(monkeypatch, workers, tmp_path, graph, ["red-fails"], [3, 40],
                              cfg, [1, 2])
            assert run["warnings"] == [(RuntimeWarning, message, __file__)] * 2
            assert all(r.endswith("error='_WorkerFailure: no red plan for seed 1')")
                       or r.endswith("error='_WorkerFailure: no red plan for seed 2')")
                       for r in run["records"])

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_short_plans_warn_alike(self, action, tmp_path, monkeypatch):
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        # Epsilon 0.9 cannot separate thresholds 0.5 apart.
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, epsilon=0.9, delta=0.2, seed=1)
        coarse = (
            "estimation epsilon=0.9 exceeds (theta_bad - theta_good)/2=0.5; "
            "estimated classifications may flip near the thresholds"
        )
        short = "only {} of 8 insertions were possible for color R".format
        for backend in ("exact", "mc"):
            runs = [
                self._sweep(monkeypatch, w, tmp_path, gadget.graph,
                            ["pure-random", "rcn", "repbublik-plus"], [1, 2, 4, 8], cfg,
                            [1, 2, 3], backend, action)
                for w in self.WORKERS
            ]
            assert all(run == runs[0] for run in runs[1:])
            # The chains' short plans in chain order: pure-random's three
            # seeds, rcn's, which samples from a pool of one, then
            # repbublik-plus's, one chain under the exact backend.  Under
            # the Monte Carlo backend the coarse epsilon warns once first.
            # The default action shows each message once.
            messages = [short(n) for n in (3, 3, 3, 1, 1, 1)]
            messages += [short(3)] * (1 if backend == "exact" else 3)
            if backend == "mc":
                messages.insert(0, coarse)
            if action == "default":
                messages = list(dict.fromkeys(messages))
            # Each names the caller of run_sweep.
            assert runs[0]["warnings"] == [(RuntimeWarning, m, __file__) for m in messages]

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    def test_warnings_are_those_of_the_chains_one_after_another(
        self, backend, tmp_path, monkeypatch
    ):
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        algorithms, k_values, seeds = ["pure-random", "rcn"], [1, 2, 4, 8], [1, 2, 3]
        # Each (algorithm, seed) chain swept on its own, in chain order.
        alone = [
            shown
            for algo in algorithms
            for seed in seeds
            for shown in self._sweep(monkeypatch, 1, tmp_path, gadget.graph, [algo],
                                     k_values, cfg, [seed], backend)["warnings"]
        ]
        assert len(alone) == 6
        for workers in self.WORKERS:
            run = self._sweep(monkeypatch, workers, tmp_path, gadget.graph, algorithms,
                              k_values, cfg, seeds, backend)
            assert run["warnings"] == alone

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_a_worker_error_propagates_after_the_same_rows(
        self, error, tmp_path, monkeypatch, call_log
    ):
        rng = np.random.default_rng(78)
        graph, t = random_polarized(rng, n_max=24, t_range=(5, 6))
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=3)
        parent = os.getpid()

        def broken(graph, color, budget, cfg, backend="exact"):
            call_log.note(os.getpid() != parent)
            raise error(f"a bug for seed {cfg.seed}")

        monkeypatch.setitem(ALGORITHMS, "broken", broken)
        written = []
        for workers in self.WORKERS:
            monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
            call_log.clear()
            path = tmp_path / f"w{workers}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(error) as caught:
                    run_sweep(graph, ["pure-random", "broken", "rcn"], [0, 1, 3], cfg, [0, 1, 2],
                              path, backend="mc")
            _no_child_left()
            # The first failing cell in row order: K = 1 of seed 0.
            assert type(caught.value) is error and str(caught.value) == "a bug for seed 0"
            if workers > 1:
                assert (True,) in call_log.read()  # a worker raised it
            written.append(path.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]
        rows = written[0].decode().splitlines()
        assert [row.split(",")[:2] for row in rows[10:]] == [["broken", "0"]] * 3

    def test_no_child_outlives_the_sweep(self, tmp_path, monkeypatch):
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)

        def recorded(graph, color, budget, cfg, backend="exact"):
            raise _WorkerFailure("recorded")

        def interrupted(graph, color, budget, cfg, backend="exact"):
            raise KeyboardInterrupt

        monkeypatch.setitem(ALGORITHMS, "recorded", recorded)
        monkeypatch.setitem(ALGORITHMS, "interrupted", interrupted)
        args = ([1, 2], cfg, [1, 2, 3], tmp_path / "s.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_sweep(gadget.graph, ["rcn", "recorded"], *args, backend="mc")
            assert [r.error is None for r in records] == [True] * 6 + [False] * 6
            _no_child_left()
            with pytest.raises(KeyboardInterrupt):
                run_sweep(gadget.graph, ["rcn", "interrupted"], *args, backend="mc")
            _no_child_left()

    def test_ignored_sigchld_leaves_the_sweep_alike(self, tmp_path, monkeypatch):
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        args = (gadget.graph, ["pure-random", "rcn"], [1, 2, 4], cfg, [1, 2, 3])
        expected = self._sweep(monkeypatch, 1, tmp_path, *args)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert self._sweep(monkeypatch, 3, tmp_path, *args) == expected
        finally:
            signal.signal(signal.SIGCHLD, previous)

    def test_each_plan_is_built_once(self, tmp_path, monkeypatch, call_log):
        # Each chain builds its plans in the process whose stripe holds it,
        # and no chain a worker sent back runs again here.
        rng = np.random.default_rng(80)
        graph, t = random_polarized(rng, n_max=24, t_range=(5, 6))
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=3)

        def logged(name):
            def build(graph, color, budget, cfg, backend="exact"):
                call_log.note(name, cfg.seed, color)
                return baseline_pure_random(graph, color, budget, cfg, backend=backend)
            return build

        for name in ("a", "b"):
            monkeypatch.setitem(ALGORITHMS, name, logged(name))
        seeds = [0, 1, 2, 3, 4]
        plans = sorted((a, s, c) for a in "ab" for s in seeds for c in "RB")
        for workers in self.WORKERS:
            call_log.clear()
            self._sweep(monkeypatch, workers, tmp_path, graph, ["a", "b"], [1, 3, 6], cfg, seeds)
            assert sorted(call_log.read()) == plans

    @pytest.mark.parametrize("confined", ["one-cpu", "darwin"])
    def test_one_worker_forks_nothing(self, confined, tmp_path, monkeypatch):
        gadget = generate_gadget(3, [[0, 1], [1, 2], [2]], 6)
        cfg = WalkConfig(t=6, theta_good=2.0, theta_bad=3.0, seed=1)
        args = (gadget.graph, ["pure-random", "rcn"], [1, 2, 4], cfg, [1, 2, 3])
        expected = self._sweep(monkeypatch, 3, tmp_path, *args)

        def fork():
            raise AssertionError("a one-worker sweep forked")

        monkeypatch.setattr(harness, "_fork", fork)
        workers = 1
        if confined == "darwin":
            monkeypatch.setattr(sys, "platform", "darwin")
            workers = 3
        assert self._sweep(monkeypatch, workers, tmp_path, *args) == expected

    def test_a_chain_whose_worker_dies_runs_here(self, tmp_path, monkeypatch, call_log):
        rng = np.random.default_rng(79)
        graph, t = random_polarized(rng, n_max=24, t_range=(5, 6))
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=3)
        parent = os.getpid()

        def dies_in_a_worker(graph, color, budget, cfg, backend="exact"):
            if os.getpid() != parent:
                call_log.note("died")
                os._exit(3)
            return baseline_pure_random(graph, color, budget, cfg, backend=backend)

        monkeypatch.setitem(ALGORITHMS, "dies", dies_in_a_worker)
        runs = []
        for workers in self.WORKERS:
            call_log.clear()
            runs.append(self._sweep(monkeypatch, workers, tmp_path, graph, ["dies", "pure-random"],
                                    [1, 3], cfg, [0, 1, 2, 3], "mc"))
            assert bool(call_log.read()) == (workers > 1)
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("fails, at", [("fork", 1), ("fork", 2), ("pipe", 2)])
    def test_a_stripe_whose_fork_fails_runs_here(self, fails, at, tmp_path, monkeypatch):
        # A process, memory or descriptor limit ends the forking, not the
        # sweep: the stripes no child took run in this process.
        rng = np.random.default_rng(79)
        graph, t = random_polarized(rng, n_max=24, t_range=(5, 6))
        cfg = WalkConfig(t=t, theta_good=1.5, theta_bad=t / 2, epsilon=0.9, delta=0.5, seed=3)
        args = (graph, ["pure-random", "rcn"], [1, 3], cfg, [0, 1, 2], "mc")
        expected = self._sweep(monkeypatch, 1, tmp_path, *args)
        calls = []

        def failing(original, exc):
            def call(*a, **kw):
                calls.append(None)
                if len(calls) == at:
                    raise exc
                return original(*a, **kw)
            return call

        if fails == "fork":
            limit = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            monkeypatch.setattr(harness, "_fork", failing(harness._fork, limit))
        else:
            limit = OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            monkeypatch.setattr(multiprocessing.connection, "Pipe",
                                failing(multiprocessing.connection.Pipe, limit))
        descriptors = _descriptors()
        for workers in (3, 4):
            calls.clear()
            assert self._sweep(monkeypatch, workers, tmp_path, *args) == expected
            assert len(calls) == at
            assert _descriptors() == descriptors

    def test_fork_drops_only_the_multithreaded_fork_warning(self, monkeypatch):
        # os.fork stands in for CPython 3.12+'s, which warns when other OS
        # threads run, so the filter is checked on any version.
        def fork():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child.",
                DeprecationWarning, stacklevel=2,
            )
            warnings.warn("an unrelated warning", UserWarning, stacklevel=2)
            return 4242

        shown = []
        warnings.simplefilter("default")
        monkeypatch.setattr(warnings, "showwarning", lambda *args: shown.append(args[:4]))
        _warn_once()
        [(message, category, _, lineno)] = shown
        registry = globals()["__warningregistry__"]
        assert registry[(str(message), category, lineno)]
        filters = list(warnings.filters)
        monkeypatch.setattr(os, "fork", fork)
        assert harness._fork() == 4242
        assert [(str(m), c) for m, c, *_ in shown[1:]] == [("an unrelated warning", UserWarning)]
        assert warnings.filters == filters
        # The entry made before the fork survives, so the warning is not
        # shown again.
        _warn_once()
        assert registry[(str(message), category, lineno)] and len(shown) == 2


def _warn_once():
    warnings.warn("shown once per location", UserWarning)


class TestEmitPlotdata:
    def _records(self):
        return [
            ExperimentRecord("rcn", 1, 0.5, 1.0, 0.2, seed=1, runtime_ms=0.0),
            ExperimentRecord("rcn", 1, 0.5, 3.0, 0.4, seed=2, runtime_ms=0.0),
            ExperimentRecord("rcn", 4, 2.0, 5.0, 0.6, seed=1, runtime_ms=0.0),
        ]

    def test_single_record_stddev_zero(self, tmp_path):
        files = emit_plotdata(self._records(), tmp_path)
        delta = (tmp_path / "delta_rcn.tsv").read_text().splitlines()
        assert delta[0] == "pct_candidate\tmean\tstddev"
        assert delta[1].split("\t") == ["0.5", "2", "1"]
        assert delta[2].split("\t") == ["2", "5", "0"]
        assert len(files) == 2

    def test_rows_sorted_by_pct_candidate(self, tmp_path):
        emit_plotdata(self._records(), tmp_path)
        rows = (tmp_path / "pct_parochial_rcn.tsv").read_text().splitlines()[1:]
        xs = [float(r.split("\t")[0]) for r in rows]
        assert xs == sorted(xs)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(EmptyRecords):
            emit_plotdata([], tmp_path)


def test_default_k_values_follow_protocol():
    assert default_k_values(10) == [1, 2, 4, 6, 8, 10]
    assert default_k_values(400, universe=5) == [1, 2, 4]
    assert default_k_values(0) == []
    with pytest.raises(ThresholdOrder, match="k_max must be >= 0, got -3"):
        default_k_values(-3)
