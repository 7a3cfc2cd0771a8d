"""The benchmark's workloads: inputs made from a seed, a timed op sequence,
and a check of every output.

Each op is one call the user would make: the sweep through the public API,
every other op through the in-process CLI (``repbublik.cli.main``) writing to
an ``--output`` file.  See ``NOTES.md`` for why each workload exists.
"""
from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repbublik.cli
import repbublik.harness
from repbublik import (
    EdgeInsertion,
    InsertionPlan,
    WalkConfig,
    exact_br,
    generate_polarized,
)
from repbublik.harness import CSV_HEADER

from sampler import sample_polarized, write_tsv

T, THETA_GOOD, THETA_BAD = 10, 2.0, 5.0
EPSILON = 0.5  # the CLI's default accuracy, used by `br --backend mc`

# Criterion-6 figure protocol on one acceptance-size graph.
SWEEP_ALGOS = ["repbublik-plus", "pure-random", "rcn", "rwcn"]
K_LIST = [1, 2, 4, 8, 16, 32, 64, 128, 256, 365, 512]
REP_SEEDS = [0, 1, 2, 3, 4]
SWEEP_CELLS = len(SWEEP_ALGOS) * len(K_LIST) * len(REP_SEEDS)

SPARSE_N, SPARSE_DEGREE, SPARSE_P_CROSS = 100_000, 5, 0.15

SWEEP_SHA256 = json.loads(Path(__file__).with_name("sweep_sha256.json").read_text())


@dataclass(frozen=True)
class Op:
    """One timed call that counts as ``size`` ops.

    ``check(path, result)`` returns how many of them failed.
    """

    metric: str
    output: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], int]
    size: int = 1
    span: str | None = None


def cli_op(metric: str, output: str, argv: list[str],
           check: Callable[[Path], bool]) -> Op:
    """A CLI verb is one op; it fails on a non-zero exit or a bad output."""

    def run(path: Path) -> int:
        return repbublik.cli.main([*argv, "--output", str(path)])

    def checked(path: Path, code: int) -> int:
        return int(code != 0 or not check(path))

    return Op(metric, output, run, checked, span=f"cli.{argv[0]}")


def check_plan(graph, color: str, k: int) -> Callable[[Path], bool]:
    def check(path: Path) -> bool:
        rows = path.read_text().splitlines()
        if rows[0] != "src\tdst\tweight":
            return False
        edges = []
        for row in rows[1:]:
            src, dst, weight = row.split("\t")
            edges.append(EdgeInsertion(int(src), int(dst), float(weight)))
        InsertionPlan(edges=tuple(edges), color=color).validate_against(graph)
        return len(edges) == k

    return check


def read_br(path: Path, n: int) -> np.ndarray | None:
    """BR column of a `br` output, or None unless it lists nodes 0..n-1 in order."""
    table = np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)
    if table.shape != (n, 2) or not np.array_equal(table[:, 0], np.arange(n)):
        return None
    return table[:, 1]


def check_br_range(n: int) -> Callable[[Path], bool]:
    def check(path: Path) -> bool:
        values = read_br(path, n)
        return values is not None and bool(((values >= 1) & (values <= T)).all())

    return check


def write_graph(prefix: Path, graph) -> tuple[Path, Path]:
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return write_tsv(prefix, graph.colors, src, graph.targets, graph.weights)


class Workload:
    name: str

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def common_args(self) -> list[str]:
        return [
            "--edges", str(self.edges), "--colors", str(self.colors),
            "--t", str(T), "--theta-good", str(THETA_GOOD),
            "--theta-bad", str(THETA_BAD), "--seed", str(self.seed),
        ]


class DeskWorkload(Workload):
    """One acceptance-figure graph, kept in memory and written as TSV."""

    def setup(self) -> None:
        self.graph = generate_polarized(200, 200, 0.02, 0.002, seed=self.seed)
        self.edges, self.colors = write_graph(self.work / "desk", self.graph)


class DeskSweep(DeskWorkload):
    name = "desk-sweep"

    def config(self) -> WalkConfig:
        return WalkConfig(t=T, theta_good=THETA_GOOD, theta_bad=THETA_BAD, seed=self.seed)

    def ops(self) -> list[Op]:
        recommend = ["recommend", *self.common_args(), "--color", "R"]
        return [
            Op("sweep_s", "sweep.csv", self.sweep,
               self.check_sweep, size=SWEEP_CELLS),
            cli_op("recommend_plus_s", "recommend_plus.tsv",
                   [*recommend, "-k", "512", "--algorithm", "repbublik-plus"],
                   check_plan(self.graph, "R", 512)),
            cli_op("recommend_greedy_s", "recommend_greedy.tsv",
                   [*recommend, "-k", "32", "--algorithm", "repbublik"],
                   check_plan(self.graph, "R", 32)),
        ]

    def sweep(self, path: Path):
        with warnings.catch_warnings():
            # Baselines warn when a pool runs out of legal targets.
            warnings.simplefilter("ignore", RuntimeWarning)
            return repbublik.harness.run_sweep(
                self.graph, SWEEP_ALGOS, K_LIST, self.config(), REP_SEEDS, path,
                backend="exact",
            )

    def check_sweep(self, path: Path, records) -> int:
        """Each cell is an op and fails if it recorded an error.  On a seed
        with a recorded digest the CSV must match it byte for byte; on any
        other seed every row must carry a healed share in [0, 1]."""
        data = path.read_bytes()
        expected = SWEEP_SHA256.get(str(self.seed))
        if expected is not None:
            if hashlib.sha256(data).hexdigest() != expected:
                return SWEEP_CELLS
            return sum(r.error is not None for r in records)
        lines = data.decode().splitlines()
        if lines[0] != CSV_HEADER or len(lines) != SWEEP_CELLS + 1:
            return SWEEP_CELLS
        return sum(
            r.error is not None or not 0.0 <= float(line.split(",")[4]) <= 1.0
            for r, line in zip(records, lines[1:])
        )


class DeskMC(DeskWorkload):
    name = "desk-mc"

    def ops(self) -> list[Op]:
        mc = [*self.common_args(), "--backend", "mc"]
        return [
            cli_op("br_s", "br_mc.tsv", ["br", *mc], self.check_br_mc),
            cli_op("recommend_plus_s", "recommend_plus_mc.tsv",
                   ["recommend", *mc, "--color", "R", "-k", "16",
                    "--algorithm", "repbublik-plus", "--epsilon", "0.9",
                    "--delta", "0.2"],
                   check_plan(self.graph, "R", 16)),
        ]

    def check_br_mc(self, path: Path) -> bool:
        """Every estimate lies within epsilon of the exact oracle."""
        values = read_br(path, self.graph.n)
        oracle = exact_br(self.graph, T).values
        return values is not None and bool((np.abs(values - oracle) <= EPSILON).all())


class SparseCLI(Workload):
    name = "sparse-cli"

    def setup(self) -> None:
        colors, src, dst = sample_polarized(
            SPARSE_N, SPARSE_DEGREE, SPARSE_P_CROSS, self.seed
        )
        weights = np.full(src.size, 1.0 / SPARSE_DEGREE)
        self.edges, self.colors = write_tsv(self.work / "sparse", colors, src, dst, weights)
        red = colors == "R"
        self.expected_stats = {
            "n_red": int(red.sum()),
            "n_blue": int((~red).sum()),
            "edges_red_to_blue": int((red[src] & ~red[dst]).sum()),
            "edges_blue_to_red": int((~red[src] & red[dst]).sum()),
            "edge_count": int(src.size),
        }

    def ops(self) -> list[Op]:
        return [
            cli_op("stats_s", "stats.tsv", ["stats", *self.common_args()],
                   self.check_stats),
            cli_op("br_s", "br.tsv", ["br", *self.common_args()],
                   check_br_range(SPARSE_N)),
        ]

    def check_stats(self, path: Path) -> bool:
        rows = dict(line.split("\t") for line in path.read_text().splitlines()[1:])
        counts_ok = all(int(rows[k]) == v for k, v in self.expected_stats.items())
        shares = [float(rows[k]) for k in ("pct_parochial_red", "pct_parochial_blue")]
        return counts_ok and all(0.0 <= s <= 100.0 for s in shares)


WORKLOADS = {w.name: w for w in (DeskSweep, SparseCLI, DeskMC)}
