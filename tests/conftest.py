"""Shared fixtures: canonical graphs, random-instance helpers and the
fresh interpreters that run the CLI."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

import repbublik
from repbublik import ColoredGraph, build_graph, generate_polarized, write_dataset

# A child interpreter runs in a temporary directory, so the package's own
# source directory goes on its path first.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(Path(repbublik.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
))


def child(
    script: str, argv: Sequence[str] = (), cwd=None, **env: str
) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter, with ``argv`` as its arguments,
    in ``cwd``, and with ``env`` added to ``ENV``; it must exit 0.  Its
    stdout and stderr are bytes."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=cwd, env=dict(ENV, **env),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.fixture
def g1() -> ColoredGraph:
    """Minimal legal graph: one red and one blue node swapping forever."""
    return build_graph(["R", "B"], [(0, 1, 1.0), (1, 0, 1.0)])


@pytest.fixture
def g2() -> ColoredGraph:
    """Red cycle a->b->c with c splitting half to a, half to blue x; x->a.

    Node ids: a=0, b=1, c=2, x=3.  At t=4: BR = (3.5, 3.0, 2.5, 1.0).
    """
    return build_graph(
        ["R", "R", "R", "B"],
        [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5), (2, 3, 0.5), (3, 0, 1.0)],
    )


@pytest.fixture
def all_red_cycle() -> ColoredGraph:
    return build_graph(
        ["R", "R", "R"], [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
    )


@pytest.fixture
def red_two_cycle() -> ColoredGraph:
    return build_graph(["R", "R"], [(0, 1, 1.0), (1, 0, 1.0)])


@pytest.fixture(scope="session")
def desk_tsv(tmp_path_factory) -> tuple[Path, Path]:
    """The seed-0 desk graph's edge and color TSVs, as ``gen-polarized``
    writes them: 200 red and 200 blue nodes, p_within 0.02, p_cross 0.002."""
    where = tmp_path_factory.mktemp("desk")
    edges, colors = where / "desk.edges.tsv", where / "desk.colors.tsv"
    write_dataset(generate_polarized(200, 200, 0.02, 0.002, seed=0), edges, colors)
    return edges, colors


def random_polarized(rng: np.random.Generator, n_max: int = 40,
                     t_range: tuple[int, int] = (5, 10)) -> tuple[ColoredGraph, int]:
    """A random two-community instance plus a horizon, for property loops."""
    n_red = int(rng.integers(3, max(4, n_max // 2)))
    n_blue = int(rng.integers(3, max(4, n_max // 2)))
    p_within = float(rng.uniform(0.1, 0.4))
    p_cross = float(rng.uniform(0.0, p_within * 0.3))
    graph = generate_polarized(
        n_red, n_blue, p_within, p_cross, seed=int(rng.integers(2**32))
    )
    t = int(rng.integers(t_range[0], t_range[1] + 1))
    return graph, t


@st.composite
def graph_strategy(draw, max_n: int = 10):
    """Small legal colored graphs with both colors present."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    n_red = draw(st.integers(min_value=1, max_value=n - 1))
    colors = ["R"] * n_red + ["B"] * (n - n_red)
    edges = []
    for v in range(n):
        others = [u for u in range(n) if u != v]
        deg = draw(st.integers(min_value=1, max_value=min(3, len(others))))
        targets = draw(
            st.lists(
                st.sampled_from(others), min_size=deg, max_size=deg, unique=True
            )
        )
        raw = draw(
            st.lists(
                st.integers(min_value=1, max_value=9), min_size=deg, max_size=deg
            )
        )
        total = sum(raw)
        edges.extend((v, u, w / total) for u, w in zip(targets, raw))
    return build_graph(colors, edges)


class CallLog:
    """Notes that every process of a sweep appends to one file, so a test
    reads the notes of forked sweep workers as well as its own.  Each note
    is a tuple of literals, written as one line."""

    def __init__(self, path: Path):
        self.path = path
        self.clear()

    def note(self, *item) -> None:
        with open(self.path, "a") as fh:
            fh.write(repr(item) + "\n")

    def read(self) -> list[tuple]:
        return [ast.literal_eval(line) for line in self.path.read_text().splitlines()]

    def clear(self) -> None:
        self.path.write_text("")


@pytest.fixture
def call_log(tmp_path) -> CallLog:
    return CallLog(tmp_path / "calls.log")
