"""Tests for the benchmark's sparse sampler and TSV writer.

    python3 -m pytest perfbench/test_sampler.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from sampler import sample_polarized, write_tsv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import repbublik  # noqa: E402

N, DEGREE, P_CROSS = 2_000, 5, 0.15


def _write(tmp_path: Path, name: str, seed: int) -> tuple[bytes, bytes]:
    colors, src, dst = sample_polarized(N, DEGREE, P_CROSS, seed)
    edges, color_file = write_tsv(
        tmp_path / name, colors, src, dst, np.full(src.size, 1.0 / DEGREE)
    )
    return edges.read_bytes(), color_file.read_bytes()


def test_same_seed_gives_identical_bytes(tmp_path):
    assert _write(tmp_path, "a", 7) == _write(tmp_path, "b", 7)
    assert _write(tmp_path, "c", 8) != _write(tmp_path, "a", 7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_are_simple_and_both_colors_present(seed):
    colors, src, dst = sample_polarized(N, DEGREE, P_CROSS, seed)
    assert set(colors.tolist()) == {"R", "B"}
    assert np.array_equal(np.bincount(src, minlength=N), np.full(N, DEGREE))
    assert not (src == dst).any()
    rows = dst.reshape(N, DEGREE)
    assert all(len(set(row)) == DEGREE for row in rows.tolist())
    assert ((dst >= 0) & (dst < N)).all()


def test_cross_share_follows_p_cross():
    colors, src, dst = sample_polarized(20_000, DEGREE, P_CROSS, 3)
    cross = (colors[src] != colors[dst]).mean()
    assert abs(cross - P_CROSS) < 0.01


def test_files_load_as_a_valid_graph(tmp_path):
    _write(tmp_path, "g", 5)
    loaded = repbublik.load_dataset(tmp_path / "g.edges.tsv", tmp_path / "g.colors.tsv")
    assert loaded.graph.n == N
    assert loaded.graph.edge_count == N * DEGREE
    assert np.array_equal(np.diff(loaded.graph.indptr), np.full(N, DEGREE))
