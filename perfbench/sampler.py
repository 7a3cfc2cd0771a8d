"""Seeded O(m) polarized sampler with fixed out-degree, and a TSV writer.

``generate_polarized`` in the package draws an n x n probability matrix, so
it cannot build the 100k-node graphs the ingest workload needs.  This
sampler gives every node exactly ``out_degree`` distinct out-neighbors: each
slot picks the other color with probability ``p_cross`` and a uniform node of
the chosen color otherwise, redrawing self-loops and repeats.  Weights are
uniform, so every row is stochastic.  The same seed yields the same arrays
and therefore the same file bytes.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def sample_polarized(
    n: int, out_degree: int, p_cross: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(colors, src, dst)``; nodes ``0..n//2-1`` are red, the rest blue.

    ``src`` is sorted and holds each node ``out_degree`` times; ``dst`` holds
    distinct targets per row, none equal to the source.
    """
    n_red = n // 2
    n_blue = n - n_red
    if min(n_red, n_blue) <= out_degree:
        raise ValueError("each color needs more than out_degree nodes")
    if not 0.0 <= p_cross <= 1.0:
        raise ValueError(f"p_cross must lie in [0, 1], got {p_cross}")
    rng = np.random.default_rng(seed)
    nodes = np.arange(n, dtype=np.int64)
    red = nodes < n_red
    cross = rng.random((n, out_degree)) < p_cross
    to_red = red[:, None] ^ cross
    base = np.where(to_red, 0, n_red)
    size = np.where(to_red, n_red, n_blue)

    dst = np.empty((n, out_degree), dtype=np.int64)
    redraw = np.ones((n, out_degree), dtype=bool)
    while redraw.any():
        rows, cols = np.nonzero(redraw)
        dst[rows, cols] = base[rows, cols] + rng.integers(0, size[rows, cols])
        redraw = dst == nodes[:, None]
        for j in range(1, out_degree):
            redraw[:, j] |= (dst[:, :j] == dst[:, j : j + 1]).any(axis=1)

    colors = np.where(red, "R", "B")
    src = np.repeat(nodes, out_degree)
    return colors, src, dst.ravel()


def write_tsv(
    prefix: Path, colors: np.ndarray, src: np.ndarray, dst: np.ndarray,
    weights: np.ndarray,
) -> tuple[Path, Path]:
    """Write ``prefix.edges.tsv`` and ``prefix.colors.tsv`` in the CLI formats.

    Weights use ``repr`` so they read back bit for bit.
    """
    edge_path = Path(f"{prefix}.edges.tsv")
    color_path = Path(f"{prefix}.colors.tsv")
    edge_path.write_text(
        "".join(
            f"{s}\t{d}\t{w!r}\n"
            for s, d, w in zip(src.tolist(), dst.tolist(), weights.tolist())
        )
    )
    color_path.write_text(
        "".join(f"{v}\t{c}\n" for v, c in enumerate(colors.tolist()))
    )
    return edge_path, color_path
