"""Cosmopolitan/parochial classification, structural bias, budgets."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ThresholdOrder, UnknownColor, UnknownName
from .exact import BrTable, exact_br, parochial_nodes
from .graph import (
    BLUE,
    RED,
    ColoredGraph,
    WalkConfig,
    check_count,
    check_thresholds,
)
from .montecarlo import estimate_br


def br_table(graph: ColoredGraph, cfg: WalkConfig, backend: str, seed: int) -> BrTable:
    """Bubble Radius table for one config, exact or estimated; an estimate
    walks on the stream ``seed``, which callers derive per request."""
    if backend == "exact":
        return exact_br(graph, cfg.t)
    if backend == "mc":
        return estimate_br(graph, cfg.t, cfg.epsilon, cfg.delta, seed)
    raise UnknownName(f"unknown backend {backend!r}")


@dataclass(frozen=True, eq=False)
class BiasPartition:
    """Cosmopolitan and per-color parochial nodes for one threshold pair,
    each a sorted, read-only int64 array.

    The two groups are disjoint but need not cover all nodes: anything with
    a Bubble Radius strictly between the thresholds belongs to neither.
    """

    cosmopolitan: np.ndarray
    parochial_red: np.ndarray
    parochial_blue: np.ndarray

    def __post_init__(self):
        for arr in (self.cosmopolitan, self.parochial_red, self.parochial_blue):
            arr.setflags(write=False)

    @property
    def parochial(self) -> np.ndarray:
        return np.union1d(self.parochial_red, self.parochial_blue)

    def parochial_of(self, color: str) -> np.ndarray:
        if color == RED:
            return self.parochial_red
        if color == BLUE:
            return self.parochial_blue
        raise UnknownColor(f"unknown color {color!r}")


def classify(
    br: BrTable,
    colors: np.ndarray | Sequence[str],
    theta_good: float,
    theta_bad: float,
) -> BiasPartition:
    """Split nodes by Bubble Radius; both threshold boundaries are inclusive."""
    check_thresholds(theta_good, theta_bad, br.t)
    colors = np.asarray(colors)
    return BiasPartition(
        cosmopolitan=np.flatnonzero(br.values <= theta_good),
        parochial_red=parochial_nodes(colors, br, RED, theta_bad),
        parochial_blue=parochial_nodes(colors, br, BLUE, theta_bad),
    )


def structural_bias(
    br: BrTable, partition: BiasPartition, color: str | None = None
) -> float:
    """Sum of the Bubble Radii of the parochial nodes (optionally one color)."""
    nodes = partition.parochial if color is None else partition.parochial_of(color)
    return float(br.values[nodes].sum())


def warn_if_estimate_too_coarse(cfg: WalkConfig, backend: str) -> None:
    """Advise when Monte Carlo estimates cannot separate the thresholds.

    Classification from an estimated table uses the point estimate with no
    hysteresis band, so epsilon should be at most (theta_bad - theta_good)/2.
    Code that classifies estimates calls this once, before its first table;
    the warning names that code's caller.
    """
    limit = (cfg.theta_bad - cfg.theta_good) / 2.0
    if backend == "mc" and cfg.epsilon > limit:
        warnings.warn(
            f"estimation epsilon={cfg.epsilon} exceeds (theta_bad - theta_good)/2"
            f"={limit}; estimated classifications may flip near the thresholds",
            RuntimeWarning,
            stacklevel=3,
        )


def budget_allocation(y_red: float, y_blue: float, total: int) -> tuple[int, int]:
    """Split a budget between the colors proportionally to their bias sums.

    Returns ``(k_red, k_blue)`` with ``k_blue = ceil(total * Y_B / (Y_B + Y_R))``,
    at most ``total`` (the float quotient can round above it), and ``k_red``
    the remainder.  When neither color carries bias the split is even, and
    blue gets the ceiling.
    """
    check_count("budget", total, 0)
    if min(y_red, y_blue) < 0:
        raise ThresholdOrder("bias sums must be non-negative")
    if total == 0:
        return 0, 0
    if y_red + y_blue == 0:
        k_blue = math.ceil(total / 2)
    else:
        k_blue = min(total, math.ceil(total * y_blue / (y_blue + y_red)))
    return total - k_blue, k_blue
