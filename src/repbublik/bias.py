"""Cosmopolitan/parochial classification, structural bias, gain, budgets."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BothColorsUnbiased, UnknownColor
from .exact import BrTable, _gain, exact_br, exact_gain, parochial_nodes
from .graph import (
    BLUE,
    RED,
    ColoredGraph,
    EdgeInsertion,
    InsertionPlan,
    WalkConfig,
    check_count,
    check_thresholds,
)
from .montecarlo import estimate_br


def br_table(
    graph: ColoredGraph, cfg: WalkConfig, backend: str = "exact",
    seed: int | None = None,
) -> BrTable:
    """Bubble Radius table for one config, exact or estimated."""
    if backend == "exact":
        return exact_br(graph, cfg.t)
    if backend == "mc":
        warn_if_estimate_too_coarse(cfg)
        return estimate_br(
            graph, cfg.t, cfg.epsilon, cfg.delta,
            cfg.seed if seed is None else seed,
        )
    raise ValueError(f"unknown backend {backend!r}")


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
    theta_good: float
    theta_bad: float

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
        theta_good=float(theta_good),
        theta_bad=float(theta_bad),
    )


def structural_bias(
    br: BrTable, partition: BiasPartition, color: str | None = None
) -> float:
    """Sum of the Bubble Radii of the parochial nodes (optionally one color)."""
    nodes = partition.parochial if color is None else partition.parochial_of(color)
    return float(br.values[nodes].sum())


def gain(
    graph: ColoredGraph,
    nodes: Iterable[int],
    plan: InsertionPlan | Sequence[EdgeInsertion],
    t: int,
    backend: str = "exact",
    cfg: WalkConfig | None = None,
) -> float:
    """Mean Bubble Radius drop over ``nodes`` due to ``plan``.

    The Monte Carlo backend estimates the before/after tables with the same
    seed, so walk noise largely cancels in the difference.
    """
    if backend == "exact":
        return exact_gain(graph, nodes, plan, t)
    if backend != "mc":
        raise ValueError(f"unknown backend {backend!r}")
    if cfg is None:
        raise ValueError("the mc backend needs a WalkConfig for epsilon/delta/seed")
    return _gain(
        graph, nodes, plan, t,
        lambda g: estimate_br(g, t, cfg.epsilon, cfg.delta, cfg.seed).values,
    )


def warn_if_estimate_too_coarse(cfg: WalkConfig) -> None:
    """Advise when the estimation accuracy cannot separate the thresholds.

    Classification from an estimated table uses the point estimate with no
    hysteresis band, so epsilon should be at most (theta_bad - theta_good)/2.
    """
    limit = (cfg.theta_bad - cfg.theta_good) / 2.0
    if cfg.epsilon > limit:
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
    the remainder.  Raises :class:`BothColorsUnbiased` when both
    sums are zero and the budget is positive; callers typically fall back to
    an even split.
    """
    check_count("budget", total, 0)
    if min(y_red, y_blue) < 0:
        raise ValueError("bias sums must be non-negative")
    if total == 0:
        return 0, 0
    if y_red + y_blue == 0:
        raise BothColorsUnbiased(
            "no parochial mass in either color; split the budget explicitly"
        )
    k_blue = min(total, math.ceil(total * y_blue / (y_blue + y_red)))
    return total - k_blue, k_blue


def even_split(total: int) -> tuple[int, int]:
    """Fallback split when neither color carries bias: blue gets the ceiling."""
    k_blue = math.ceil(total / 2)
    return total - k_blue, k_blue
