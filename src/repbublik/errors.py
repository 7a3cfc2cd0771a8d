"""Exception taxonomy shared by all repbublik modules."""
from __future__ import annotations


class RepbublikError(Exception):
    """Base class for every error raised by this package."""


class GraphValidationError(RepbublikError, ValueError):
    """A graph, edge set, or plan violates a structural invariant."""


class UnknownColor(GraphValidationError):
    """A node has a color outside {R, B}, or appears without any color."""


class ZeroOutDegree(GraphValidationError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} has no outgoing edge")


class NonStochasticRow(GraphValidationError):
    def __init__(self, node: int, row_sum: float, detail: str = ""):
        self.node = node
        self.row_sum = row_sum
        msg = f"out-weights of node {node} sum to {row_sum!r}, not 1"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class DuplicateEdge(GraphValidationError):
    def __init__(self, src: int, dst: int):
        self.src, self.dst = src, dst
        super().__init__(f"duplicate edge ({src}, {dst})")


class SelfLoopEdge(GraphValidationError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"self-loop on node {node} is not allowed")


class EdgeExists(GraphValidationError):
    def __init__(self, src: int, dst: int):
        self.src, self.dst = src, dst
        super().__init__(f"edge ({src}, {dst}) already present")


class SameColorEndpoints(GraphValidationError):
    def __init__(self, src: int, dst: int):
        self.src, self.dst = src, dst
        super().__init__(f"insertion ({src}, {dst}) must connect different colors")


class ThresholdOrder(GraphValidationError):
    """A parameter lies outside its range or order: the thresholds
    (1 <= theta_good < theta_bad <= t), a count, a seed, an accuracy, a
    probability, a bias sum or the budget ladder."""


class IdOutOfRange(GraphValidationError):
    """A node or element id lies outside the ids the graph or gadget has."""


class MixedColorSet(GraphValidationError):
    """A source set for centrality must be monochromatic and match the target."""


class EmptySourceSet(GraphValidationError):
    """A source set for centrality estimation must be non-empty."""


class NoOppositeColor(GraphValidationError):
    """The graph has no node of the opposite color to insert edges toward."""


class UncoveredElement(GraphValidationError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} belongs to no subset")


class ParseError(RepbublikError, ValueError):
    def __init__(self, path: str, line_no: int, detail: str):
        self.path, self.line_no, self.detail = path, line_no, detail
        super().__init__(f"{path}:{line_no}: {detail}")


class UnknownName(RepbublikError, ValueError):
    """A backend or algorithm name the package does not know."""


class BrOutOfRange(RepbublikError, ValueError):
    """A Bubble Radius table holds a value outside [1, t]."""


class WorkLimitExceeded(RepbublikError, ValueError):
    """A request implies more walk steps or horizon products than
    ``graph.MAX_WORK``, or a closeness request would hold more source draws
    and first-visit records than ``montecarlo.DRAW_ELEMENTS``; raised before
    any of that work starts."""


class EmptyRecords(RepbublikError):
    """Plot data requested from an empty experiment record list."""
