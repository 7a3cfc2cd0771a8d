"""The public surface: the names the package exports and its error classes."""
import ast
import builtins
import inspect
from pathlib import Path

import numpy as np
import pytest

import repbublik
from repbublik import errors

PACKAGE = Path(repbublik.__file__).parent

# Everything the CLI, the sweep, the benchmark and the scripts reach, plus the
# submodules; the test oracles live in tests/oracles.py instead.
PUBLIC = {
    "ALGORITHMS", "BLUE", "BiasPartition", "BrTable", "ColoredGraph",
    "DatasetStats", "EdgeInsertion", "ExperimentRecord", "Gadget",
    "InsertionPlan", "LoadedDataset", "RED", "WalkConfig", "apply_plan",
    "baseline_pure_random", "baseline_rcn", "baseline_rwcn", "bias",
    "br_sample_size", "budget_allocation", "build_graph", "candidate_universe",
    "classify", "closeness", "dataset_stats", "default_k_values",
    "emit_plotdata", "errors", "estimate_br", "estimate_rwcc",
    "estimate_rwcc_many", "exact", "exact_br", "exact_gamma", "exact_rwcc",
    "exact_rwcc_many", "generate_gadget", "generate_polarized",
    "graph", "harness", "insert_edge", "load_dataset", "montecarlo",
    "opposite", "recommend", "repbublik", "repbublik_plus", "run_sweep",
    "rwcc_sample_size", "structural_bias", "weight_oracle", "write_dataset",
}


# Every class in errors.py; each one subclasses RepbublikError.
ERRORS = {
    "BadEdgeWeight", "BrOutOfRange", "DuplicateEdge", "EdgeExists", "EmptyRecords",
    "EmptySourceSet", "GraphValidationError", "IdOutOfRange", "MixedColorSet",
    "NoOppositeColor", "NonStochasticRow", "ParseError", "RepbublikError",
    "SameColorEndpoints", "SelfLoopEdge", "ThresholdOrder", "UncoveredElement",
    "UnknownColor", "UnknownName", "WorkLimitExceeded", "ZeroOutDegree",
}

BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 52
    assert sorted(repbublik.__all__) == sorted(PUBLIC)


def test_registry_entries_share_one_signature():
    """Every ``ALGORITHMS`` entry is ``fn(graph, color, budget, cfg,
    backend="exact")`` and nothing more."""
    positional, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    expected = [
        ("graph", positional, empty), ("color", positional, empty),
        ("budget", positional, empty), ("cfg", positional, empty),
        ("backend", positional, "exact"),
    ]
    for name, fn in repbublik.ALGORITHMS.items():
        params = [
            (p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()
        ]
        assert params == expected, name


def test_estimator_signatures_are_pinned():
    """The estimators and ``br_table`` take every argument positionally and
    with no default: the benchmark's traced pass (``perfbench/spans.py``)
    reads them by position to count walks, so a reorder would miscount."""
    expected = {
        repbublik.estimate_br: ["graph", "t", "epsilon", "delta", "seed"],
        repbublik.estimate_rwcc_many: [
            "graph", "nodes", "sources", "t_prime", "epsilon", "delta", "seed",
        ],
        repbublik.estimate_rwcc: [
            "graph", "v", "sources", "t_prime", "epsilon", "delta", "seed",
        ],
        repbublik.exact_br: ["graph", "t"],
        repbublik.exact_rwcc: ["graph", "v", "sources", "t_prime"],
        repbublik.bias.br_table: ["graph", "cfg", "backend", "seed"],
    }
    positional, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    for fn, names in expected.items():
        params = inspect.signature(fn).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            (name, positional, empty) for name in names
        ], fn.__name__


def test_every_error_class_is_used_outside_errors_py():
    """Each error class but the two bases is named in another module of the
    package, so a class only a removed routine raised cannot linger."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    unused = classes - {"RepbublikError", "GraphValidationError"}
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                unused.discard(node.id)
            elif isinstance(node, ast.Attribute):
                unused.discard(node.attr)
    assert unused == set()


def test_error_classes_are_pinned():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert len(ERRORS) == 21
    assert classes == ERRORS
    assert all(issubclass(getattr(errors, name), errors.RepbublikError) for name in ERRORS)


def test_no_module_raises_a_builtin_exception():
    """Bad input ends in a RepbublikError, so no module of the package may
    raise a builtin exception class (a bare ``raise`` re-raises and is fine)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert found == []


# One bad argument for each guard of a public routine, and the error it
# raises; tests/test_properties.py has the guards of ids and of parameters.
BAD_ARGUMENTS = {
    "br_table-backend": (
        lambda g: repbublik.bias.br_table(g, repbublik.WalkConfig(t=6), "gpu", 0),
        errors.UnknownName,
    ),
    "closeness-backend": (
        lambda g: repbublik.closeness(g, [0], [1], 2, repbublik.WalkConfig(t=6), "gpu", 0),
        errors.UnknownName,
    ),
    "br-above-t": (lambda g: repbublik.BrTable(values=np.array([1.0, 4.5]), t=4),
                   errors.BrOutOfRange),
    "br-below-1": (lambda g: repbublik.BrTable(values=np.array([0.5]), t=4),
                   errors.BrOutOfRange),
    "opposite-color": (lambda g: repbublik.opposite("G"), errors.UnknownColor),
    "color-mask-color": (lambda g: g.color_mask("G"), errors.UnknownColor),
    "plan-color": (lambda g: repbublik.InsertionPlan(edges=(), color="G"),
                   errors.UnknownColor),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_argument_raises_its_typed_error(case, g2):
    call, error = BAD_ARGUMENTS[case]
    with pytest.raises(error):
        call(g2)
