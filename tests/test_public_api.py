"""The public surface: the names the package exports and its error classes."""
import ast
from pathlib import Path

import repbublik

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
    "estimate_rwcc_many", "even_split", "exact", "exact_br", "exact_gamma",
    "exact_rwcc", "exact_rwcc_many", "generate_gadget", "generate_polarized",
    "graph", "harness", "insert_edge", "load_dataset", "montecarlo",
    "opposite", "recommend", "repbublik", "repbublik_plus", "run_sweep",
    "rwcc_sample_size", "structural_bias", "weight_oracle", "write_dataset",
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 53
    assert sorted(repbublik.__all__) == sorted(PUBLIC)


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
