"""Structural-bias analysis and repair for two-colored weighted digraphs.

Measure each node's Bubble Radius (expected capped random-walk steps to the
opposite color), classify nodes as cosmopolitan or parochial, and recommend
cross-color edge insertions that shrink the bias fastest, with exact dynamic
programs backing every Monte Carlo estimate.
"""
from .bias import (
    BiasPartition,
    budget_allocation,
    classify,
    even_split,
    gain,
    structural_bias,
)
from .exact import (
    BrTable,
    FirstPassageProfile,
    brute_force_opt,
    exact_bounded_hitting,
    exact_br,
    exact_first_passage,
    exact_gamma,
    exact_gain,
    exact_return_mass,
    exact_rwcc,
    exact_rwcc_many,
)
from .graph import (
    BLUE,
    RED,
    ColoredGraph,
    EdgeInsertion,
    InsertionPlan,
    WalkConfig,
    apply_plan,
    build_graph,
    insert_edge,
    opposite,
    weight_oracle,
)
from .harness import (
    DatasetStats,
    ExperimentRecord,
    Gadget,
    LoadedDataset,
    candidate_universe,
    dataset_stats,
    default_k_values,
    emit_plotdata,
    generate_gadget,
    generate_polarized,
    load_dataset,
    run_sweep,
    write_dataset,
)
from .montecarlo import (
    br_sample_size,
    estimate_br,
    estimate_rwcc,
    rwcc_sample_size,
    simulate_restart_session,
)
from .recommend import (
    ALGORITHMS,
    baseline_pure_random,
    baseline_rcn,
    baseline_rwcn,
    closeness,
    repbublik,
    repbublik_plus,
    target_selection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
