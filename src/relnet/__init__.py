"""k-terminal network reliability on uncertain graphs.

Exact computation for small graphs, and bounds-assisted stratified sampling
for larger ones, with reliability-preserving graph reduction.
"""

from .diagram import (
    BuildConfig,
    EdgeOrder,
    Node,
    WidthCapExceeded,
    construct,
    exact_reliability,
    node_priority,
    order_edges,
)
from .estimators import (
    Bounds,
    EstimateReport,
    SampleBudget,
    StratumDraw,
    ht_estimate,
    ht_variance,
    mc_estimate,
    mc_variance,
    reduced_sample_count,
    stratified_mc_variance,
)
from .exact import ExactResult, brute_force_reliability
from .graph import (
    GraphFormatError,
    GraphInvariantError,
    TerminalSet,
    UncertainGraph,
    assignment_probability,
    load_graph,
    parse_graph,
    sample_possible_graph,
    terminals_connected,
)
from .pipeline import estimate_pipeline, exact_pipeline, plain_sample_estimate
from .reduction import (
    Decomposition,
    StructureIndex,
    build_structure_index,
    decompose,
    preprocess,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "BuildConfig",
    "Decomposition",
    "EdgeOrder",
    "EstimateReport",
    "ExactResult",
    "GraphFormatError",
    "GraphInvariantError",
    "Node",
    "SampleBudget",
    "StratumDraw",
    "StructureIndex",
    "TerminalSet",
    "UncertainGraph",
    "WidthCapExceeded",
    "assignment_probability",
    "brute_force_reliability",
    "build_structure_index",
    "construct",
    "decompose",
    "estimate_pipeline",
    "exact_pipeline",
    "exact_reliability",
    "ht_estimate",
    "ht_variance",
    "load_graph",
    "mc_estimate",
    "mc_variance",
    "node_priority",
    "order_edges",
    "parse_graph",
    "plain_sample_estimate",
    "preprocess",
    "reduced_sample_count",
    "sample_possible_graph",
    "stratified_mc_variance",
    "terminals_connected",
    "transform",
]
