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
    order_edges,
)
from .estimators import (
    Bounds,
    EstimateReport,
    StratumDraw,
    combine_strata,
    ht_variance,
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
    load_graph,
    parse_graph,
    terminals_connected,
)
from .pipeline import estimate_pipeline, exact_pipeline, plain_sample_estimate
from .reduction import (
    Decomposition,
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
    "StratumDraw",
    "TerminalSet",
    "UncertainGraph",
    "WidthCapExceeded",
    "brute_force_reliability",
    "build_structure_index",
    "combine_strata",
    "construct",
    "decompose",
    "estimate_pipeline",
    "exact_pipeline",
    "exact_reliability",
    "ht_variance",
    "load_graph",
    "mc_variance",
    "order_edges",
    "parse_graph",
    "plain_sample_estimate",
    "preprocess",
    "reduced_sample_count",
    "stratified_mc_variance",
    "terminals_connected",
    "transform",
]
