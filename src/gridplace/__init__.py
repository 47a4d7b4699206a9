"""gridplace: grid-based macro placement with a wirelength/density/congestion
proxy cost, force-directed soft-cluster placement, and simulated annealing."""

__version__ = "0.1.0"

from .annealer import (
    ACTIONS,
    ParallelResult,
    SAConfig,
    SAResult,
    anneal,
    init_greedy_pack,
    init_spiral,
    run_parallel,
    shuffle_same_size,
    spiral_cells,
    write_trace_csv,
)
from .bookshelf import parse_aux, parse_bookshelf, read_placement, write_placement
from .clustering import (
    ClusteredNetlist,
    apply_vacuous_placement,
    cluster_by_grid,
    no_clustering,
)
from .cost import (
    CostConfig,
    Evaluator,
    ProxyBreakdown,
    ProxyWeights,
    smooth_grid,
    top_fraction_mean,
)
from .fd import FDIterationInfo, FDParams, fd_place
from .geometry import Grid, build_grid, node_bbox, placement_is_legal
from .netlist import (
    Canvas,
    Net,
    Netlist,
    Node,
    NodeKind,
    Orientation,
    Pin,
    Placement,
    PlacementState,
    Pose,
    read_netlist,
    transform_pin_offset,
    write_netlist,
)
from .stats import (
    StabilityReport,
    kendall_tau,
    stability_study,
    summarize_groups,
    weight_sweep,
)
from .svgplot import write_svg

__all__ = [
    "ACTIONS", "Canvas", "ClusteredNetlist", "CostConfig", "Evaluator",
    "FDIterationInfo", "FDParams", "Grid", "Net", "Netlist", "Node",
    "NodeKind", "Orientation", "ParallelResult", "Pin", "Placement",
    "PlacementState", "Pose", "ProxyBreakdown", "ProxyWeights", "SAConfig", "SAResult",
    "StabilityReport", "anneal", "apply_vacuous_placement", "build_grid",
    "cluster_by_grid", "fd_place", "init_greedy_pack", "init_spiral",
    "kendall_tau", "no_clustering", "node_bbox",
    "parse_aux", "parse_bookshelf", "placement_is_legal", "read_netlist",
    "read_placement", "run_parallel", "shuffle_same_size", "smooth_grid",
    "spiral_cells", "stability_study", "summarize_groups",
    "top_fraction_mean", "transform_pin_offset", "weight_sweep",
    "write_netlist", "write_placement", "write_svg", "write_trace_csv",
]
