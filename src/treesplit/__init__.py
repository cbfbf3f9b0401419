"""treesplit: spanning trees and balanced tree-weighted partitions of planar grids."""

__version__ = "0.1.0"

from .planar import (
    DualGraph,
    DualityError,
    Multigraph,
    Partition,
    PartitionError,
    PlanarEmbedding,
    SpanningTree,
    build_grid,
    compute_dual,
    contract_partition,
    count_spanning_trees,
    dual_tree,
    primal_tree,
)
from .rng import RngStream
from .splitting import (
    SplitResult,
    component_sizes,
    find_approx_split,
    find_balanced_split,
    find_min_imbalance_split,
)
from .walks import (
    Phase,
    PhasePlan,
    WalkTrace,
    loop_erased_walk,
    wilson,
    wilson_on_dual,
    wilson_phased,
)
from .samplers import (
    KForest,
    SamplerReport,
    approx_balanced_sample,
    perfect_balanced_sample,
)
from .dynforest import LinkCutForest, NaiveForest
from .lattice import (
    LatticeRegion,
    PlaneGraphD,
    build_lattice_region,
    compatibility_experiment,
    epsilon_compatible,
    halved_square,
    hausdorff_distance,
    vertical_strips,
)
from .bounds import BoundsTable, compute_bounds

__all__ = [
    "BoundsTable",
    "DualGraph",
    "DualityError",
    "KForest",
    "LatticeRegion",
    "LinkCutForest",
    "Multigraph",
    "NaiveForest",
    "Partition",
    "PartitionError",
    "Phase",
    "PhasePlan",
    "PlanarEmbedding",
    "PlaneGraphD",
    "RngStream",
    "SamplerReport",
    "SpanningTree",
    "SplitResult",
    "WalkTrace",
    "approx_balanced_sample",
    "build_grid",
    "build_lattice_region",
    "compatibility_experiment",
    "component_sizes",
    "compute_bounds",
    "compute_dual",
    "contract_partition",
    "count_spanning_trees",
    "dual_tree",
    "epsilon_compatible",
    "find_approx_split",
    "find_balanced_split",
    "find_min_imbalance_split",
    "halved_square",
    "hausdorff_distance",
    "loop_erased_walk",
    "perfect_balanced_sample",
    "primal_tree",
    "vertical_strips",
    "wilson",
    "wilson_on_dual",
    "wilson_phased",
]
