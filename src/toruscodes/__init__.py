"""Analog joint source-channel codes from curves on flat torus layers.

A real value in [0, 1) is encoded onto a set of closed curves, one per flat
torus layer of the sphere S^(2N-1), transmitted over an AWGN channel, and
decoded in two stages (layer, then curve).  The package covers the lattice
machinery behind curve design, the layer codebooks, the codec, and a
reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .torus import (
    TorusSpec,
    embed,
    reduce_to_box,
    inter_torus_distance,
    separation_rows,
    min_separation,
    intra_torus_distance,
    distance_bounds,
)
from .lattices import (
    LatticeBasis,
    ShortestVectorResult,
    DegenerateBasisError,
    InvalidDirectionError,
    PrimitivityError,
    UnsupportedRankError,
    dual_basis,
    project_orthogonal,
    projection_lattice_basis,
    shortest_vector,
    packing_density,
    unit_ball_volume,
)
from .curves import (
    CurveSpec,
    TargetLattice,
    OutOfRangeError,
    ConstructionViolatedError,
    make_curve,
    curve_point,
    line_spacing,
    small_ball_bounds,
    ball_radius_to_spacing,
    exact_small_ball_2d,
    hexagonal_target,
    integer_target,
    fcc_target,
    default_target,
    lifting_dual_basis,
    lifting_winding,
    search_best_w,
)
from .layers import (
    LayerCodebook,
    ValidationReport,
    InfeasibleSeparationError,
    GridResolutionError,
    design_layers,
    validate_codebook,
)
from .codec import (
    SchemeCode,
    DecodeResult,
    OpCounter,
    AmbiguousPhaseError,
    UndecodableError,
    build_scheme,
    encode,
    encode_batch,
    extract_polar,
    nearest_layer,
    project_to_torus,
    decode_on_torus,
    decode,
    decode_batch,
    decode_exhaustive,
    decode_exhaustive_batch,
)
from .simulate import (
    InfeasibleDesignError,
    BLOCK,
    SimConfig,
    SimResult,
    TradeoffRow,
    awgn,
    block_rng,
    run_mse,
    estimate_small_ball,
    design_scheme,
    tradeoff_table,
    format_tradeoff_csv,
    format_mse_csv,
)
