"""Hard-core lilypond systems of line segments in the plane.

Segments grow at unit rate about fixed germ midpoints and stop by one of
two hard-core rules: under Model 1 a segment stops when one of its own
ends reaches another segment; under Model 2 it also stops when a growing
end of another segment reaches it.  The package constructs these systems
on finite marked point sets and sampled marked Poisson processes, verifies
the defining properties, and estimates typical-segment statistics.
"""

__version__ = "0.1.0"

from .errors import (
    AbortRateExceeded,
    AlgorithmDivergence,
    AmbiguousStop,
    ConditionDViolation,
    IdenticalGerms,
    InputTooLarge,
    InsufficientSizes,
    InsufficientTail,
    InternalConsistencyError,
    InvalidInput,
    InvalidIntensity,
    InvalidWindow,
    LilysegError,
    NegativeRadius,
    NonConvergence,
    NotEnoughPoints,
    RadiiMismatch,
    StructureInconsistency,
    VerificationFailed,
)
from .geometry import (
    MarkedPoint,
    PairGeometry,
    PairKind,
    Segment,
    fold_direction,
    pair_geometry,
    realize_segment,
    relative_interiors_intersect,
    segments_touch,
)
from .pointprocess import (
    ConditionDReport,
    Disk,
    MarkedPointSet,
    Provenance,
    Rectangle,
    TwoAtomMarks,
    check_condition_d,
    ensure_condition_d,
    n_closest_to_origin,
    read_realization,
    sample_pinned,
    sample_poisson,
    write_realization,
)
from .solver import (
    ChainTrace,
    RadiiAssignment,
    Solution,
    VerificationReport,
    apply_t1,
    apply_t2,
    find_descending_chain,
    read_solution,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    verify_gmhs,
    write_solution,
)
from .structure import (
    StoppingMap,
    StructureReport,
    analyze,
    contact_count_identity,
    interior_certified,
    stopping_map,
)
from .stats import (
    GaussianTailFit,
    MassTransportTally,
    McConfig,
    MuConsistency,
    PalmEstimates,
    SurvivalTable,
    TrendTable,
    estimate_mu_consistency,
    gaussian_tail_diagnostic,
    mass_transport_check,
    percolation_trend,
    pinned_origin_radii,
    run_monte_carlo,
    tail_of_r2,
)
from .render import render_svg, write_svg

__all__ = [name for name in dir() if not name.startswith("_")]
