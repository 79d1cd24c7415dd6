"""Li-Yorke pairs on self-similar invariant sets.

Symbolic construction of scheduled near-copy pairs on full shifts,
projection onto attractors of contracting similitude systems, the four
classical example systems (tent, baker, horseshoe, solenoid), and the
numerical instruments (certified orbit bounds, box counting) that check
the dimension and chaos claims at desk scale.

The namespace holds the error classes and most names README.md documents.
"""

from .analysis import (
    GridLadder,
    box_count,
    build_verification_pair,
    dimension_fit,
    liyorke_profile,
    verify_liyorke,
)
from .errors import (
    ConvergenceError,
    DegenerateFit,
    EmptyInput,
    InsufficientPrefix,
    InvalidDigit,
    InvalidRatio,
    LypairsError,
    NotInSubset,
    OverlapError,
    ParameterOutOfRange,
    TooFewCheckpoints,
    UndefinedRegion,
    ValidationError,
)
from .fractal import (
    IfsSystem,
    PointSample,
    Similitude,
    code_point,
    moran_dimension,
    sample_restricted,
)
from .symbolic import (
    FLIP,
    FREE,
    MATCH,
    GapSequence,
    apply_pattern,
    check_gap_condition,
    construct_partner,
    covered_base,
    extract_filler,
    random_sequence,
    schedule_roles,
)
from .systems import (
    SystemSpec,
    apply_map,
    code_orbit_point,
    conjugacy_defect,
)

__version__ = "0.1.0"
