"""Li-Yorke pairs on self-similar invariant sets.

Symbolic construction of scheduled near-copy pairs on full shifts,
projection onto attractors of contracting similitude systems, the four
classical example systems (tent, baker, horseshoe, solenoid), and the
numerical instruments (certified orbit bounds, box counting) that check
the dimension and chaos claims at desk scale.
"""

from .analysis import (
    BoxCountEstimate,
    Checkpoint,
    LiYorkeProfile,
    Verdict,
    box_count,
    build_verification_pair,
    dimension_fit,
    dyadic_ladder,
    geometric_ladder,
    liyorke_profile,
    ternary_ladder,
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
    CodedPoint,
    IfsSystem,
    MoranSolution,
    PointSample,
    Similitude,
    bernoulli_weights,
    code_point,
    load_ifs,
    moran_dimension,
    sample_attractor,
    sample_pair_set,
    sample_restricted,
)
from .symbolic import (
    GapConditionReport,
    GapSequence,
    PairSchedule,
    ScheduleBlock,
    SequenceDistance,
    SymbolSequence,
    block_schedule,
    check_gap_condition,
    construct_partner,
    extract_filler,
    random_sequence,
    sequence_dist,
    shift,
)
from .systems import (
    DerivedIfs,
    SystemSpec,
    apply_map,
    code_orbit_point,
    conjugacy_defect,
    derive_ifs,
    sample_invariant_set,
)

__version__ = "0.1.0"
