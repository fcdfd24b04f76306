"""brwlab: a numerical laboratory for spreading speeds of branching random walks.

Speeds are computed by convex duality (including the anomalous speed of
the terminal class in a reducible two-type system), verified by Monte
Carlo particle simulation, and cross-checked against the deterministic
front recursion.
"""

from .convex_analysis import (
    EvaluableFunction,
    GridSpec,
    SpeedResult,
    convex_minorant,
    fenchel_dual,
    speed_from_dual,
    speed_from_inf,
    sweep,
)
from .errors import (
    BrwLabError,
    BudgetError,
    DomainError,
    KernelError,
    ParamError,
    RangeError,
    SchemaError,
    StateError,
    ToleranceError,
)
from .front import (
    FrontProfile,
    apply_q,
    coupled_front,
    front_speed,
    heaviside_profile,
    mc_consistency,
)
from .mc_sim import (
    TrajectoryStats,
    centering_slope,
    count_profile,
    predicted_beam_deficit,
    replicate_rng,
    run_count_census,
    run_one_type,
    run_two_type,
)
from .models import (
    Gaussian,
    OffspringLaw,
    PointMass,
    ReproductionLaw,
    Seeding,
    TwoPoint,
    TwoTypeSystem,
    skeleton_of_bbm,
)
from .speeds import (
    AnomalousReport,
    TwoTypeAnalysis,
    anomalous_speed,
    expected_numbers_speed,
    one_type_speed,
    reversed_speed,
)

__version__ = "0.1.0"
