"""driftbench: periodic averaging, resonance geometry, steepness checks, and
drift experiments for near-integrable Hamiltonians at desk scale."""

from .diophantine import (
    PeriodicVector,
    RationalSubspace,
    ResonanceFrame,
    dirichlet_approx,
    period_of,
    projections,
    resonance_module,
    subspace_in_GL,
)
from .dynamics import (
    IntegratorConfig,
    TimeBudget,
    TrajectoryRecord,
    drift_time,
    integrate,
    transverse_drift,
)
from .normalform import (
    NormalFormConfig,
    NormalFormResult,
    composed_normal_form,
    homological_solve,
    lie_transform,
    local_normal_form,
    localize_and_scale,
    periodic_averaging,
    resonant_average,
    verify_resonant_symmetry,
)
from .restrain import (
    ExponentSet,
    RestrainFrame,
    check_conditions,
    exponents,
    restrained_implies_stable,
    time_budget,
    try_restrain,
)
from .series import (
    CorruptSeriesError,
    Domain,
    DomainError,
    FiniteDiff,
    FourierTaylorSeries,
    Gevrey,
    HamiltonianSystem,
    TruncationLoss,
    load_series,
    poisson_bracket,
    save_series,
)
from .steepness import (
    MorseParams,
    MorseReport,
    SteepnessQuery,
    check_morse,
    check_morse_at,
    sample_prevalence,
    steepness_escape,
)
from .systems import System, make_system

__version__ = "0.1.0"
