"""Exact workbench for no-transfer assignment mechanism design.

Solves the designer's problem on finite-type instances with exact
rational arithmetic, collapses mechanisms into common lotteries, builds
improving perturbations when the convexity condition fails, and
simulates capped random priority markets.
"""

from types import ModuleType as _ModuleType

from .errors import ConvexityHypothesisFailed, LotbenchError, PreconditionViolation
from .instance import (
    ConvexityReport,
    Instance,
    convexity_report,
    uniform_instance,
)
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    FeasibilityReport,
    Fill,
    Linear,
    Objective,
    PositionMasses,
    SeparableConcave,
    evaluate_objective,
    expand_common_lottery,
    feasibility_report,
    position_masses,
)
from .lpsolve import (
    LinearProgram,
    LpSolution,
    MinMassSolution,
    build_designer_lp,
    build_min_mass_lp,
    simplex_solve,
    solve_designer,
    solve_min_mass,
)
from .transform import (
    DecompositionReport,
    mu_coefficients,
    to_common_lottery,
    verify_decomposition,
)
from .optimizer import (
    BudgetSolution,
    FillLottery,
    KktReport,
    kkt_check,
    lottery_from_masses,
    masses_from_lottery,
    optimal_lottery_fill,
    optimal_masses,
)
from .converse import (
    Improvement,
    auto_improve,
    perturb,
)
from .crp import (
    CrpResult,
    SimulationResult,
    Threshold,
    caps_from_lottery,
    continuum_crp,
    simulate_finite,
)
from .ordinal import (
    OrdinalInstance,
    UnevenGridView,
    aggregate_per_gamma,
    masses_over_qualities,
    normalize_gamma,
    optimal_common_lottery_ordinal,
    uneven_mu_coefficients,
)

# the public names, not the submodules that importing them binds here
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "1.0.0"
