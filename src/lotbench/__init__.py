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
    new_instance,
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
    classify_binding,
    evaluate_objective,
    expand_common_lottery,
    feasibility_report,
    ic_slack,
    position_masses,
    redundant_ic_pairs,
)
from .lpsolve import (
    LinearProgram,
    LpSolution,
    MinMassSolution,
    build_designer_lp,
    build_min_mass_lp,
    dual_certificate,
    simplex_solve,
    solve_designer,
    solve_min_mass,
)
from .transform import (
    DecompositionReport,
    Multipliers,
    mu_coefficients,
    multipliers,
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
    optimal_masses_flexible,
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
    even_grid_view,
    masses_over_qualities,
    normalize_gamma,
    optimal_common_lottery_ordinal,
    uneven_convexity,
    uneven_mu_coefficients,
    uneven_multipliers,
)

# the public names, not the submodules that importing them binds here
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "1.0.0"
