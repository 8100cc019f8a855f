"""The public surface: the names `from lotbench import *` binds."""

import dataclasses
import types

import lotbench

# one name a line, sorted, so that any change to the surface shows in a diff
SURFACE = [
    "BudgetSolution",
    "CommonLottery",
    "ConvexityHypothesisFailed",
    "ConvexityReport",
    "CrpResult",
    "DecompositionReport",
    "DirectMechanism",
    "FeasibilityReport",
    "Fill",
    "FillLottery",
    "Improvement",
    "Instance",
    "KktReport",
    "Linear",
    "LinearProgram",
    "LotbenchError",
    "LpSolution",
    "MinMassSolution",
    "Objective",
    "OrdinalInstance",
    "PositionMasses",
    "PreconditionViolation",
    "SeparableConcave",
    "SimulationResult",
    "Threshold",
    "UnevenGridView",
    "aggregate_per_gamma",
    "auto_improve",
    "build_designer_lp",
    "build_min_mass_lp",
    "caps_from_lottery",
    "continuum_crp",
    "convexity_report",
    "evaluate_objective",
    "expand_common_lottery",
    "feasibility_report",
    "kkt_check",
    "lottery_from_masses",
    "masses_from_lottery",
    "masses_over_qualities",
    "mu_coefficients",
    "normalize_gamma",
    "optimal_common_lottery_ordinal",
    "optimal_lottery_fill",
    "optimal_masses",
    "perturb",
    "position_masses",
    "simplex_solve",
    "simulate_finite",
    "solve_designer",
    "solve_min_mass",
    "to_common_lottery",
    "uneven_mu_coefficients",
    "uniform_instance",
    "verify_decomposition",
]


def test_public_surface_is_pinned():
    assert lotbench.__all__ == SURFACE
    namespace = {}
    exec("from lotbench import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == SURFACE
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_linear_program_fields_are_pinned():
    # one standard form: every variable is >= 0, so no bound field
    fields = [f.name for f in dataclasses.fields(lotbench.LinearProgram)]
    assert fields == ["sense", "c", "rows", "rels", "rhs", "var_names", "con_names"]
