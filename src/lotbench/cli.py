"""Command-line front end.

Every subcommand reads JSON files, writes one JSON document to stdout,
and reports diagnostics on stderr.  Exit codes: 0 on success, 1 when the
computation ran but the answer is negative (infeasible mechanism, no
improvement found, convexity fails), 2 for malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from .converse import auto_improve
from .crp import continuum_crp, simulate_finite
from .instance import Instance, convexity_report
from .lpsolve import solve_designer, solve_min_mass
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    Fill,
    Linear,
    PositionMasses,
    SeparableConcave,
    expand_common_lottery,
    feasibility_report,
    position_masses,
)
from .optimizer import optimal_masses, lottery_from_masses
from .rationals import format_rational, parse_rational, parse_rational_vector
from .transform import to_common_lottery, verify_decomposition

OK, NEGATIVE, MALFORMED = 0, 1, 2


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_object(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _load_instance(path: str) -> Instance:
    return Instance.from_json_dict(_load_object(path))


def _load_mechanism(path: str) -> DirectMechanism:
    return DirectMechanism.from_json_dict(_load_object(path))


def _load_objective(path: str | None):
    if path is None:
        return Fill()
    data = _load_object(path)
    kind = data.get("kind")
    if kind == "fill":
        return Fill()
    if kind == "linear":
        return Linear(weights=parse_rational_vector(data["weights"]))
    if kind == "concave":
        return SeparableConcave(
            weights=parse_rational_vector(data["weights"]),
            rho=parse_rational(data["rho"]),
        )
    raise ValueError(f"unknown objective kind {kind!r}")


def _emit(doc: dict):
    """Write doc as indented JSON: every exact value as "p" or "p/q"."""
    json.dump(doc, sys.stdout, indent=2, default=format_rational)
    sys.stdout.write("\n")


def _emit_matrix_csv(matrix):
    for row in matrix:
        sys.stdout.write(",".join(str(v) for v in row) + "\n")


# --- subcommands -------------------------------------------------------------


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    _emit({"ok": True, "instance": inst.to_json_dict()})
    return OK


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    mech = _load_mechanism(args.mechanism)
    report = feasibility_report(inst, mech)
    violated = report.violations()
    doc = {
        "feasible": report.is_feasible,
        "violated": violated,
        "ic_slack": report.ic_slack,
        "participation": report.participation,
        "position_slack": report.position_slack,
        "agent_slack": report.agent_slack,
    }
    _emit(doc)
    if not report.is_feasible:
        print("infeasible: " + ", ".join(violated), file=sys.stderr)
        return NEGATIVE
    return OK


def _cmd_convexity(args) -> int:
    inst = _load_instance(args.instance)
    report = convexity_report(inst)
    _emit(
        {
            "second_differences": report.second_differences,
            "is_convex": report.is_convex,
            "is_strictly_convex": report.is_strictly_convex,
            "violation_indices": report.violation_indices,
        }
    )
    return OK if report.is_convex else NEGATIVE


def _cmd_optimal_lottery(args) -> int:
    inst = _load_instance(args.instance)
    obj = _load_objective(args.objective)
    sol = optimal_masses(inst, obj)
    lottery = lottery_from_masses(inst, sol.masses)
    _emit(
        {
            "lottery": lottery.c,
            "masses": sol.masses.s,
            "value": sol.value,
            "convexity_warning": sol.convexity_warning,
        }
    )
    if sol.convexity_warning:
        print(
            "warning: 1/F is not convex; this is only the best common lottery",
            file=sys.stderr,
        )
    return OK


def _cmd_solve_lp(args) -> int:
    inst = _load_instance(args.instance)
    obj = _load_objective(args.objective)
    mech, value = solve_designer(inst, obj)
    if args.format == "csv":
        _emit_matrix_csv(mech.a)
    else:
        _emit({"mechanism": mech.to_json_dict(), "value": value})
    return OK


def _cmd_transform(args) -> int:
    inst = _load_instance(args.instance)
    mech = _load_mechanism(args.mechanism)
    lottery, overflow = to_common_lottery(inst, mech)
    report = verify_decomposition(inst, mech)
    _emit(
        {
            "lottery": lottery.c,
            "total": lottery.total(),
            "overflow": overflow,
            "decomposition": report.to_json_dict(),
        }
    )
    return OK


def _cmd_min_mass(args) -> int:
    inst = _load_instance(args.instance)
    targets = PositionMasses.from_values(_load_json(args.targets))
    mm = solve_min_mass(inst, targets)
    _emit(
        {
            "status": "optimal",
            "d_star": mm.d_star,
            "mechanism": mm.mechanism.to_json_dict(),
            "multipliers": {
                "POS": mm.multipliers["POS"],
                "AGE": mm.multipliers["AGE"],
                "IC": {f"{i},{j}": v for (i, j), v in mm.multipliers["IC"].items()},
            },
        }
    )
    return OK


def _cmd_perturb(args) -> int:
    inst = _load_instance(args.instance)
    if args.d is not None:
        inst = Instance(n=inst.n, f=inst.f, g=inst.g, d=parse_rational(args.d))
    improvement, diagnostic = auto_improve(inst, Fill(), search_d=args.d is None)
    if improvement is None:
        _emit({"improved": False, "diagnostic": diagnostic})
        print(f"no improvement: {diagnostic}", file=sys.stderr)
        return NEGATIVE
    _emit(
        {
            "improved": True,
            "d": improvement.d,
            "base_lottery": improvement.base.c,
            "mechanism": improvement.mechanism.to_json_dict(),
            "gain": improvement.gain,
            "k": improvement.k,
            "i": improvement.i,
            "fill_index": improvement.fill_index,
            "epsilon": improvement.epsilon,
            "delta": improvement.delta,
        }
    )
    return OK


def _cmd_simulate_crp(args) -> int:
    inst = _load_instance(args.instance)
    caps = PositionMasses.from_values(_load_json(args.caps))
    analytic = continuum_crp(inst, caps)
    sim = simulate_finite(inst, caps, args.agents, args.reps, args.seed)
    rows = []
    for k in range(inst.n):
        for i in range(inst.n):
            rows.append(
                {
                    "k": k,
                    "i": i,
                    "empirical_prob": float(sim.empirical[k][i]),
                    "stderr": float(sim.stderr[k][i]),
                    "analytic_prob": analytic.allocation.a[k][i],
                }
            )
    if args.format == "csv":
        sys.stdout.write("k,i,empirical_prob,stderr,analytic_prob\n")
        for r in rows:
            sys.stdout.write(
                f"{r['k']},{r['i']},{r['empirical_prob']},{r['stderr']},"
                f"{r['analytic_prob']}\n"
            )
    else:
        _emit({"quotas": sim.quotas, "cells": rows})
    return OK


@functools.cache
def _fixture_text(name: str) -> str:
    """A shipped fixture's text, read from the package once per process."""
    return resources.files("lotbench.fixtures").joinpath(name).read_text(encoding="utf-8")


def _fixture(name: str) -> dict:
    """A fresh dict per call, so no caller shares a mutable fixture."""
    return json.loads(_fixture_text(name))


def _cmd_reproduce(args) -> int:
    target = args.target
    if target == "fig1":
        data = _fixture("fig1.json")
        inst = Instance.from_json_dict(data["instance"])
        uniform = CommonLottery.from_values(data["uniform_lottery"])
        uniform_mass = position_masses(
            inst, expand_common_lottery(inst, uniform)
        ).total()
        sol = optimal_masses(inst, Fill())
        _emit(
            {
                "uniform_lottery_mass": uniform_mass,
                "optimal_lottery": lottery_from_masses(inst, sol.masses).c,
                "optimal_mass": sol.value,
            }
        )
        return OK
    if target == "fig2":
        data = _fixture("fig2.json")
        inst = Instance.from_json_dict(data["instance"])
        out = {}
        for name in ("menu", "ceei"):
            mech = DirectMechanism.from_json_dict(data[name])
            report = feasibility_report(inst, mech)
            out[name] = {
                "mass": position_masses(inst, mech).total(),
                "feasible": report.is_feasible,
            }
        _emit(out)
        return OK
    if target == "fig3":
        data = _fixture("fig3.json")
        inst = Instance.from_json_dict(data["instance"])
        mech = DirectMechanism.from_json_dict(data["mechanism"])
        report = feasibility_report(inst, mech)
        _emit(
            {
                "ic_violations": [f"IC[{i},{j}]" for i, j in report.ic_violations()],
                "feasible": report.is_feasible,
            }
        )
        return OK
    if target == "fig4":
        data = _fixture("fig4.json")
        inst = Instance.from_json_dict(data["instance"])
        sol = optimal_masses(inst, Fill())
        mech_lp, lp_value = solve_designer(inst, Fill())
        _emit(
            {
                "second_differences": convexity_report(inst).second_differences,
                "best_common_lottery_value": sol.value,
                "lp_value": lp_value,
                "strict_gap": lp_value > sol.value,
            }
        )
        return OK
    if target == "appendixA1":
        data = _fixture("appendixA1.json")
        menu = DirectMechanism.from_json_dict(data["menu"])
        cases = []
        for case in data["cases"]:
            inst = Instance.from_json_dict(case["instance"])
            menu_mass = position_masses(inst, menu).total()
            sol = optimal_masses(inst, Fill())
            cases.append(
                {
                    "epsilon": case["epsilon"],
                    "menu_value": menu_mass,
                    "lottery_value": sol.value,
                }
            )
        _emit({"cases": cases})
        return OK
    raise ValueError(f"unknown reproduction target {target!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    returns a new namespace each call, so no state carries over."""
    parser = argparse.ArgumentParser(
        prog="lotbench",
        description="Exact workbench for no-transfer assignment mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="feasibility/IC report for a mechanism")
    p.add_argument("mechanism")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("convexity", help="discrete 1/F convexity report")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("optimal-lottery", help="best common lottery")
    p.add_argument("instance")
    p.add_argument("--objective")
    p.set_defaults(func=_cmd_optimal_lottery)

    p = sub.add_parser("solve-lp", help="exact designer LP optimum")
    p.add_argument("instance")
    p.add_argument("--objective")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_solve_lp)

    p = sub.add_parser("transform", help="collapse a mechanism to a lottery")
    p.add_argument("mechanism")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("min-mass", help="minimum agent mass for target masses")
    p.add_argument("instance")
    p.add_argument("--targets", required=True)
    p.set_defaults(func=_cmd_min_mass)

    p = sub.add_parser("perturb", help="search for a strict improvement")
    p.add_argument("instance")
    p.add_argument("--D", dest="d")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("simulate-crp", help="finite-market Monte Carlo")
    p.add_argument("instance")
    p.add_argument("--caps", required=True)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_simulate_crp)

    p = sub.add_parser("reproduce", help="recompute shipped example values")
    p.add_argument(
        "target", choices=("fig1", "fig2", "fig3", "fig4", "appendixA1")
    )
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED


if __name__ == "__main__":
    sys.exit(main())
