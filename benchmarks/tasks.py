"""The work of one benchmark task and its exact checks.

Every task calls public lotbench functions through the tracer (so the
traced run can charge the time to a layer) and then checks the answer
exactly.  The checks are the benchmark's own code, not the library's bare
`assert`s, which `python -O` would drop.  A failed check raises
CheckFailed; the runner counts it, like any other exception, as a failed
task.

Each task returns its outputs that every correct version of the library
must reproduce; the runner hashes them outside the timed region.  LP
vertices and dual vectors are left out: a correct change of pivoting rule
may pick another optimal basis on a degenerate instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from lotbench import (
    CommonLottery,
    DirectMechanism,
    Fill,
    Instance,
    PositionMasses,
    auto_improve,
    build_designer_lp,
    build_min_mass_lp,
    caps_from_lottery,
    continuum_crp,
    convexity_report,
    evaluate_objective,
    expand_common_lottery,
    feasibility_report,
    kkt_check,
    lottery_from_masses,
    masses_from_lottery,
    mu_coefficients,
    normalize_gamma,
    optimal_common_lottery_ordinal,
    optimal_lottery_fill,
    optimal_masses,
    position_masses,
    simplex_solve,
    simulate_finite,
    solve_min_mass,
    to_common_lottery,
    uneven_mu_coefficients,
    verify_decomposition,
)
from lotbench import cli

from gen import pq

ZERO = Fraction(0)

# Finite-market Monte Carlo size per explore task.
MC_AGENTS = 4000
MC_REPS = 4


class CheckFailed(Exception):
    """An exact identity or invariant did not hold."""


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Result:
    outputs: list = field(default_factory=list)  # hashed into the output digest
    lps: list = field(default_factory=list)  # (LinearProgram, LpSolution) pairs
    notes: dict = field(default_factory=dict)  # counts for per-layer ratios


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue()


def write_cli_inputs(tasks_, directory: Path, prefix: str) -> dict:
    """Write the JSON files that the tasks' solve-lp calls read; returns
    task idx -> (instance path, objective path)."""
    paths = {}
    for task in tasks_:
        if task.kind != "designer" or not task.args["via_cli"]:
            continue
        obj = task.args["obj"]
        docs = {
            "instance": task.args["inst"].to_json_dict(),
            "objective": {"kind": "fill"} if isinstance(obj, Fill) else {
                "kind": "linear", "weights": [pq(w) for w in obj.weights],
            },
        }
        pair = []
        for role, doc in docs.items():
            path = directory / f"{prefix}{task.idx}.{role}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            pair.append(str(path))
        paths[task.idx] = tuple(pair)
    return paths


def run_task(tr, task, paths: dict) -> Result:
    return _RUNNERS[task.kind](tr, task, paths)


# --- exact-lp --------------------------------------------------------------------


def _designer(tr, task, paths) -> Result:
    inst, obj = task.args["inst"], task.args["obj"]
    closed = tr.call("optimizer.optimal_masses", optimal_masses, inst, obj)
    res = Result()
    if task.args["via_cli"]:
        inst_path, obj_path = paths[task.idx]
        argv = ["solve-lp", inst_path, "--objective", obj_path]
        code, out = tr.call("cli.main", run_cli, argv, tag="solve_lp")
        expect(code == 0, f"solve-lp exited {code}")
        doc = json.loads(out)
        value = Fraction(doc["value"])
        mech = DirectMechanism.from_json_dict(doc["mechanism"])
    else:
        lp = tr.call("lpsolve.build_designer_lp", build_designer_lp, inst, obj, tag="designer")
        sol = tr.call("lpsolve.simplex_solve", simplex_solve, lp, tag="designer")
        expect(sol.status == "optimal", f"designer LP is {sol.status}")
        _strong_duality(lp, sol)
        value = sol.objective
        mech = DirectMechanism(
            a=tuple(
                tuple(sol.primal.get(f"a[{k}][{i}]", ZERO) for i in range(inst.n))
                for k in range(inst.n)
            )
        )
        res.lps.append((lp, sol))
    expect(value == closed.value, "LP value differs from the closed-form value")
    _collapse(tr, inst, mech, obj, closed.value)
    lottery = tr.call("optimizer.lottery_from_masses", lottery_from_masses, inst, closed.masses)
    res.outputs = [value, closed.masses, lottery]
    return res


def _collapse(tr, inst, mech, obj, value):
    """The collapsed lottery keeps every position mass and the optimal value."""
    lottery, overflow = tr.call("transform.to_common_lottery", to_common_lottery, inst, mech)
    expect(not overflow and lottery.total() <= 1, "collapsed lottery overflows")
    expanded = tr.call("mechanism.expand_common_lottery", expand_common_lottery, inst, lottery)
    masses = tr.call("mechanism.position_masses", position_masses, inst, expanded)
    original = tr.call("mechanism.position_masses", position_masses, inst, mech)
    expect(masses.s == original.s, "collapse moved a position mass")
    expect(tr.call("mechanism.evaluate_objective", evaluate_objective, obj, masses) == value,
           "collapsed lottery is not optimal")


def _strong_duality(lp, sol):
    dual_value = sum((sol.duals[nm] * b for nm, b in zip(lp.con_names, lp.rhs)), ZERO)
    expect(dual_value == sol.objective, "sum of dual * rhs differs from the objective")


def _row_value(row, primal, names):
    return sum((c * primal[v] for c, v in zip(row, names) if c), ZERO)


def _min_mass(tr, task, paths) -> Result:
    inst, targets = task.args["inst"], task.args["targets"]
    lp = tr.call("lpsolve.build_min_mass_lp", build_min_mass_lp, inst, targets, tag="min_mass")
    mm = tr.call("lpsolve.solve_min_mass", solve_min_mass, inst, targets, tag="min_mass")
    expect(mm.status == "optimal", f"min-mass LP is {mm.status}")
    sol = mm.solution
    # with convex 1/F a common lottery is optimal, so D* is the budget
    # sum_k s_k / F_k of the lottery that hits the targets
    closed = sum((s / inst.cdf(k) for k, s in enumerate(targets.s)), ZERO)
    expect(mm.d_star == sol.objective == closed, "D* differs from sum s_k / F_k")
    _strong_duality(lp, sol)
    expect(all(v >= 0 for v in sol.primal.values()), "negative primal value")
    for nm, row, rel, b in zip(lp.con_names, lp.rows, lp.rels, lp.rhs):
        lhs = _row_value(row, sol.primal, lp.var_names)
        expect(lhs <= b if rel == "<=" else lhs >= b if rel == ">=" else lhs == b,
               f"row {nm} violated")
        if sol.duals[nm] != 0:
            expect(lhs == b, f"complementary slackness fails on {nm}")
    return Result(outputs=[mm.d_star], lps=[(lp, sol)])


# --- certify ---------------------------------------------------------------------


def _certify(tr, task, paths) -> Result:
    inst, matrix = task.args["inst"], task.args["matrix"]
    fill = tr.call("optimizer.optimal_lottery_fill", optimal_lottery_fill, inst).lottery
    mech = tr.call("mechanism.expand_common_lottery", expand_common_lottery, inst, fill)
    report = tr.call("mechanism.feasibility_report", feasibility_report, inst, mech)
    expect(report.is_feasible, "expanded fill lottery is not feasible")
    lottery, overflow = tr.call("transform.to_common_lottery", to_common_lottery, inst, mech)
    expect(not overflow and lottery.c == fill.c, "collapse changed the lottery")

    dec = tr.call("transform.verify_decomposition", verify_decomposition, inst, matrix)
    p0 = sum((row[0] for row in matrix.a), ZERO)
    expect(dec.residual == 0, "decomposition residual is not 0")
    expect(dec.p_theta0 == p0 == dec.common_term + dec.info_term,
           "decomposition terms do not add up")

    mu = tr.call("transform.mu_coefficients", mu_coefficients, inst)
    _check_mu(mu, inst.f, [inst.cdf(k) for k in range(inst.n)])
    return Result(outputs=[
        fill, lottery, report.participation, report.position_slack,
        report.agent_slack, sorted(report.binding_ics),
        dec.common_term, dec.info_term, dec.residual, mu,
    ])


def _check_mu(mu, pmf, cdf):
    """Closed forms: mu[k][0] = 1 - f_0/F_k, mu[k][i] = -f_i/F_k for 1 <= i <= k."""
    n = len(pmf)
    for k in range(n):
        expect(mu[k][0] == 1 - pmf[0] / cdf[k], f"mu[{k}][0] differs from 1 - f_0/F_k")
        for i in range(1, n):
            want = -pmf[i] / cdf[k] if i <= k else ZERO
            expect(mu[k][i] == want, f"mu[{k}][{i}] differs from its closed form")


# --- explore ---------------------------------------------------------------------


def _explore(tr, task, paths) -> Result:
    a = task.args
    inst = a["inst"]
    res = Result()
    cdf = [inst.cdf(k) for k in range(inst.n)]

    conv = tr.call("instance.convexity_report", convexity_report, inst)
    second = tuple(1 / cdf[i - 1] - 2 / cdf[i] + 1 / cdf[i + 1] for i in range(1, inst.n - 1))
    expect(conv.second_differences == second, "second differences of 1/F are wrong")
    expect(conv.is_convex == all(d >= 0 for d in second), "convexity flag is wrong")

    fill = tr.call("optimizer.optimal_masses", optimal_masses, inst, Fill())
    _check_budget(inst, fill.masses)
    expect(fill.value == sum(fill.masses.s, ZERO), "Fill value is not the total mass")
    greedy = tr.call("optimizer.optimal_lottery_fill", optimal_lottery_fill, inst).lottery
    greedy_masses = tr.call("optimizer.masses_from_lottery", masses_from_lottery, inst, greedy)
    expect(greedy_masses.s == fill.masses.s,
           "the two fill-from-the-top routines disagree")
    linear = tr.call("optimizer.optimal_masses", optimal_masses, inst, a["linear"])
    _check_budget(inst, linear.masses)
    expect(linear.value == sum((w * s for w, s in zip(a["linear"].weights, linear.masses.s)), ZERO),
           "Linear value is not the weighted mass")
    concave = tr.call("optimizer.optimal_masses", optimal_masses, inst, a["concave"])
    kkt = tr.call("optimizer.kkt_check", kkt_check, inst, a["concave"], concave.masses)
    expect(kkt.ok, f"KKT check failed: {kkt.violations[:3]}")

    improvement, why = tr.call("converse.auto_improve", auto_improve, inst)
    if conv.is_convex:
        expect(improvement is None and why == "convex", "improvement claimed on a convex instance")
    else:
        res.notes["nonconvex"] = 1
        if improvement is not None:
            res.notes["improved"] = 1
            trial = Instance(n=inst.n, f=inst.f, g=inst.g, d=improvement.d)
            report = tr.call("mechanism.feasibility_report", feasibility_report,
                             trial, improvement.mechanism)
            expect(report.is_feasible, "improving mechanism is not feasible")
            expect(improvement.gain > 0, "improvement gain is not positive")
            expect(improvement.gain == improvement.d * improvement.delta * cdf[improvement.fill_index],
                   "improvement gain differs from D * delta * F")

    cl = CommonLottery(c=tuple(c * a["crp_scale"] for c in greedy.c))
    caps = tr.call("crp.caps_from_lottery", caps_from_lottery, inst, cl)
    crp = tr.call("crp.continuum_crp", continuum_crp, inst, caps)
    expanded = tr.call("mechanism.expand_common_lottery", expand_common_lottery, inst, cl)
    expect(crp.allocation.a == expanded.a, "priority scan differs from the lottery expansion")
    sim = tr.call("crp.simulate_finite", simulate_finite, inst, caps, MC_AGENTS, MC_REPS, a["mc_seed"])
    check_simulation(sim, expanded)
    res.notes["draws"] = MC_AGENTS * MC_REPS

    oi, oobj = a["ordinal"], a["ordinal_obj"]
    lottery = tr.call("ordinal.optimal_common_lottery_ordinal", optimal_common_lottery_ordinal, oi, oobj)
    base = Instance(n=oi.n, f=oi.outside_pmf, g=oi.g, d=oi.d)
    best = tr.call("optimizer.optimal_masses", optimal_masses, base, oobj)
    expect(all(c >= 0 for c in lottery.c) and lottery.total() <= 1, "ordinal lottery is invalid")
    masses = PositionMasses(s=tuple(oi.d * c * base.cdf(k) for k, c in enumerate(lottery.c)))
    expect(all(s <= g for s, g in zip(masses.s, oi.g)), "ordinal lottery overfills a position")
    value = tr.call("mechanism.evaluate_objective", evaluate_objective, oobj, masses)
    expect(value == best.value, "ordinal lottery misses the optimal value")
    mus = []
    for label in oi.gamma_labels:
        view = tr.call("ordinal.normalize_gamma", normalize_gamma, oi, label)
        mu = tr.call("ordinal.uneven_mu_coefficients", uneven_mu_coefficients, view)
        _check_mu(mu, [view.pmf(i) for i in range(view.n)], view.F)
        mus.append(mu)

    code, out = tr.call("cli.main", run_cli, ["reproduce", a["reproduce"]], tag="reproduce")
    expect(code == 0, f"reproduce exited {code}")
    check_reproduce(a["reproduce"], json.loads(out))

    res.outputs = [conv.second_differences, fill.masses, greedy, linear.masses,
                   crp.allocation, lottery, mus, out]
    return res


def _check_budget(inst, masses):
    expect(all(0 <= s <= g for s, g in zip(masses.s, inst.g)), "mass outside [0, g_k]")
    spend = sum((s / inst.cdf(k) for k, s in enumerate(masses.s)), ZERO)
    expect(spend <= inst.d, "mass vector exceeds the agent budget")


def check_simulation(sim, expected: DirectMechanism):
    """Exact invariants, then one aggregate standardized-error bound.

    No position is filled beyond its quota in any replication, no type
    takes a position below its outside option, and every drawn agent is
    counted once.  The aggregate sum of squared z-scores over the cells
    with 0 < p < 1 has mean about m (one per cell); the bound sits more
    than ten standard deviations above it, so a correct change to the
    random stream fails it with negligible probability, where a per-cell
    4-SE test would not.
    """
    n = len(sim.quotas)
    counts = sim.counts
    for k in range(n):
        expect(int(counts[k].sum()) <= sim.quotas[k] * sim.replications,
               f"position {k} filled beyond its quota")
        expect(all(int(counts[k][i]) == 0 for i in range(k + 1, n)),
               f"a type above {k} accepted position {k}")
    expect(int(sim.type_totals.sum()) == sim.n_agents * sim.replications, "agents lost")
    expect(all(int(counts[:, i].sum()) <= int(sim.type_totals[i]) for i in range(n)),
           "a type was assigned more than once")
    z2 = 0.0
    cells = 0
    for k in range(n):
        for i in range(k + 1):
            p = float(expected.a[k][i])
            total = int(sim.type_totals[i])
            if 0 < p < 1 and total > 0:
                z2 += (int(counts[k][i]) - p * total) ** 2 / (p * (1 - p) * total)
                cells += 1
    bound = cells + 10 * math.sqrt(2 * cells) + 25
    expect(z2 <= bound, f"Monte Carlo error: sum z^2 = {z2:.1f} over {cells} cells")


_APPENDIX_EPSILONS = ("-1/4", "-1/10", "0", "1/10")


def _appendix_value(eps: Fraction) -> Fraction:
    if eps > 0:
        k = Fraction(2, 3)
    elif eps < 0:
        k = Fraction(4) / (9 - 18 * eps)
    else:
        k = ZERO
    return Fraction(2, 3) - eps * k


def check_reproduce(target: str, doc: dict):
    """The values acceptance criteria 1-4 and 10 assert."""
    if target == "fig1":
        expect(doc == {"uniform_lottery_mass": "5/8",
                       "optimal_lottery": ["0", "5/12", "1/3", "1/4"],
                       "optimal_mass": "17/24"}, "fig1 values differ")
    elif target == "fig2":
        expect(doc == {"menu": {"mass": "5/8", "feasible": True},
                       "ceei": {"mass": "11/16", "feasible": True}}, "fig2 values differ")
    elif target == "fig3":
        expect(doc == {"ic_violations": ["IC[2,0]"], "feasible": False}, "fig3 values differ")
    elif target == "fig4":
        expect(doc == {"second_differences": ["-4/5"], "best_common_lottery_value": "11/18",
                       "lp_value": "2/3", "strict_gap": True}, "fig4 values differ")
    elif target == "appendixA1":
        cases = doc["cases"]
        expect(tuple(c["epsilon"] for c in cases) == _APPENDIX_EPSILONS, "appendixA1 cases differ")
        for case in cases:
            expect(case["menu_value"] == "2/3", "appendixA1 menu value differs")
            expect(Fraction(case["lottery_value"]) == _appendix_value(Fraction(case["epsilon"])),
                   "appendixA1 lottery value differs from 2/3 - eps*k")
    else:
        raise CheckFailed(f"unknown reproduce target {target!r}")


_RUNNERS = {"designer": _designer, "min_mass": _min_mass, "certify": _certify, "explore": _explore}
