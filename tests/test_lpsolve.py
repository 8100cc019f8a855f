import os
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy
import pytest

import lotbench
from lotbench import (
    CommonLottery,
    Fill,
    Instance,
    Linear,
    LinearProgram,
    LotbenchError,
    LpSolution,
    PositionMasses,
    SeparableConcave,
    build_designer_lp,
    build_min_mass_lp,
    convexity_report,
    expand_common_lottery,
    feasibility_report,
    lottery_from_masses,
    optimal_masses,
    position_masses,
    simplex_solve,
    solve_designer,
    solve_min_mass,
    uniform_instance,
)

from lotbench import instance, lpsolve
from lotbench.lpsolve import (
    _certificate_fault,
    _check_certificate,
    _common_lottery_fault,
    _common_lottery_solution,
    _designer_candidate,
    _min_mass_candidate,
)
from util import (
    new_instance,
    random_convex_instance,
    random_instance,
    random_pmf,
    reference_weights,
)

F = Fraction
ZERO = F(0)


def test_single_constraint_max():
    lp = LinearProgram("max", [F(1)], [[F(1)]], ["<="], [F(3)], ["x"], ["cap"])
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == 3
    assert sol.primal["x"] == 3
    assert sol.duals["cap"] == 1


def test_wrong_length_row_rejected():
    with pytest.raises(LotbenchError, match="every constraint row needs 2 entries"):
        LinearProgram(
            "max", [F(1), F(1)], [[F(1)]], ["<="], [F(3)], ["x", "y"], ["cap"]
        )


def test_mixed_relations_and_duals():
    lp = LinearProgram(
        "min",
        [F(2), F(3)],
        [[F(1), F(1)], [F(1), F(0)]],
        [">=", "<="],
        [F(4), F(3)],
        ["x", "y"],
        ["demand", "cap"],
    )
    sol = simplex_solve(lp)
    assert sol.objective == 9
    assert (sol.primal["x"], sol.primal["y"]) == (3, 1)
    # shadow prices: one more unit of demand costs 3, one more of cap saves 1
    assert sol.duals["demand"] == 3
    assert sol.duals["cap"] == -1


def test_infeasible_and_unbounded():
    lp = LinearProgram(
        "min", [F(1)], [[F(1)], [F(1)]], ["<=", ">="], [F(1), F(2)], ["x"], ["a", "b"]
    )
    assert simplex_solve(lp).status == "infeasible"
    lp = LinearProgram("max", [F(1)], [[F(1)]], [">="], [F(0)], ["x"], ["a"])
    assert simplex_solve(lp).status == "unbounded"


def test_free_variable_and_negative_rhs():
    # a variable of either sign is the difference x = xp - xm of two >= 0
    lp = LinearProgram(
        "min", [F(1), F(-1)], [[F(1), F(-1)]], ["="], [F(-5)], ["xp", "xm"], ["eq"]
    )
    sol = simplex_solve(lp)
    assert sol.primal["xp"] - sol.primal["xm"] == -5 and sol.objective == -5
    assert sol.duals["eq"] == 1


def test_variable_bounds():
    # bounds other than x >= 0 are rows
    lp = LinearProgram(
        "max", [F(1)], [[F(1)], [F(1)]], [">=", "<="], [F(1, 2), F(7, 3)],
        ["x"], ["lo", "up"],
    )
    sol = simplex_solve(lp)
    assert sol.primal["x"] == F(7, 3)
    assert (sol.duals["lo"], sol.duals["up"]) == (0, 1)


def test_degenerate_cycling_instance_terminates():
    # classic cycling example for naive pivoting; Bland's rule must finish
    lp = LinearProgram(
        "min",
        [F(-3, 4), F(150), F(-1, 50), F(6)],
        [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ],
        ["<=", "<=", "<="],
        [F(0), F(0), F(1)],
        ["x1", "x2", "x3", "x4"],
        ["r1", "r2", "r3"],
    )
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == F(-1, 20)
    assert sol.primal["x1"] == F(1, 25) and sol.primal["x3"] == 1


def test_designer_lp_uniform_fill():
    inst = uniform_instance(4)
    mech, value = solve_designer(inst, Fill())
    assert value == F(17, 24)
    assert feasibility_report(inst, mech).is_feasible
    assert position_masses(inst, mech).s == (F(0), F(5, 24), F(1, 4), F(1, 4))


def test_designer_lp_nonconvex_instance():
    inst = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)
    _, value = solve_designer(inst, Fill())
    assert value == F(2, 3)


def test_designer_lp_rejects_concave():
    obj = SeparableConcave(weights=(F(1),) * 4, rho=F(1, 2))
    with pytest.raises(LotbenchError, match="the designer LP requires a linear objective"):
        build_designer_lp(uniform_instance(4), obj)


def test_min_mass_uniform_targets():
    inst = uniform_instance(4)
    targets = PositionMasses.from_values(["0", "5/24", "1/4", "1/4"])
    mm = solve_min_mass(inst, targets)
    assert mm.status == "optimal"
    assert mm.d_star == 1
    assert mm.multipliers["POS"] == {
        k: mm.d_star / inst.cdf(k) for k in range(4)
    }
    assert mm.multipliers["AGE"][0] == mm.d_star
    # recovered mechanism actually delivers the targets
    assert position_masses(inst, mm.mechanism).s == targets.s
    assert feasibility_report(inst, mm.mechanism).is_feasible


def test_min_mass_local_up_multipliers_match_closed_form():
    inst = uniform_instance(4)
    targets = PositionMasses.from_values(["1/16", "1/8", "1/8", "1/8"])
    mm = solve_min_mass(inst, targets)
    n = inst.n
    for i in range(n - 1):
        expected = mm.d_star * inst.f[i + 1] / inst.cdf(i + 1) * (n - 1)
        assert mm.multipliers["IC"][(i, i + 1)] == expected


@pytest.mark.parametrize(
    "targets, message",
    [
        (["1/6", "1/6"], "need 3 target masses, got 2"),
        (["1/6", "-1/6", "1/6"], "targets must be nonnegative"),
    ],
    ids=["length", "negative"],
)
@pytest.mark.parametrize("call", [solve_min_mass, build_min_mass_lp], ids=lambda f: f.__name__)
def test_min_mass_rejects_bad_targets(call, targets, message):
    with pytest.raises(LotbenchError, match=message):
        call(uniform_instance(3), PositionMasses.from_values(targets))


@pytest.mark.parametrize("call", [solve_min_mass, build_min_mass_lp], ids=lambda f: f.__name__)
def test_min_mass_rejects_a_float_target(call):
    # refused where the mass vector is built, before any LP is formed
    with pytest.raises(LotbenchError, match="^masses entries must be Fraction or int, got 0.125$"):
        call(uniform_instance(3), PositionMasses(s=(0.125, 0, 0)))


def test_min_mass_zero_targets():
    inst = uniform_instance(3)
    mm = solve_min_mass(inst, PositionMasses.from_values(["0", "0", "0"]))
    assert mm.status == "optimal" and mm.d_star == 0


def test_min_mass_complementary_slackness_and_strong_duality():
    rng = random.Random(42)
    inst = uniform_instance(5)
    lp = build_min_mass_lp(
        inst, PositionMasses.from_values(["1/32", "1/16", "1/10", "1/8", "1/5"])
    )
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sum(
        sol.duals[name] * rhs for name, rhs in zip(lp.con_names, lp.rhs)
    ) == sol.objective
    for name, row, rel, rhs in zip(lp.con_names, lp.rows, lp.rels, lp.rhs):
        lhs = sum(c * sol.primal[v] for c, v in zip(row, lp.var_names))
        if sol.duals[name] != 0:
            assert lhs == rhs, name


def test_lp_text_dump():
    lp = build_designer_lp(uniform_instance(3), Fill())
    assert "POS[0]" in lp.con_names and "IC[0,1]" in lp.con_names and lp.sense == "max"


def _random_lp(rng):
    """Small LP over x >= 0: any relation, right-hand sides of either sign."""
    nv, m = rng.randint(1, 3), rng.randint(1, 4)
    return LinearProgram(
        rng.choice(["min", "max"]),
        [F(rng.randint(-3, 3)) for _ in range(nv)],
        [[F(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(m)],
        [rng.choice(["<=", "=", ">="]) for _ in range(m)],
        [F(rng.randint(-4, 4)) for _ in range(m)],
        [f"x{j}" for j in range(nv)],
        [f"r{r}" for r in range(m)],
    )


def test_duals_are_shadow_prices():
    """Where the optimum is differentiable in a row's right-hand side, the
    reported dual is that derivative exactly."""
    rng = random.Random(2024)
    eps = F(1, 10**6)
    checked = 0
    for _ in range(500):
        lp = _random_lp(rng)
        base = simplex_solve(lp)
        if base.status != "optimal":
            continue
        for r, name in enumerate(lp.con_names):
            sides = []
            for step in (eps, -eps):
                rhs = list(lp.rhs)
                rhs[r] += step
                moved = simplex_solve(replace(lp, rhs=rhs))
                if moved.status == "optimal":
                    sides.append((moved.objective - base.objective) / step)
            if len(sides) == 2 and sides[0] == sides[1]:
                assert base.duals[name] == sides[0], (lp, name)
                checked += 1
    assert checked >= 200


def _one_var_lp(**changes):
    lp = dict(
        sense="max", c=[F(1)], rows=[[F(1)]], rels=["<="], rhs=[F(3)],
        var_names=["x"], con_names=["cap"],
    )
    lp.update(changes)
    return LinearProgram(**lp)


def test_unknown_sense_rejected():
    with pytest.raises(LotbenchError, match="sense must be 'min' or 'max'"):
        _one_var_lp(sense="minimize")


@pytest.mark.parametrize("rel", ["<", "=<", "=="])
def test_unknown_relation_rejected(rel):
    with pytest.raises(LotbenchError, match="every relation must be"):
        _one_var_lp(rels=[rel])


@pytest.mark.parametrize("bound", ["lower", "upper"])
def test_bound_keywords_are_refused(bound):
    # every variable is >= 0; any other bound is written as a row
    with pytest.raises(TypeError, match=bound):
        _one_var_lp(**{bound: [F(0)]})


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(c=[F(1), F(2)]), "objective has 2 entries, need 1"),
        (dict(rels=["<=", "<="]), "must align"),
        (dict(rhs=[F(3), F(4)]), "must align"),
        (dict(con_names=["cap", "cap2"]), "must align"),
    ],
    ids=["objective-length", "rels", "rhs", "con_names"],
)
def test_misshapen_program_rejected(changes, message):
    with pytest.raises(LotbenchError, match=message):
        _one_var_lp(**changes)


def test_duplicate_names_rejected():
    with pytest.raises(LotbenchError, match="names must be unique"):
        _one_var_lp(c=[F(1), F(1)], rows=[[F(1), F(1)]], var_names=["x", "x"])
    with pytest.raises(LotbenchError, match="names must be unique"):
        _one_var_lp(
            rows=[[F(1)], [F(1)]], rels=["<=", "<="], rhs=[F(3), F(4)],
            con_names=["cap", "cap"],
        )


def _designer_and_min_mass_lps(program):
    rng = random.Random(8)
    for t in range(16):
        n = 2 + t % 4
        inst = Instance(
            n=n,
            f=random_pmf(rng, n),
            g=random_pmf(rng, n, full_support=False),
            d=F(rng.randint(1, 8), rng.randint(1, 4)),
        )
        if program == "min_mass":
            s = [F(rng.randint(0, 6), rng.randint(8, 40)) for _ in range(n)]
            yield build_min_mass_lp(inst, PositionMasses(s=tuple(s)))
        elif t % 2 == 0:
            yield build_designer_lp(inst, Fill())
        else:
            yield build_designer_lp(
                inst, Linear(weights=tuple(F(rng.randint(0, 5)) for _ in range(n)))
            )


@pytest.mark.parametrize("program", ["designer", "min_mass"])
def test_dual_certificate_of_mechanism_lps(program):
    """The reported duals certify optimality exactly: sign, dual
    feasibility, complementary slackness and strong duality."""
    for lp in _designer_and_min_mass_lps(program):
        sol = simplex_solve(lp)
        assert sol.status == "optimal"
        # Read in the min sense (these programs have no = rows): a >= row
        # prices nonnegative, a <= row nonpositive, and every reduced cost
        # is nonnegative.
        sign = 1 if lp.sense == "min" else -1
        y = [sol.duals[name] for name in lp.con_names]
        x = [sol.primal[v] for v in lp.var_names]
        for name, yr, row, rel, rhs in zip(lp.con_names, y, lp.rows, lp.rels, lp.rhs):
            assert sign * yr >= 0 if rel == ">=" else sign * yr <= 0, name
            if yr != 0:
                assert sum(a * xj for a, xj in zip(row, x)) == rhs, name
        for j, name in enumerate(lp.var_names):
            reduced = lp.c[j] - sum(yr * row[j] for yr, row in zip(y, lp.rows))
            assert sign * reduced >= 0, name
            if x[j] != 0:
                assert reduced == 0, name
        assert sum(yr * rhs for yr, rhs in zip(y, lp.rhs)) == sol.objective


@pytest.mark.parametrize(
    "changes",
    [
        dict(c=[0.1]),
        dict(rows=[[3.0]]),
        dict(rhs=[1.0]),
        dict(rhs=[True]),
        # bounds are rows: x >= 0.5, then x <= 2.5
        dict(rows=[[F(1)], [F(1)]], rels=["<=", ">="], rhs=[F(3), 0.5],
             con_names=["cap", "lo"]),
        dict(rows=[[F(1)], [F(1)]], rels=["<=", "<="], rhs=[F(3), 2.5],
             con_names=["cap", "up"]),
        dict(rows=[["3"]]),
        dict(rows=[[True]]),
        dict(c=[numpy.int64(1)]),
        dict(c=[numpy.float64(1)]),
    ],
)
def test_inexact_entries_rejected(changes):
    with pytest.raises(LotbenchError, match="LP entries must be Fraction or int"):
        _one_var_lp(**changes)


def test_the_first_inexact_entry_is_named():
    with pytest.raises(LotbenchError, match=r"got 2\.5$"):
        _one_var_lp(c=[F(1), 1], rows=[[F(1), 2.5]], var_names=["x", "y"])


class _Ratio(F):
    pass


class _Count(int):
    pass


def test_int_entries_accepted():
    sol = simplex_solve(_one_var_lp(c=[2], rows=[[3]], rhs=[1]))
    assert sol.objective == F(2, 3) and sol.duals["cap"] == F(2, 3)
    sol = simplex_solve(_one_var_lp(c=[_Count(2)], rows=[[_Ratio(3)]], rhs=[_Ratio(1)]))
    assert sol.objective == F(2, 3) and sol.duals["cap"] == F(2, 3)


def test_general_optima_pass_the_certificate():
    """Random LPs over x >= 0, with every relation and right-hand sides of
    either sign, beyond the mechanism programs' shape."""
    rng = random.Random(77)
    certified = 0
    for _ in range(600):
        lp = _random_lp(rng)
        sol = simplex_solve(lp)
        if sol.status == "optimal":
            _check_certificate(lp, sol)
            certified += 1
    assert certified >= 150


def test_mechanism_lps_start_on_a_feasible_basis():
    """The all-zero mechanism is feasible, so a designer LP, and a min-mass
    LP with all-zero targets, make no phase-1 pivot."""
    rng = random.Random(9)
    for t in range(30):
        n = 2 + t % 5
        inst = Instance(
            n=n,
            f=random_pmf(rng, n),
            g=random_pmf(rng, n, full_support=False),
            d=F(rng.randint(1, 8), rng.randint(1, 4)),
        )
        if t % 2 == 0:
            obj = Fill()
        else:
            obj = Linear(weights=tuple(F(rng.randint(0, 5)) for _ in range(n)))
        sol = simplex_solve(build_designer_lp(inst, obj))
        assert sol.status == "optimal" and sol.pivots[0] == 0, (inst, obj)
        if n >= 3:
            assert sol.pivots[1] > 0
    zero = PositionMasses.from_values(["0"] * 4)
    sol = simplex_solve(build_min_mass_lp(uniform_instance(4), zero))
    assert sol.status == "optimal" and sol.objective == 0 and sol.pivots[0] == 0
    # a positive target still needs phase 1
    lp = build_min_mass_lp(uniform_instance(4), PositionMasses.from_values(["1/8"] * 4))
    assert simplex_solve(lp).pivots[0] > 0


def _optimal_mechanism_lps():
    inst = new_instance(4, ["2/5", "3/10", "1/5", "1/10"], ["1/4", "1/4", "1/4", "1/4"], "3/2")
    designer = build_designer_lp(inst, Fill())
    min_mass = build_min_mass_lp(inst, PositionMasses.from_values(["1/16", "1/8", "0", "1/8"]))
    return [(lp, simplex_solve(lp)) for lp in (designer, min_mass)]


def _nudged_off_a_row(lp, sol):
    """Move one variable so that a tight row it appears in breaks."""
    for row, rel, b in zip(lp.rows, lp.rels, lp.rhs):
        if sum(a * sol.primal[v] for a, v in zip(row, lp.var_names)) != b:
            continue
        for a, v in zip(row, lp.var_names):
            if a != 0 and rel != "=":
                step = F(1, 1000) if (rel == "<=") == (a > 0) else F(-1, 1000)
                return replace(sol, primal={**sol.primal, v: sol.primal[v] + step})
    raise AssertionError("no tight row")


def _one_dual_flipped(lp, sol):
    name = next(n for n, r in zip(lp.con_names, lp.rels) if sol.duals[n] != 0 and r != "=")
    return replace(sol, duals={**sol.duals, name: -sol.duals[name]})


def _one_reduced_cost_broken(lp, sol):
    """Raise one dual further in its allowed direction on a row that
    holds a variable away from its bound: its reduced cost turns nonzero."""
    sign = 1 if lp.sense == "min" else -1
    for name, row, rel in zip(lp.con_names, lp.rows, lp.rels):
        if rel == "=" or not any(a and sol.primal[v] for a, v in zip(row, lp.var_names)):
            continue
        step = sign * (1 if rel == ">=" else -1)
        return replace(sol, duals={**sol.duals, name: sol.duals[name] + step})
    raise AssertionError("no row holds a positive variable")


@pytest.mark.parametrize(
    "corrupt, fault",
    [
        (_nudged_off_a_row, "row .* is violated"),
        (_one_dual_flipped, "the dual of .* has the wrong sign"),
        (_one_reduced_cost_broken, "the reduced cost of .* has the wrong sign"),
        (lambda lp, sol: replace(sol, objective=sol.objective + F(1, 1000)),
         "c.x differs from the objective"),
    ],
)
def test_certificate_rejects_a_broken_optimum(corrupt, fault):
    for lp, sol in _optimal_mechanism_lps():
        _check_certificate(lp, sol)
        with pytest.raises(AssertionError, match=fault):
            _check_certificate(lp, corrupt(lp, sol))


def _one_variable_negative(lp, sol):
    """Set to -1 a variable that no row holds back from going down: its
    coefficient is >= 0 in every <= row, <= 0 in every >= row, 0 in every
    = row, so every row still holds."""
    safe = {"<=": lambda a: a >= 0, ">=": lambda a: a <= 0, "=": lambda a: a == 0}
    for j, v in enumerate(lp.var_names):
        if all(safe[rel](row[j]) for row, rel in zip(lp.rows, lp.rels)):
            return v, replace(sol, primal={**sol.primal, v: F(-1)})
    raise AssertionError("every variable is held back by a row")


def test_certificate_rejects_a_negative_variable():
    one_var = _one_var_lp()
    designer, _ = _optimal_mechanism_lps()
    for lp, sol in [(one_var, simplex_solve(one_var)), designer]:
        _check_certificate(lp, sol)
        name, broken = _one_variable_negative(lp, sol)
        # rows are checked first, so this fault also shows that they hold
        with pytest.raises(AssertionError, match=rf"{re.escape(name)} is negative"):
            _check_certificate(lp, broken)


def _closed_form_ic(inst):
    """The decomposition's closed-form multipliers on the LP's IC rows,
    which are the transform's scaled ones over N - 1; every other IC row 0."""
    n = inst.n
    up, down = reference_weights(range(n), [inst.cdf(k) for k in range(n)])
    ic = {(i, j): ZERO for i in range(n) for j in range(n) if i != j}
    for i, w in enumerate(up):
        ic[(i, i + 1)] = (n - 1) * w
    for i, row in enumerate(down):
        for j, w in enumerate(row):
            ic[(i, j)] = (n - 1) * w
    return ic


def _closed_form_multipliers(inst, d_star):
    n = inst.n
    ic = _closed_form_ic(inst)
    return {
        "POS": {k: d_star / inst.cdf(k) for k in range(n)},
        "AGE": {i: d_star if i == 0 else ZERO for i in range(n)},
        "IC": {pair: d_star * w for pair, w in ic.items()},
    }


def test_min_mass_multipliers_are_the_closed_form_on_convex_instances():
    rng = random.Random(31)
    for t in range(100):
        inst = random_convex_instance(rng, 2 + t % 5, 2 + t % 5)
        shares = [F(rng.randint(0, 3), 4) for _ in range(inst.n)]
        targets = PositionMasses(s=tuple(g * c for g, c in zip(inst.g, shares)))
        mm = solve_min_mass(inst, targets)
        assert mm.status == "optimal"
        assert mm.multipliers == _closed_form_multipliers(inst, mm.d_star), (inst, targets)


def _closed_form_designer_duals(inst, obj):
    """The designer candidate's duals as written, and whether the budget
    binds: lam = min w_k F_k over s_k > 0 when sum_k s_k/F_k = D, else 0;
    AGE[0] = lam D, POS[k] = max(0, w_k - lam/F_k), the IC rows -lam D
    times the decomposition's multipliers, and every other row 0."""
    n, d = inst.n, inst.d
    weights = (1,) * n if isinstance(obj, Fill) else obj.weights
    s = optimal_masses(inst, obj).masses.s
    cdf = [inst.cdf(k) for k in range(n)]
    binds = sum(sk / fk for sk, fk in zip(s, cdf)) == d
    lam = min(w * fk for w, sk, fk in zip(weights, s, cdf) if sk) if binds else ZERO
    duals = {f"IC[{i},{j}]": -lam * d * w for (i, j), w in _closed_form_ic(inst).items()}
    duals |= {f"POS[{k}]": max(ZERO, w - lam / fk) for k, (w, fk) in enumerate(zip(weights, cdf))}
    duals |= {f"AGE[{i}]": lam * d if i == 0 else ZERO for i in range(n)}
    return duals, binds


def test_designer_candidate_duals_are_the_closed_form():
    rng = random.Random(1919)
    seen = dict.fromkeys(
        ["convex", "non-convex", "binding", "slack", "Fill", "zero weight", "negative weight"], 0
    )
    for t in range(150):
        inst = random_convex_instance(rng, 2, 7) if t % 2 else random_instance(rng, 2, 7)
        if t % 3 == 0:
            obj = Fill()
        else:
            obj = Linear(weights=tuple(
                F(rng.randint(-2, 5), rng.randint(1, 3)) for _ in range(inst.n)
            ))
        want, binds = _closed_form_designer_duals(inst, obj)
        sol = _common_lottery_solution(inst, *_designer_candidate(inst, obj))
        assert sol.duals == want, (inst, obj)
        seen["convex" if convexity_report(inst).is_convex else "non-convex"] += 1
        seen["binding" if binds else "slack"] += 1
        if isinstance(obj, Fill):
            seen["Fill"] += 1
        else:
            seen["zero weight"] += 0 in obj.weights
            seen["negative weight"] += any(w < 0 for w in obj.weights)
    assert min(seen.values()) >= 20, seen


def test_min_mass_multipliers_certify_on_a_nonconvex_instance():
    inst = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)
    assert not convexity_report(inst).is_convex
    lp = build_min_mass_lp(inst, PositionMasses.from_values(["1/6", "1/3", "1/3"]))
    mm = solve_min_mass(inst, PositionMasses.from_values(["1/6", "1/3", "1/3"]))
    assert mm.multipliers != _closed_form_multipliers(inst, mm.d_star)
    raw = {f"POS[{k}]": v / mm.d_star for k, v in mm.multipliers["POS"].items()}
    raw |= {f"AGE[{i}]": -v / mm.d_star for i, v in mm.multipliers["AGE"].items()}
    raw |= {f"IC[{i},{j}]": v / mm.d_star for (i, j), v in mm.multipliers["IC"].items()}
    _check_certificate(lp, replace(mm.solution, duals=raw))


def _random_rational_lp(rng):
    """Small LP over x >= 0 whose entries are p/q with q in 1-5, so that
    tableau columns carry mixed denominators: any relation, right-hand
    sides of either sign."""
    def rational(bound):
        return F(rng.randint(-bound, bound), rng.randint(1, 5))

    nv, m = rng.randint(1, 4), rng.randint(1, 5)
    return LinearProgram(
        rng.choice(["min", "max"]),
        [rational(4) for _ in range(nv)],
        [[rational(4) for _ in range(nv)] for _ in range(m)],
        [rng.choice(["<=", "=", ">="]) for _ in range(m)],
        [rational(5) for _ in range(m)],
        [f"x{j}" for j in range(nv)],
        [f"r{r}" for r in range(m)],
    )


def test_mixed_denominator_optima_pass_the_certificate():
    rng = random.Random(2718)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(800):
        lp = _random_rational_lp(rng)
        sol = simplex_solve(lp)
        statuses[sol.status] += 1
        if sol.status == "optimal":
            _check_certificate(lp, sol)
    assert statuses["optimal"] >= 150 and min(statuses.values()) > 0, statuses


def _with_zero_row(lp, at, rel, b, name):
    """lp with the row 0 (rel) b inserted before row at."""
    return replace(
        lp,
        rows=lp.rows[:at] + [[ZERO] * len(lp.c)] + lp.rows[at:],
        rels=lp.rels[:at] + [rel] + lp.rels[at:],
        rhs=lp.rhs[:at] + [b] + lp.rhs[at:],
        con_names=lp.con_names[:at] + [name] + lp.con_names[at:],
    )


def test_zero_rows_change_no_pivot_and_price_zero():
    """An all-zero row with rhs 0 holds at every point, under any relation:
    adding it moves no status, pivot, primal value, objective or dual of
    the other rows, and it prices 0.  With a nonzero rhs it is a real
    constraint on nothing: the answer is kept where 0 satisfies it, and
    phase 1 finds the program infeasible where 0 violates it."""
    rng = random.Random(2718)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    violated = 0
    for _ in range(400):
        lp = _random_rational_lp(rng)
        sol = simplex_solve(lp)
        statuses[sol.status] += 1
        padded, added = lp, []
        for t, rel in enumerate(rng.sample(["<=", "=", ">="], rng.randint(1, 3))):
            added.append(f"zero{t}")
            at = rng.randint(0, len(padded.rows))
            padded = _with_zero_row(padded, at, rel, ZERO, added[-1])
        got = simplex_solve(padded)
        assert (got.status, got.pivots, got.primal, got.objective) == (
            sol.status, sol.pivots, sol.primal, sol.objective
        )
        assert {name: got.duals[name] for name in sol.duals} == sol.duals
        if got.status == "optimal":
            assert all(got.duals[name] == 0 for name in added)
            _check_certificate(padded, got)

        rel, b = rng.choice(["<=", "=", ">="]), F(rng.choice([-1, 1]) * rng.randint(1, 5), 3)
        got = simplex_solve(_with_zero_row(lp, rng.randint(0, len(lp.rows)), rel, b, "nonzero"))
        if (rel != ">=" and b < 0) or (rel != "<=" and b > 0):
            violated += 1
            assert got.status == "infeasible"
        else:
            assert (got.status, got.pivots, got.primal, got.objective) == (
                sol.status, sol.pivots, sol.primal, sol.objective
            )
            if got.status == "optimal":
                assert got.duals["nonzero"] == 0
    assert min(statuses.values()) > 0 and 0 < violated < 400, (statuses, violated)


@pytest.mark.parametrize("n, pivots", [(10, (0, 165)), (12, (0, 122))])
def test_designer_lp_pivot_path_is_pinned(n, pivots):
    """Bland's rule fixes the pivot sequence, and with it which optimal
    vertex the simplex reaches (the answer wherever the common lottery's
    certificate fails); a change in the tableau's arithmetic must not
    move it."""
    rng = random.Random(1)
    f = random_pmf(rng, n)
    inst = Instance(n=n, f=f, g=random_pmf(rng, n), d=F(3, 2))
    lp = build_designer_lp(inst, Fill())
    sol = simplex_solve(lp)
    assert sol.pivots == pivots
    assert _certificate_fault(lp, sol) is None


@pytest.mark.parametrize("n, pivots", [(8, (66, 14)), (10, (145, 41))])
def test_min_mass_lp_pivot_path_is_pinned(n, pivots):
    """The min-mass LP starts on artificials, so its pin covers phase 1
    and the pass that drives artificials out as well as phase 2.  Its
    common lottery is refused, so this vertex is `solve_min_mass`'s
    answer."""
    rng = random.Random(1)
    inst = Instance(n=n, f=random_pmf(rng, n), g=random_pmf(rng, n), d=F(3, 2))
    targets = PositionMasses(s=tuple(F(rng.randint(0, 5), 7) for _ in range(n)))
    assert _common_lottery_fault(inst, *_min_mass_candidate(inst, targets)) is not None
    lp = build_min_mass_lp(inst, targets)
    sol = simplex_solve(lp)
    assert sol.pivots == pivots
    assert _certificate_fault(lp, sol) is None


def _reference_rows(inst, pos_scale):
    """The mechanism rows straight from their definition, cell by cell:
    the gain x_k - x_i added into a (k, i) -> column dict.  Zeros are int
    0 and nonzeros Fraction."""
    n = inst.n
    cells = [(k, i) for k in range(n) for i in range(k + 1)]
    index_of = {cell: t for t, cell in enumerate(cells)}
    rows, names = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = [ZERO] * len(cells)
            for k in range(i, n):
                gain = inst.x(k) - inst.x(i)
                row[index_of[(k, i)]] += gain
                if k >= j:
                    row[index_of[(k, j)]] -= gain
            rows.append(row)
            names.append(f"IC[{i},{j}]")
    for k in range(n):
        row = [ZERO] * len(cells)
        for i in range(k + 1):
            row[index_of[(k, i)]] = pos_scale * inst.f[i]
        rows.append(row)
        names.append(f"POS[{k}]")
    for i in range(n):
        row = [ZERO] * len(cells)
        for k in range(i, n):
            row[index_of[(k, i)]] = F(1)
        rows.append(row)
        names.append(f"AGE[{i}]")
    return cells, [[v if v else 0 for v in row] for row in rows], names


def _reference_designer_lp(inst, weights):
    n = inst.n
    cells, rows, names = _reference_rows(inst, inst.d)
    return LinearProgram(
        "max",
        [weights[k] * inst.d * inst.f[i] for k, i in cells],
        rows,
        [">="] * (n * (n - 1)) + ["<="] * (2 * n),
        [0] * (n * (n - 1)) + list(inst.g) + [F(1)] * n,
        [f"a[{k}][{i}]" for k, i in cells],
        names,
    )


def _reference_min_mass_lp(inst, s):
    n = inst.n
    cells, rows, names = _reference_rows(inst, F(1))
    d_col = [0] * (n * n) + [F(-1)] * n
    return LinearProgram(
        "min",
        [0] * len(cells) + [F(1)],
        [row + [v] for row, v in zip(rows, d_col)],
        [">="] * (n * n) + ["<="] * n,
        [0] * (n * (n - 1)) + list(s) + [0] * n,
        [f"y[{k}][{i}]" for k, i in cells] + ["D"],
        names,
    )


def _assert_same_lp(lp, ref):
    assert lp.sense == ref.sense
    assert lp.var_names == ref.var_names and lp.con_names == ref.con_names
    assert lp.rels == ref.rels
    for got, want in [(lp.c, ref.c), (lp.rhs, ref.rhs), *zip(lp.rows, ref.rows)]:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b and type(a) is type(b), (a, b)


def test_mechanism_rows_match_the_definition():
    rng = random.Random(12)
    for n in range(2, 10):
        inst = Instance(
            n=n,
            f=random_pmf(rng, n),
            g=random_pmf(rng, n, full_support=False),
            d=F(rng.randint(1, 8), rng.randint(1, 4)),
        )
        weights = tuple(F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n))
        fill = build_designer_lp(inst, Fill())
        _assert_same_lp(fill, _reference_designer_lp(inst, (1,) * n))
        # the names are the LP's own lists: changing them changes no other LP
        fill.var_names.reverse()
        fill.con_names.clear()
        _assert_same_lp(
            build_designer_lp(inst, Linear(weights=weights)),
            _reference_designer_lp(inst, weights),
        )
        s = tuple(F(rng.randint(0, 6), rng.randint(8, 40)) for _ in range(n))
        _assert_same_lp(
            build_min_mass_lp(inst, PositionMasses(s=s)), _reference_min_mass_lp(inst, s)
        )


def test_certificate_rejects_a_wrong_dual_objective():
    """max x s.t. x <= 1, x <= 2, priced 1/2 each: the rows, dual signs,
    reduced costs and c.x all hold, but y.b = 3/2 is not the optimum 1."""
    lp = LinearProgram(
        "max", [F(1)], [[F(1)], [F(1)]], ["<=", "<="], [F(1), F(2)], ["x"], ["cap", "loose"]
    )
    sol = simplex_solve(lp)
    assert sol.objective == 1 and _certificate_fault(lp, sol) is None
    broken = replace(sol, duals={"cap": F(1, 2), "loose": F(1, 2)})
    assert _certificate_fault(lp, broken) == "the dual objective differs from the objective"


def test_certificate_rejects_a_dual_of_the_wrong_sign():
    """max x s.t. R1: x <= 1, R2: x <= 1 at x = 1, priced (2, -1): the
    reduced cost 1 - 2 + 1 = 0, c.x and y.b = 1 all hold, so only the sign
    of R2's dual (a <= row of a max prices >= 0) refuses it."""
    lp = LinearProgram(
        "max", [F(1)], [[F(1)], [F(1)]], ["<=", "<="], [F(1), F(1)], ["x"], ["R1", "R2"]
    )
    sol = LpSolution("optimal", F(1), {"x": F(1)}, {"R1": F(2), "R2": F(-1)})
    assert _certificate_fault(lp, sol) == "the dual of R2 has the wrong sign"
    assert _certificate_fault(lp, replace(sol, duals={"R1": F(1), "R2": F(0)})) is None


@pytest.mark.parametrize(
    "corrupt, fault",
    [
        (_nudged_off_a_row, "row .* is violated"),
        (_one_dual_flipped, "the dual of .* has the wrong sign"),
        (_one_reduced_cost_broken, "the reduced cost of .* has the wrong sign"),
        (lambda lp, sol: replace(sol, objective=sol.objective + F(1, 1000)),
         "c.x differs from the objective"),
    ],
)
def test_certificate_rejects_broken_mixed_denominator_optima(corrupt, fault):
    """The same corruptions on random LPs whose entries carry mixed
    denominators, where a slip in the integer scaling would hide."""
    rng = random.Random(4242)
    broken = 0
    while broken < 12:
        lp = _random_rational_lp(rng)
        sol = simplex_solve(lp)
        if sol.status != "optimal":
            continue
        try:
            bad = corrupt(lp, sol)
        except (AssertionError, StopIteration):  # the corruption needs another shape
            continue
        _check_certificate(lp, sol)
        with pytest.raises(AssertionError, match=fault):
            _check_certificate(lp, bad)
        broken += 1


def _run_optimized(script):
    """Run script under python -O with this checkout's lotbench; returns
    its stdout lines."""
    src = str(Path(lotbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


# fig4's instance: 1/F is not convex and a menu strictly beats every
# common lottery, so neither closed form certifies there.
FIG4 = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)


def test_lp_certificate_survives_optimize_flag():
    # a wrong optimum must still be refused when -O strips asserts; on
    # fig4's instance the closed forms fail, so the simplex answers
    script = """
    from dataclasses import replace
    from fractions import Fraction
    from lotbench import Fill, Instance, PositionMasses, lpsolve

    inst = Instance.from_json_dict(
        {"n": 3, "f": ["1/3", "1/12", "7/12"], "g": ["1/3", "1/3", "1/3"], "D": 1}
    )
    targets = PositionMasses.from_values(["1/6", "1/3", "1/3"])
    print(lpsolve._common_lottery_fault(
        inst, *lpsolve._designer_candidate(inst, Fill())))
    print(lpsolve._common_lottery_fault(
        inst, *lpsolve._min_mass_candidate(inst, targets)))

    exact = lpsolve.simplex_solve

    def bent(lp):
        sol = exact(lp)
        return replace(sol, objective=sol.objective + Fraction(1, 7))

    lpsolve.simplex_solve = bent
    for solve in (
        lambda: lpsolve.solve_designer(inst, Fill()),
        lambda: lpsolve.solve_min_mass(inst, targets),
    ):
        try:
            solve()
        except AssertionError as exc:
            print(exc)
    """
    no_closed_form = "the dual of IC[1,0] has the wrong sign"
    caught = "LP optimum fails its exact certificate: c.x differs from the objective"
    assert _run_optimized(script) == [no_closed_form] * 2 + [caught] * 2


def _counting_simplex(monkeypatch):
    """Wrap lpsolve.simplex_solve; returns the list of LPs it is called on."""
    calls = []
    exact = lpsolve.simplex_solve

    def counted(lp):
        calls.append(lp)
        return exact(lp)

    monkeypatch.setattr(lpsolve, "simplex_solve", counted)
    return calls


def test_designer_returns_the_common_lottery_on_convex_instances(monkeypatch):
    """With 1/F convex the greedy common lottery certifies, for Fill and
    for weights that are zero or negative, whether the budget binds or
    not; it is returned as is and the simplex never runs."""
    calls = _counting_simplex(monkeypatch)
    rng = random.Random(1515)
    seen = {"binding": 0, "slack": 0, "zero weight": 0, "negative weight": 0}
    for t in range(120):
        inst = random_convex_instance(rng, 2, 8)
        if t % 3 == 0:
            obj = Fill()
            weights = (1,) * inst.n
        else:
            weights = tuple(F(rng.randint(-2, 5), rng.randint(1, 3)) for _ in range(inst.n))
            obj = Linear(weights=weights)
        closed = optimal_masses(inst, obj)
        mech, value = solve_designer(inst, obj)
        assert value == closed.value, (inst, obj)
        assert mech == expand_common_lottery(inst, lottery_from_masses(inst, closed.masses))
        spent = sum(s / inst.cdf(k) for k, s in enumerate(closed.masses.s))
        seen["binding" if spent == inst.d else "slack"] += 1
        seen["zero weight"] += 0 in weights
        seen["negative weight"] += any(w < 0 for w in weights)
    assert calls == []
    assert min(seen.values()) >= 10, seen


def test_min_mass_returns_the_common_lottery_on_convex_instances(monkeypatch):
    calls = _counting_simplex(monkeypatch)
    rng = random.Random(1516)
    for t in range(100):
        inst = random_convex_instance(rng, 2, 7)
        shares = [F(rng.randint(0, 3), 4) for _ in range(inst.n)]
        targets = PositionMasses(s=tuple(g * c for g, c in zip(inst.g, shares)))
        mm = solve_min_mass(inst, targets)
        d_star = sum((s / inst.cdf(k) for k, s in enumerate(targets.s)), ZERO)
        assert mm.d_star == d_star and mm.solution.pivots == (0, 0), (inst, targets)
        c = [s / (d_star * inst.cdf(k)) if d_star else ZERO for k, s in enumerate(targets.s)]
        assert mm.mechanism == expand_common_lottery(inst, CommonLottery(c=tuple(c)))
    assert calls == []


def test_fig4_falls_back_to_the_simplex(monkeypatch):
    """The refused candidate goes straight to the simplex: the LP
    certificate runs once, on the simplex's optimum."""
    calls = _counting_simplex(monkeypatch)
    certified = []
    exact = lpsolve._certificate_fault

    def counted(lp, sol):
        certified.append(sol)
        return exact(lp, sol)

    monkeypatch.setattr(lpsolve, "_certificate_fault", counted)
    assert _common_lottery_fault(FIG4, *_designer_candidate(FIG4, Fill())) is not None
    mech, value = solve_designer(FIG4, Fill())
    assert len(calls) == 1
    assert len(certified) == 1 and certified[0].pivots != (0, 0)
    assert value == F(2, 3) > optimal_masses(FIG4, Fill()).value
    assert feasibility_report(FIG4, mech).is_feasible


def _summed_over_types(n, lp, small):
    """lp's costs, and its rows, relations and right-hand sides on small's
    rows (POS[k] and AGE[0]), with every cell (k, i) added into column k;
    a column after the cells (min-mass's D) keeps its own."""
    n_cells = n * (n + 1) // 2
    column = [k for k in range(n) for _ in range(k + 1)]
    column += range(n, n + len(lp.var_names) - n_cells)
    at = [lp.con_names.index(name) for name in small.con_names]
    summed = []
    for values in [lp.c] + [lp.rows[r] for r in at]:
        out = [ZERO] * len(small.var_names)
        for j, v in zip(column, values):
            out[j] += v
        summed.append(out)
    return summed[0], summed[1:], [lp.rels[r] for r in at], [lp.rhs[r] for r in at]


def test_lottery_program_is_the_mechanism_program_summed_over_types():
    """The reduction the certificate rests on: each column of the lottery
    program, its cost and the right-hand sides are the sums of the
    mechanism program's cells (k, i), i <= k, on the POS rows and AGE[0];
    its optimum is the best common lottery's value for the designer and
    sum_k s_k/F_k for min-mass, whether or not 1/F is convex."""
    rng = random.Random(2525)
    seen = dict.fromkeys(["convex", "non-convex", "Fill", "Linear"], 0)
    for t in range(200):
        inst = random_convex_instance(rng, 2, 8) if t % 2 else random_instance(rng, 2, 8)
        if t % 3 == 0:
            obj = Fill()
        else:
            obj = Linear(weights=tuple(
                F(rng.randint(-2, 5), rng.randint(1, 3)) for _ in range(inst.n)
            ))
        shares = [F(rng.randint(0, 3), 4) for _ in range(inst.n)]
        targets = PositionMasses(s=tuple(g * c for g, c in zip(inst.g, shares)))
        (designer, _), (min_mass, _) = (
            _designer_candidate(inst, obj), _min_mass_candidate(inst, targets)
        )
        for small, lp in ((designer, build_designer_lp(inst, obj)),
                          (min_mass, build_min_mass_lp(inst, targets))):
            assert small.sense == lp.sense
            assert (small.c, small.rows, small.rels, small.rhs) == _summed_over_types(
                inst.n, lp, small
            ), (inst, obj, targets)
        assert simplex_solve(designer).objective == optimal_masses(inst, obj).value
        spend = sum((s / inst.cdf(k) for k, s in enumerate(targets.s)), ZERO)
        assert simplex_solve(min_mass).objective == spend
        seen["convex" if convexity_report(inst).is_convex else "non-convex"] += 1
        seen["Fill" if isinstance(obj, Fill) else "Linear"] += 1
    assert min(seen.values()) >= 40, seen


def test_closed_form_certifies_exactly_when_budget_slack_or_convex():
    """The designer candidate certifies exactly when the greedy leaves
    budget over or 1/F is convex, and the min-mass candidate exactly when
    1/F is convex; every refusal is an IC dual of the wrong sign."""
    rng = random.Random(1701)
    seen = {"non-convex, binding": 0, "non-convex, slack": 0, "convex": 0}
    for t in range(300):
        inst = random_instance(rng, 2, 7)
        if t % 3 == 0:
            obj = Fill()
        else:
            obj = Linear(weights=tuple(
                F(rng.randint(-2, 5), rng.randint(1, 3)) for _ in range(inst.n)
            ))
        convex = convexity_report(inst).is_convex
        masses = optimal_masses(inst, obj).masses.s
        slack = sum((s / inst.cdf(k) for k, s in enumerate(masses)), ZERO) < inst.d
        if convex:
            seen["convex"] += 1
        else:
            seen["non-convex, slack" if slack else "non-convex, binding"] += 1

        lp = build_designer_lp(inst, obj)
        fault = _certificate_fault(
            lp, _common_lottery_solution(inst, *_designer_candidate(inst, obj))
        )
        assert (fault is None) == (slack or convex), (inst, obj, fault)
        assert fault is None or fault.startswith("the dual of IC["), fault

        shares = [F(rng.randint(0, 3), 4) for _ in range(inst.n)]
        targets = PositionMasses(s=tuple(g * c for g, c in zip(inst.g, shares)))
        lp = build_min_mass_lp(inst, targets)
        fault = _certificate_fault(
            lp, _common_lottery_solution(inst, *_min_mass_candidate(inst, targets))
        )
        assert (fault is None) == convex, (inst, targets, fault)
        assert fault is None or fault.startswith("the dual of IC["), fault
    assert min(seen.values()) >= 30, seen


def test_corrupted_candidate_is_refused_under_optimize_flag():
    """A candidate whose objective is off fails its certificate even when
    -O strips asserts; the solver then returns the simplex's certified
    optimum."""
    script = """
    from dataclasses import replace
    from fractions import Fraction
    from lotbench import Fill, PositionMasses, lpsolve, uniform_instance

    def corrupted(make):
        def candidate(*args):
            lp, sol = make(*args)
            return lp, replace(sol, objective=sol.objective + Fraction(1, 7))
        return candidate

    calls = []
    exact = lpsolve.simplex_solve

    def counted(lp):
        calls.append(lp)
        return exact(lp)

    lpsolve._designer_candidate = corrupted(lpsolve._designer_candidate)
    lpsolve._min_mass_candidate = corrupted(lpsolve._min_mass_candidate)
    lpsolve.simplex_solve = counted
    inst = uniform_instance(4)
    targets = PositionMasses.from_values(["0", "5/24", "1/4", "1/4"])
    _, value = lpsolve.solve_designer(inst, Fill())
    mm = lpsolve.solve_min_mass(inst, targets)
    for lp, got in zip(calls, (value, mm.d_star)):
        sol = exact(lp)
        print(got == sol.objective, lpsolve._certificate_fault(lp, sol))
    print(len(calls), mm.solution.pivots != (0, 0))
    """
    assert _run_optimized(script) == ["True None", "True None", "2 True"]


def _corruptions(sol, n, rng):
    """The candidate's priced solution as built, then with its value off
    by 1/7, one mass off, lam off (AGE[0]'s price, which scales the IC
    prices), and one POS price off (below 0 where it is 0)."""
    def moved(field, name, step):
        return replace(sol, **{field: {**getattr(sol, field), name: getattr(sol, field)[name] + step}})

    pos = f"POS[{rng.randrange(n)}]"
    return {
        "as built": sol,
        "value": replace(sol, objective=sol.objective + F(1, 7)),
        "mass": moved("primal", f"x[{rng.randrange(n)}]",
                      F(rng.choice((-1, 1)), 7 * rng.randint(1, 3))),
        "lam": moved("duals", "AGE[0]", F(rng.choice((-1, 1)), 7)),
        "pos": moved("duals", pos, F(-1 if sol.duals[pos] == 0 else rng.choice((-1, 1)), 7)),
    }


def test_decomposition_certificate_agrees_with_the_lp_certificate():
    """For N <= 10 the certificate over the decomposition accepts exactly
    the candidates that `_certificate_fault` accepts on the full LP:
    convex and non-convex instances, Fill and Linear objectives with zero
    and negative weights, binding and slack budgets, and candidates
    corrupted in their value, one mass, lam or one POS price."""
    rng = random.Random(2424)
    seen = dict.fromkeys(
        ["convex", "non-convex", "binding", "slack", "zero weight", "negative weight"], 0
    )
    decided = {}
    for t in range(120):
        inst = random_convex_instance(rng, 2, 10) if t % 2 else random_instance(rng, 2, 10)
        if t % 3 == 0:
            obj, weights = Fill(), (1,) * inst.n
        else:
            weights = tuple(F(rng.randint(-2, 5), rng.randint(1, 3)) for _ in range(inst.n))
            obj = Linear(weights=weights)
        shares = [F(rng.randint(0, 3), 4) for _ in range(inst.n)]
        targets = PositionMasses(s=tuple(g * c for g, c in zip(inst.g, shares)))
        masses = optimal_masses(inst, obj).masses.s
        binds = sum((s / inst.cdf(k) for k, s in enumerate(masses)), ZERO) == inst.d
        seen["convex" if convexity_report(inst).is_convex else "non-convex"] += 1
        seen["binding" if binds else "slack"] += 1
        seen["zero weight"] += 0 in weights
        seen["negative weight"] += any(w < 0 for w in weights)
        for program, (small, sol), lp in (
            ("designer", _designer_candidate(inst, obj), build_designer_lp(inst, obj)),
            ("min-mass", _min_mass_candidate(inst, targets), build_min_mass_lp(inst, targets)),
        ):
            for how, bent in _corruptions(sol, inst.n, rng).items():
                ours = _common_lottery_fault(inst, small, bent)
                oracle = _certificate_fault(lp, _common_lottery_solution(inst, small, bent))
                assert (ours is None) == (oracle is None), (inst, obj, program, how, ours, oracle)
                key = (program, how, ours is None)
                decided[key] = decided.get(key, 0) + 1
    assert min(seen.values()) >= 15, seen
    for program in ("designer", "min-mass"):
        assert decided[program, "as built", True] >= 15, decided
        assert decided[program, "as built", False] >= 10, decided
        assert (program, "value", True) not in decided, decided
        assert decided[program, "mass", False] >= 60, decided
        assert decided[program, "lam", False] >= 60, decided
        assert decided[program, "pos", False] >= 60, decided
    # lam < 0 with the dual value kept by one POS price, on a lottery that
    # offers nothing: only the sign of the IC and AGE[0] duals refuses it
    inst, obj = uniform_instance(3), Linear(weights=(F(-1),) * 3)
    small, sol = _designer_candidate(inst, obj)
    prices = {"POS[0]": F(3, 10), "POS[1]": ZERO, "POS[2]": ZERO, "AGE[0]": F(-1, 10)}
    bent = replace(sol, duals=prices)
    lp = build_designer_lp(inst, obj)
    assert _certificate_fault(lp, _common_lottery_solution(inst, small, bent)) is not None
    assert _common_lottery_fault(inst, small, bent) == "the dual of IC[0,1] has the wrong sign"


def test_convex_optima_at_n_200_build_no_lp(monkeypatch):
    """At N = 200 the dense LP would not fit in memory; with 1/F convex
    both solvers certify the closed form without building it."""

    def refuse(*args):
        raise AssertionError("no LP may be built or solved here")

    for name in ("build_designer_lp", "build_min_mass_lp", "simplex_solve"):
        monkeypatch.setattr(lpsolve, name, refuse)
    rng = random.Random(200)
    n = 200
    weights = sorted((rng.randint(1, 9) for _ in range(n)), reverse=True)
    inst = Instance(
        n=n, f=tuple(F(w, sum(weights)) for w in weights), g=random_pmf(rng, n), d=F(3, 2)
    )
    assert convexity_report(inst).is_convex
    closed = optimal_masses(inst, Fill())
    expanded = expand_common_lottery(inst, lottery_from_masses(inst, closed.masses))
    # the budget binds, so the sign test reads every second difference
    assert sum((s / inst.cdf(k) for k, s in enumerate(closed.masses.s)), ZERO) == inst.d
    assert solve_designer(inst, Fill()) == (expanded, closed.value)
    mm = solve_min_mass(inst, closed.masses)
    assert mm.d_star == inst.d and mm.solution.pivots == (0, 0)
    assert mm.mechanism == expanded


def test_decomposition_certificate_rests_on_the_checked_identity(monkeypatch):
    """The reduced costs are read from mu's closed forms, so a wrong
    weight must break the checked aggregation identity: the certificate
    raises instead of certifying."""
    exact = instance._grid_weights

    def bent(grid):
        up, rows = exact(grid)
        return (up[0] + F(1, 7),) + up[1:], rows

    monkeypatch.setattr(instance, "_grid_weights", bent)
    with pytest.raises(AssertionError, match="mu row 1 differs from its closed form"):
        solve_designer(uniform_instance(4), Fill())
