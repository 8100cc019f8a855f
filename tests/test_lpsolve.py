import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lotbench import (
    Fill,
    Instance,
    Linear,
    LinearProgram,
    LotbenchError,
    PositionMasses,
    SeparableConcave,
    build_designer_lp,
    build_min_mass_lp,
    dual_certificate,
    feasibility_report,
    new_instance,
    position_masses,
    simplex_solve,
    solve_designer,
    solve_min_mass,
    uniform_instance,
)

from util import random_pmf

F = Fraction


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
    lp = LinearProgram(
        "min", [F(1)], [[F(1)]], ["="], [F(-5)], ["x"], ["eq"],
        lower=[None], upper=[None],
    )
    sol = simplex_solve(lp)
    assert sol.primal["x"] == -5 and sol.objective == -5


def test_variable_bounds():
    lp = LinearProgram(
        "max", [F(1)], [], [], [], ["x"], [], lower=[F(1, 2)], upper=[F(7, 3)]
    )
    sol = simplex_solve(lp)
    assert sol.primal["x"] == F(7, 3)


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


def test_dual_certificate_requires_optimal():
    lp = LinearProgram("max", [F(1)], [[F(1)]], [">="], [F(0)], ["x"], ["a"])
    sol = simplex_solve(lp)
    with pytest.raises(LotbenchError, match="cannot certify a solution with status unbounded"):
        dual_certificate(uniform_instance(2), sol)


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
    """Small general LP: free, shifted and bounded variables, any relation,
    right-hand sides of either sign."""
    nv, m = rng.randint(1, 3), rng.randint(1, 4)
    lower, upper = [], []
    for _ in range(nv):
        lo = rng.choice([None, F(0), F(rng.randint(-3, 3))])
        up = lo + rng.randint(0, 4) if lo is not None and rng.random() < 0.4 else None
        lower.append(lo)
        upper.append(up)
    return LinearProgram(
        rng.choice(["min", "max"]),
        [F(rng.randint(-3, 3)) for _ in range(nv)],
        [[F(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(m)],
        [rng.choice(["<=", "=", ">="]) for _ in range(m)],
        [F(rng.randint(-4, 4)) for _ in range(m)],
        [f"x{j}" for j in range(nv)],
        [f"r{r}" for r in range(m)],
        lower=lower,
        upper=upper,
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
def test_short_bounds_rejected(bound):
    two = dict(c=[F(1), F(1)], rows=[[F(1), F(1)]], var_names=["x", "y"])
    with pytest.raises(LotbenchError, match="lower and upper bounds need 2 entries"):
        _one_var_lp(**two, **{bound: [F(0)]})


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
