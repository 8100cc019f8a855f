"""Exact-rational two-phase simplex and builders for the designer's LPs.

The simplex tableau holds each column as Python ints over one positive
denominator, built straight from the nonzeros of the LP's rows.  Pivots
never round, optimal values and dual prices are exact, and strong duality /
complementary slackness can be asserted with equality.  Bland's
smallest-index rule is used throughout, so the solver terminates even on
degenerate inputs.
The mechanism solvers try the paper's answer first: the common lottery,
with duals read off the participation decomposition.  It is returned only
when it passes an exact certificate check (`_certificate_fault`), which
runs in Python ints and always passes when 1/F is convex; otherwise the
simplex runs, and its optimum must pass the same check.
`fractions.Fraction` appears only in the LP's data and in the solution:
its primal values, duals and objective.

Reported dual prices follow the shadow-price convention: the dual of a
constraint is the exact derivative of the optimal value (in the LP's own
sense) with respect to that constraint's right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import mul

from .errors import LotbenchError
from .instance import Instance
from .mechanism import DirectMechanism, Objective, PositionMasses, _linear_weights
from .optimizer import _budget_masses, lottery_from_masses
from .rationals import exact_type, to_common_denominator
from .transform import multipliers

ZERO = Fraction(0)
ONE = Fraction(1)

LE, EQ, GE = "<=", "=", ">="


@dataclass
class LinearProgram:
    """An LP over named nonnegative variables with row-wise relations.

    Every variable is >= 0, the standard form of both mechanism programs.
    A bound other than 0 is a row: x <= 7/3 is the row [1] "<=" 7/3, and
    a variable of either sign is the difference of two variables.
    """

    sense: str  # "min" or "max"
    c: list[Fraction]
    rows: list[list[Fraction]]
    rels: list[str]
    rhs: list[Fraction]
    var_names: list[str]
    con_names: list[str]

    def __post_init__(self):
        nv = len(self.var_names)
        if self.sense not in ("min", "max"):
            raise LotbenchError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if any(rel not in (LE, EQ, GE) for rel in self.rels):
            raise LotbenchError("every relation must be '<=', '=' or '>='")
        names = (self.var_names, self.con_names)
        if any(len(set(group)) != len(group) for group in names):
            raise LotbenchError("variable and constraint names must be unique")
        if len(self.c) != nv:
            raise LotbenchError(f"objective has {len(self.c)} entries, need {nv}")
        if not len(self.rows) == len(self.rels) == len(self.rhs) == len(self.con_names):
            raise LotbenchError(
                "rows, relations, right-hand sides and names must align"
            )
        if any(len(row) != nv for row in self.rows):
            raise LotbenchError(f"every constraint row needs {nv} entries")
        # a Fraction or a non-bool int, as parse_rational accepts: a float
        # would round every pivot and every test against 0.  The types are
        # checked as a set; the entries are searched only for the message.
        def entries():
            return chain(self.c, self.rhs, chain.from_iterable(self.rows))

        if not all(map(exact_type, set(map(type, entries())))):
            bad = next(v for v in entries() if not exact_type(type(v)))
            raise LotbenchError(f"LP entries must be Fraction or int, got {bad!r}")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    primal: dict[str, Fraction]
    duals: dict[str, Fraction]
    # pivots made in phase 1 (driving artificials out included) and phase 2
    pivots: tuple[int, int] = (0, 0)


class _Tableau:
    """Dense simplex tableau in integer columns, with Bland pivoting.

    Column j is the Python ints num[j] over one denominator den[j] > 0:
    its m constraint entries, then its phase-2 reduced cost (row m) and its
    phase-1 reduced cost (row m + 1).  The right-hand side is the last
    column, whose last two entries are -z of each phase.  One pivot updates
    all of it, so no reduced cost is ever recomputed.  A positive column
    scale changes no sign and no ratio order, so the pivots are those of
    the same tableau over Fractions.
    """

    def __init__(self, num, den, basis):
        self.num = num
        self.den = den
        self.m = len(basis)
        self.basis = basis
        self.pivots = 0

    def pivot(self, row: int, col: int):
        num, den = self.num, self.den
        pivot_col = num[col]
        # Over the pivot column's denominator: entry p in the pivot row,
        # signs flipped so that p > 0 and every new denominator stays > 0.
        p, dp = pivot_col[row], den[col]
        sign = 1 if p > 0 else -1
        p *= sign
        dp *= sign
        factors = [
            (r, sign * f) for r, f in enumerate(pivot_col) if f and r != row
        ]
        for j, c in enumerate(num):
            v = c[row]
            if not v or j == col:
                continue
            # Over den[j]·p, row r becomes c_r·p − f_r·v and the pivot row
            # v·dp.  gcd(p, v) is divided out first and the column's gcd
            # last, so each column is stored in lowest terms.
            k = gcd(p, v)
            pk, v = p // k, v // k
            if pk != 1:
                c = [x * pk for x in c]
            for r, f in factors:
                c[r] -= f * v
            c[row] = v * dp
            d = den[j] * pk
            g = gcd(d, *c)
            if g != 1:
                c = [x // g for x in c]
                d //= g
            num[j] = c
            den[j] = d
        unit = [0] * len(pivot_col)
        unit[row] = 1
        num[col] = unit
        den[col] = 1
        self.basis[row] = col
        self.pivots += 1

    def run(self, obj_row: int, allowed):
        """Minimize the objective row over allowed entering columns."""
        num, m, basis = self.num, self.m, self.basis
        while True:
            enter = next((j for j in allowed if num[j][obj_row] < 0), -1)
            if enter < 0:
                return "optimal"
            col, rhs = num[enter], num[-1]
            # Bland's ratio test.  The column and the rhs each share one
            # denominator, so b_r / a_r < b_s / a_s (a_r, a_s > 0) is
            # b_r·a_s < b_s·a_r, with no division.
            leave = -1
            for r in range(m):
                a = col[r]
                if a > 0:
                    if leave < 0:
                        leave = r
                        continue
                    here, best = rhs[r] * col[leave], rhs[leave] * a
                    if here < best or (here == best and basis[r] < basis[leave]):
                        leave = r
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def _nonzeros(values):
    """The nonzero entries of values as ints over one denominator: returns
    (den, at, ints), entry at[t] being ints[t] / den, with den the lcm of
    their denominators (1 if there are none)."""
    at = list(compress(range(len(values)), values))
    nonzero = [values[t] for t in at]
    dens = [v.denominator for v in nonzero]
    den = lcm(*dens)
    return den, at, [v.numerator * (den // d) for v, d in zip(nonzero, dens)]


def _int_column(values, flip, phase1_rows):
    """One tableau column over the lcm of its entries' denominators: the
    constraint entries and the phase-2 entry (those in flip negated), then
    the phase-1 entry, minus the sum over phase1_rows.  Only the nonzeros
    are scaled; the zeros stay int 0."""
    den, at, ints = _nonzeros(values)
    col = [0] * (len(values) + 1)
    phase1 = 0
    for r, a in zip(at, ints):
        if r in flip:
            a = -a
        col[r] = a
        if r in phase1_rows:
            phase1 -= a
    col[-1] = phase1
    return col, den


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of an LP over x >= 0; status encodes infeasible/unbounded."""
    minimize = lp.sense == "min"
    rels = lp.rels
    m = len(lp.rows)

    # Make rhs nonnegative, and turn each >= 0 row into <= 0, whose slack
    # can start basic at 0: the IC rows of the mechanism LPs then need no
    # artificial, and the designer LP no phase 1 at all.
    negated = [b < 0 or (b == 0 and rel == GE) for b, rel in zip(lp.rhs, rels)]
    # Slack/surplus signs once the rows are flipped; a row whose slack is
    # not +1 starts on an artificial.
    slack_sign = [
        0 if rel == EQ else (1 if rel == LE else -1) * (-1 if neg else 1)
        for rel, neg in zip(rels, negated)
    ]
    art_rows = [r for r in range(m) if slack_sign[r] != 1]

    # Variable j is column j.  The objective, in the min sense, is row m
    # (negated to maximize); phase 1 minimizes the sum of the artificials,
    # so its row m + 1 starts priced out: minus each column's sum over the
    # rows that start on an artificial.
    flip = {r for r in range(m) if negated[r]}
    if not minimize:
        flip.add(m)
    phase1_rows = set(art_rows)
    num, den = [], []
    for values in zip(*lp.rows, lp.c):
        col, d = _int_column(values, flip, phase1_rows)
        num.append(col)
        den.append(d)

    # Slack/surplus columns, then artificials; both over denominator 1.
    # Either way row r starts on the unit column e_r, recorded in unit[r].
    basis = [-1] * m
    for r in range(m):
        if slack_sign[r]:
            col = [0] * (m + 2)
            col[r] = slack_sign[r]
            # a surplus on a row that starts on an artificial
            col[m + 1] = 1 if slack_sign[r] < 0 else 0
            if slack_sign[r] == 1:
                basis[r] = len(num)
            num.append(col)
            den.append(1)
    n_real = len(num)
    for r in art_rows:
        col = [0] * (m + 2)
        col[r] = 1
        basis[r] = len(num)
        num.append(col)
        den.append(1)
    unit = list(basis)
    n_cols = len(num)
    rhs, rhs_den = _int_column([*lp.rhs, 0], flip, phase1_rows)
    num.append(rhs)
    den.append(rhs_den)
    tab = _Tableau(num, den, basis)

    if n_cols > n_real:
        status = tab.run(m + 1, allowed=range(n_cols))
        if status != "optimal":  # phase 1 is always bounded below by 0
            raise AssertionError(f"phase 1 ended {status!r}")
        if num[-1][m + 1] != 0:
            return LpSolution("infeasible", None, {}, {}, (tab.pivots, 0))
        # Pivot artificials out of the basis where a real column allows it.
        for r in range(m):
            if tab.basis[r] >= n_real:
                enter = next((j for j in range(n_real) if num[j][r] != 0), None)
                if enter is not None:
                    tab.pivot(r, enter)
    phase1 = tab.pivots

    status = tab.run(m, allowed=range(n_real))
    pivots = (phase1, tab.pivots - phase1)
    if status == "unbounded":
        return LpSolution("unbounded", None, {}, {}, pivots)

    rhs, rhs_den = num[-1], den[-1]
    n_vars = len(lp.var_names)
    xs = [ZERO] * n_cols
    for r in range(m):
        xs[tab.basis[r]] = Fraction(rhs[r], rhs_den)
    primal = dict(zip(lp.var_names, xs))
    # c.x over the basic variables: every other one is 0
    objective = sum((lp.c[j] * xs[j] for j in tab.basis if j < n_vars), ZERO)

    # Duals y = c_B B^-1 straight from the phase-2 row: unit[r] started as
    # e_r and costs 0, so its reduced cost is -y_r.
    sign = 1 if minimize else -1
    duals = {
        lp.con_names[r]: Fraction(
            sign * (1 if negated[r] else -1) * num[unit[r]][m], den[unit[r]]
        )
        for r in range(m)
    }
    return LpSolution("optimal", objective, primal, duals, pivots)


def _certificate_fault(lp: LinearProgram, sol: LpSolution) -> str | None:
    """The first condition of sol's optimality certificate that fails, or
    None when sol is proved optimal.

    Checked exactly against the LP's own data, not the tableau: every row
    at the primal point and x >= 0; the sign of every dual (read in the min
    sense, a >= row prices >= 0 and a <= row <= 0); every reduced cost
    d_j = c_j - y.A_j, which in the min sense is >= 0 and is 0 wherever
    x_j > 0; c.x = objective; and the dual objective y.b = objective.

    All of it runs in ints: x is put over one denominator and y over
    another, each row and its rhs over the row's own lcm, and c and every
    priced row over one common scale.
    """
    if sol.status != "optimal":
        return f"status is {sol.status}"
    sign = 1 if lp.sense == "min" else -1
    x_den, (xs,) = to_common_denominator([[sol.primal[v] for v in lp.var_names]])
    y_den, (ys,) = to_common_denominator([[sol.duals[name] for name in lp.con_names]])
    # the priced rows as (dual over y_den, row scale, its columns and ints,
    # rhs over the row scale)
    priced = []
    for name, row, rel, b, yr in zip(lp.con_names, lp.rows, lp.rels, lp.rhs, ys):
        row_den, cols, ints = _nonzeros(row)
        scale = lcm(row_den, b.denominator)
        if scale != row_den:
            ints = [a * (scale // row_den) for a in ints]
        b_int = b.numerator * (scale // b.denominator)
        # row.x against b, both times scale * x_den
        lhs = sum(map(mul, ints, map(xs.__getitem__, cols)))
        rhs = b_int * x_den
        if (rel != LE and lhs < rhs) or (rel != GE and lhs > rhs):
            return f"row {name} is violated"
        if (rel == GE and sign * yr < 0) or (rel == LE and sign * yr > 0):
            return f"the dual of {name} has the wrong sign"
        if yr:
            priced.append((yr, scale, cols, ints, b_int))
    # Every reduced cost and the dual objective times y_den * s, with s the
    # common scale of c and the priced rows.
    c_den, c_cols, c_ints = _nonzeros(lp.c)
    s = lcm(c_den, *[scale for _, scale, _, _, _ in priced])
    reduced = [0] * len(xs)
    for j, cj in zip(c_cols, c_ints):
        reduced[j] = cj * (s // c_den) * y_den
    dual_value = 0
    for yr, scale, cols, ints, b_int in priced:
        f = yr * (s // scale)
        dual_value += f * b_int
        for j, a in zip(cols, ints):
            reduced[j] -= f * a
    for name, xj, d in zip(lp.var_names, xs, reduced):
        if xj < 0:
            return f"{name} is negative"
        if sign * d < 0 or (d and xj):
            return f"the reduced cost of {name} has the wrong sign"
    obj_num, obj_den = sol.objective.numerator, sol.objective.denominator
    c_x = sum(map(mul, c_ints, map(xs.__getitem__, c_cols)))
    if c_x * obj_den != obj_num * c_den * x_den:
        return "c.x differs from the objective"
    if dual_value * obj_den != obj_num * s * y_den:
        return "the dual objective differs from the objective"
    return None


def _check_certificate(lp: LinearProgram, sol: LpSolution):
    """Raise unless sol is a proved optimum of lp (see _certificate_fault)."""
    fault = _certificate_fault(lp, sol)
    if fault is not None:
        raise AssertionError(f"LP optimum fails its exact certificate: {fault}")


# --- designer problem builders ----------------------------------------------


def _mechanism_rows(inst: Instance, pos_weights):
    """The constraint family both programs share, over the cells k >= i
    (ex-post IR is imposed structurally: only those cells are variables).

    Returns the cells and the named rows in order: IC[i,j] (truth-telling,
    read as >= 0), POS[k] (cell (k, i) weighted by pos_weights[i]), then
    AGE[i] (type i's total offer probability).  Cell (k, i) is column
    k(k+1)/2 + i, and its IC gain x_k - x_i is the grid step (k - i)/(N - 1).
    """
    n = inst.n
    cells = [(k, i) for k in range(n) for i in range(k + 1)]
    first = [k * (k + 1) // 2 for k in range(n)]  # column of cell (k, 0)
    gain = [Fraction(t, n - 1) for t in range(n)]
    loss = [-g for g in gain]
    rows, names = [], []
    # Cells (k, i) and (k, j), i != j, are different columns, so each entry
    # is assigned once; at k = i the gain is 0 and the row keeps its ZERO.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = [ZERO] * len(cells)
            for k in range(i + 1, n):
                row[first[k] + i] = gain[k - i]
                if k >= j:
                    row[first[k] + j] = loss[k - i]
            rows.append(row)
            names.append(f"IC[{i},{j}]")
    for k in range(n):
        row = [ZERO] * len(cells)
        row[first[k] : first[k] + k + 1] = pos_weights[: k + 1]
        rows.append(row)
        names.append(f"POS[{k}]")
    for i in range(n):
        row = [ZERO] * len(cells)
        for k in range(i, n):
            row[first[k] + i] = ONE
        rows.append(row)
        names.append(f"AGE[{i}]")
    return cells, rows, names


def build_designer_lp(inst: Instance, obj: Objective) -> LinearProgram:
    """The full direct-mechanism program: IC >= 0, POS[k] <= g_k with cell
    weights D * f_i, AGE[i] <= 1."""
    weights = _linear_weights(obj, inst.n)
    if weights is None:
        raise LotbenchError("the designer LP requires a linear objective")
    n = inst.n
    mass = [inst.d * fi for fi in inst.f]
    cells, rows, names = _mechanism_rows(inst, mass)
    n_ic = n * (n - 1)
    return LinearProgram(
        sense="max",
        c=[weights[k] * mass[i] for k, i in cells],
        rows=rows,
        rels=[GE] * n_ic + [LE] * (2 * n),
        rhs=[ZERO] * n_ic + list(inst.g) + [ONE] * n,
        var_names=[f"a[{k}][{i}]" for k, i in cells],
        con_names=names,
    )


def build_min_mass_lp(inst: Instance, targets: PositionMasses) -> LinearProgram:
    """Minimum agent mass needed to hit target position masses.

    The program is linearized with y[k][i] = D * a(x_k; theta_i), which is
    valid because the IC system is positively homogeneous: scaling a whole
    mechanism by a constant scales both sides of every IC constraint.  The
    mass D is the last variable: IC >= 0, POS[k] >= s_k, AGE[i] - D <= 0.
    """
    n = inst.n
    if len(targets.s) != n:
        raise LotbenchError(f"need {n} target masses, got {len(targets.s)}")
    if any(sk < 0 for sk in targets.s):
        raise LotbenchError("targets must be nonnegative")
    cells, rows, names = _mechanism_rows(inst, inst.f)
    n_ic = n * (n - 1)
    d_col = [ZERO] * (n_ic + n) + [-ONE] * n
    return LinearProgram(
        sense="min",
        c=[ZERO] * len(cells) + [ONE],
        rows=[row + [v] for row, v in zip(rows, d_col)],
        rels=[GE] * (n_ic + n) + [LE] * n,
        rhs=[ZERO] * n_ic + list(targets.s) + [ZERO] * n,
        var_names=[f"y[{k}][{i}]" for k, i in cells] + ["D"],
        con_names=names,
    )


def _cell_matrix(sol: LpSolution, var: str, n: int):
    """The N x N matrix var[k][i] read from the solution's cells."""
    return tuple(
        tuple(sol.primal.get(f"{var}[{k}][{i}]", ZERO) for i in range(n))
        for k in range(n)
    )


def _lottery_cells(lottery) -> list[Fraction]:
    """The expanded common lottery in the LP's cell order: c_k at every
    cell (k, i), i <= k."""
    return [ck for k, ck in enumerate(lottery) for _ in range(k + 1)]


def _ic_closed_form(inst: Instance, duals: dict, scale):
    """Set the IC duals of the participation decomposition, times scale:
    IC[i,i+1] and IC[i,j], j < i, carry the multipliers of
    `transform.multipliers` times N - 1 (the LP's IC rows are the
    transform's scaled ones over N - 1); the other IC rows keep their dual."""
    mult = multipliers(inst)
    scale *= inst.n - 1
    for i, w in enumerate(mult.local_up):
        duals[f"IC[{i},{i + 1}]"] = scale * w
    for i, row in enumerate(mult.down):
        for j, w in enumerate(row):
            duals[f"IC[{i},{j}]"] = scale * w


def _designer_candidate(inst: Instance, lp: LinearProgram, obj: Objective) -> LpSolution:
    """The greedy common lottery as a solution of the designer LP, priced
    by the budget problem's Lagrangian.

    Primal: a[k][i] = s_k/(D F_k) for i <= k, from the greedy masses s.
    Budget price: lam = min w_k F_k over s_k > 0 when the budget binds,
    else 0.  AGE[0] prices lam D, POS[k] prices max(0, w_k - lam/F_k), the
    IC rows carry -lam D times the decomposition's multipliers, and every
    other row prices 0.  The reduced cost of cell (k, i) is then
    D f_i (w_k - POS[k] - lam/F_k) <= 0, and the dual value
    sum_k POS[k] g_k + lam D is the greedy value sum_k w_k s_k.  So the
    candidate certifies whenever those IC duals have the right sign, which
    they do when 1/F is convex (or when the budget is slack).
    """
    n, d = inst.n, inst.d
    weights = _linear_weights(obj, n)
    masses = _budget_masses(inst, obj)
    s = masses.s
    cdf = [inst.cdf(k) for k in range(n)]
    lam = ZERO
    if sum((sk / fk for sk, fk in zip(s, cdf)), ZERO) == d:
        lam = min(w * fk for w, sk, fk in zip(weights, s, cdf) if sk)
    duals = dict.fromkeys(lp.con_names, ZERO)
    _ic_closed_form(inst, duals, -lam * d)
    for k in range(n):
        duals[f"POS[{k}]"] = max(ZERO, weights[k] - lam / cdf[k])
    duals["AGE[0]"] = lam * d
    cells = _lottery_cells(lottery_from_masses(inst, masses).c)
    value = sum((w * sk for w, sk in zip(weights, s)), ZERO)
    return LpSolution("optimal", value, dict(zip(lp.var_names, cells)), duals)


def solve_designer(inst: Instance, obj: Objective):
    """Optimal feasible mechanism and value for a linear objective.

    The greedy common lottery comes first: when its exact certificate
    (`_designer_candidate`, `_certificate_fault`) passes, which it always
    does when 1/F is convex, it is the answer and no simplex runs.
    Otherwise the simplex solves the LP and its optimum must pass the same
    certificate.
    """
    lp = build_designer_lp(inst, obj)
    sol = _designer_candidate(inst, lp, obj)
    if _certificate_fault(lp, sol) is not None:
        sol = simplex_solve(lp)
        if sol.status != "optimal":
            raise LotbenchError(f"designer LP ended with status {sol.status}")
        _check_certificate(lp, sol)
    return DirectMechanism(a=_cell_matrix(sol, "a", inst.n)), sol.objective


@dataclass(frozen=True)
class MinMassSolution:
    """Solved minimum-agent-mass problem for target position masses.

    The LP runs in scaled variables y = D * a, which keeps it linear; the
    mechanism is recovered by dividing out the optimal mass.  multipliers
    holds the normalized shadow prices: each raw dual is multiplied by the
    optimal mass so that the position-target prices read D/F(theta_k) and
    the agent-budget price reads D, with all entries nonnegative.

    When the closed form certifies (always when 1/F is convex), the
    solution is the common lottery c_k = s_k/(D* F_k) that hits the targets,
    priced by `_closed_form_duals`, with solution.pivots == (0, 0): no
    simplex ran.  Otherwise it is the simplex's optimal vertex and its
    duals.
    """

    status: str
    d_star: Fraction | None
    mechanism: DirectMechanism | None
    multipliers: dict | None
    solution: LpSolution


def _min_mass_candidate(
    inst: Instance, lp: LinearProgram, targets: PositionMasses
) -> LpSolution:
    """The common lottery that hits the targets as a min-mass solution:
    y[k][i] = s_k/F_k for i <= k and D = sum_k s_k/F_k, priced by
    `_closed_form_duals`."""
    y = [sk / inst.cdf(k) for k, sk in enumerate(targets.s)]
    d = sum(y, ZERO)
    primal = dict(zip(lp.var_names, [*_lottery_cells(y), d]))
    return LpSolution("optimal", d, primal, _closed_form_duals(inst, lp))


def solve_min_mass(inst: Instance, targets: PositionMasses) -> MinMassSolution:
    """Minimum agent mass for the targets: the certified common lottery
    (see MinMassSolution) or else the simplex's certified optimum."""
    lp = build_min_mass_lp(inst, targets)
    sol = _min_mass_candidate(inst, lp, targets)
    if _certificate_fault(lp, sol) is not None:
        # The closed form prices every reduced cost at 0 and its dual
        # value is the candidate's objective, so the candidate failed on a
        # dual sign and the closed form would fail at any vertex too: the
        # vertex keeps its own duals.
        sol = simplex_solve(lp)
        if sol.status != "optimal":
            return MinMassSolution(sol.status, None, None, None, sol)
        _check_certificate(lp, sol)
    d_star = sol.objective
    # a = y / D; at D = 0 every y is 0 and so is the mechanism.
    rows = _cell_matrix(sol, "y", inst.n)
    if d_star != 0:
        rows = tuple(tuple(y / d_star for y in row) for row in rows)
    raw = dual_certificate(sol)
    mult = {
        "POS": {k: d_star * v for k, v in raw["POS"].items()},
        "AGE": {i: -d_star * v for i, v in raw["AGE"].items()},
        "IC": {pair: d_star * v for pair, v in raw["IC"].items()},
    }
    return MinMassSolution("optimal", d_star, DirectMechanism(a=rows), mult, sol)


def _closed_form_duals(inst: Instance, lp: LinearProgram) -> dict[str, Fraction]:
    """The min-mass LP's dual read off the participation decomposition.

    POS[k] prices 1/F_k, AGE[0] prices -1, the IC rows carry the
    decomposition's multipliers (`_ic_closed_form`, scale 1), and every
    other row prices 0.  Every reduced cost is then 0, the decomposition
    identity, so this dual is feasible exactly when the downward
    multipliers are nonnegative, and its value sum_k s_k/F_k is the optimum
    when a common lottery is optimal.
    """
    duals = dict.fromkeys(lp.con_names, ZERO)
    _ic_closed_form(inst, duals, ONE)
    for k in range(inst.n):
        duals[f"POS[{k}]"] = ONE / inst.cdf(k)
    duals["AGE[0]"] = -ONE
    return duals


def dual_certificate(solution: LpSolution) -> dict:
    """Multiplier report keyed by constraint family for an optimal solution."""
    if solution.status != "optimal":
        raise LotbenchError(f"cannot certify a solution with status {solution.status}")
    report = {"POS": {}, "AGE": {}, "IC": {}, "other": {}}
    for name, value in solution.duals.items():
        if name.startswith("POS["):
            report["POS"][int(name[4:-1])] = value
        elif name.startswith("AGE["):
            report["AGE"][int(name[4:-1])] = value
        elif name.startswith("IC["):
            i, j = name[3:-1].split(",")
            report["IC"][(int(i), int(j))] = value
        else:
            report["other"][name] = value
    return report
