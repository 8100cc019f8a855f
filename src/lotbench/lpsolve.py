"""Exact-rational two-phase simplex and builders for the designer's LPs.

The simplex tableau holds each column as Python ints over one positive
denominator, built straight from the nonzeros of the LP's rows.  A row
with no nonzero and rhs 0 (the IC[N-1, j] rows of both mechanism programs)
holds at every point: it never enters the tableau, and its dual is 0.  A
pivot updates only the columns that are nonbasic or leave the basis, and
rescales a column, then brings it to lowest terms, only when the pivot
entry does not divide its pivot-row entry.  Pivots
never round, optimal values and dual prices are exact, and strong duality /
complementary slackness can be asserted with equality.  Bland's
smallest-index rule is used throughout, so the solver terminates even on
degenerate inputs.
The mechanism solvers try the paper's answer first, the common lottery.
The decomposition's IC prices reduce a mechanism program to its program
over the common lottery: N columns (and min-mass's D) on the POS rows and
AGE[0], the budget problem.  The lottery is returned when the IC prices
pass their sign test, read from the ints of 1/F's second differences, and
it passes the exact certificate of that small program, which rests on
the O(N) integer check of the decomposition's aggregation identity, three
cells per row (`_common_lottery_fault`).  Otherwise they build the LP and
run the simplex, and its optimum must pass the same certificate against
the LP's own data (`_certificate_fault`).
`fractions.Fraction` appears only in the LP's data and in the solution:
its primal values, duals and objective.

Reported dual prices follow the shadow-price convention: the dual of a
constraint is the exact derivative of the optimal value (in the LP's own
sense) with respect to that constraint's right-hand side.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, islice
from math import gcd, lcm
from operator import mul

from .errors import LotbenchError
from .instance import Instance
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    Objective,
    PositionMasses,
    _linear_weights,
    evaluate_objective,
    expand_common_lottery,
)
from .optimizer import _ranking, _scan, lottery_from_masses
from .rationals import require_exact, to_common_denominator
from .transform import _check_mu_identity

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
        # a float would round every pivot and every test against 0
        require_exact(("LP", self.c), ("LP", self.rhs), *(("LP", row) for row in self.rows))


@dataclass(frozen=True)
class LpSolution:
    """A solved LP: status, and at an optimum the exact objective, the value
    of every variable and the dual price of every row, by name.  A row with
    no nonzero coefficient and rhs 0 holds at every point and never enters
    the tableau; its dual is 0."""

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
    column, whose last two entries are -z of each phase.  A basic column is
    the unit column of its row and stays one until it leaves, so a pivot
    updates only the nonbasic columns, the leaving one and the rhs, and no
    reduced cost is ever recomputed.  A column is brought to lowest terms
    only after a pivot rescales it; one whose pivot-row entry the pivot
    divides keeps its denominator.  A positive column scale changes no sign
    and no ratio order, so the pivots are those of the same tableau over
    Fractions.
    """

    def __init__(self, num, den, basis):
        self.num = num
        self.den = den
        self.m = len(basis)
        self.basis = basis
        # ascending, so that Bland's entering column is the first that prices
        basic = set(basis)
        self.nonbasic = [j for j in range(len(num) - 1) if j not in basic]
        self.pivots = 0

    def pivot(self, row: int, col: int):
        num, den, nonbasic = self.num, self.den, self.nonbasic
        leaving = self.basis[row]
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
        # Every other basic column is 0 in the pivot row.
        for j in (*nonbasic, leaving, len(num) - 1):
            c = num[j]
            v = c[row]
            if not v or j == col:
                continue
            # Over den[j]·p, row r becomes c_r·p − f_r·v and the pivot row
            # v·dp.  gcd(p, v) is divided out first; when it is p the
            # column keeps den[j] and only its factor rows change.
            k = gcd(p, v)
            if k == p:
                v //= p
                for r, f in factors:
                    c[r] -= f * v
                c[row] = v * dp
                continue
            pk, v = p // k, v // k
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
        nonbasic.remove(col)
        insort(nonbasic, leaving)
        self.pivots += 1

    def run(self, obj_row: int, limit: int):
        """Minimize the objective row over entering columns below limit."""
        num, m, basis = self.num, self.m, self.basis
        while True:
            enter = next(
                (j for j in self.nonbasic if j < limit and num[j][obj_row] < 0), -1
            )
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


def _int_column(nonzeros, place, height):
    """One tableau column of the given height from `_nonzeros` of an LP
    column: entry t goes to tableau row place[at[t]][0], negated where
    place[at[t]][1] is set, and is subtracted from the phase-1 entry (the
    last) where place[at[t]][2] is set.  The zeros stay int 0."""
    den, at, ints = nonzeros
    col = [0] * height
    phase1 = 0
    for r, a in zip(at, ints):
        q, negate, artificial = place[r]
        if negate:
            a = -a
        col[q] = a
        if artificial:
            phase1 -= a
    col[-1] = phase1
    return col, den


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of an LP over x >= 0; status encodes infeasible/unbounded."""
    minimize = lp.sense == "min"
    # Each variable's nonzeros over one denominator, its cost after the rows.
    columns = [_nonzeros(values) for values in zip(*lp.rows, lp.c)]
    # A row with no nonzero and rhs 0 holds at every x >= 0: it stays out of
    # the tableau and prices 0.  Dropping rows shifts the later slack and
    # artificial columns down in order, so every Bland choice is kept.
    touched = set().union(*(at for _, at, _ in columns))
    kept = [r for r, b in enumerate(lp.rhs) if b or r in touched]
    m = len(kept)
    rels = [lp.rels[r] for r in kept]

    # Make rhs nonnegative, and turn each >= 0 row into <= 0, whose slack
    # can start basic at 0: the IC rows of the mechanism LPs then need no
    # artificial, and the designer LP no phase 1 at all.
    negated = [lp.rhs[r] < 0 or (lp.rhs[r] == 0 and rel == GE) for r, rel in zip(kept, rels)]
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
    # rows that start on an artificial.  place[r] is (tableau row, negated,
    # starts on an artificial) for LP row r, and the cost's entry is last.
    place = [None] * len(lp.rows)
    for q, r in enumerate(kept):
        place[r] = (q, negated[q], slack_sign[q] != 1)
    place.append((m, not minimize, False))
    num, den = [], []
    for nonzeros in columns:
        col, d = _int_column(nonzeros, place, m + 2)
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
    rhs, rhs_den = _int_column(_nonzeros(lp.rhs), place, m + 2)
    num.append(rhs)
    den.append(rhs_den)
    tab = _Tableau(num, den, basis)

    if n_cols > n_real:
        status = tab.run(m + 1, limit=n_cols)
        if status != "optimal":  # phase 1 is always bounded below by 0
            raise AssertionError(f"phase 1 ended {status!r}")
        if num[-1][m + 1] != 0:
            return LpSolution("infeasible", None, {}, {}, (tab.pivots, 0))
        # Pivot artificials out of the basis where a real column allows it.
        for r in range(m):
            if tab.basis[r] >= n_real:
                enter = next((j for j in tab.nonbasic if j < n_real and num[j][r]), None)
                if enter is not None:
                    tab.pivot(r, enter)
    phase1 = tab.pivots

    status = tab.run(m, limit=n_real)
    pivots = (phase1, tab.pivots - phase1)
    if status == "unbounded":
        return LpSolution("unbounded", None, {}, {}, pivots)

    rhs, rhs_den = num[-1], den[-1]
    xs = [ZERO] * n_cols
    for r in range(m):
        if rhs[r]:
            xs[tab.basis[r]] = Fraction(rhs[r], rhs_den)
    primal = dict(zip(lp.var_names, xs))
    # row m of the rhs is -z in the min sense
    objective = Fraction(-rhs[m] if minimize else rhs[m], rhs_den)

    # Duals y = c_B B^-1 straight from the phase-2 row: unit[q] started as
    # e_q and costs 0, so its reduced cost is -y of LP row kept[q].
    sign = 1 if minimize else -1
    ys = [ZERO] * len(lp.rows)
    for q, r in enumerate(kept):
        y = num[unit[q]][m]
        if y:
            ys[r] = Fraction(sign * (1 if negated[q] else -1) * y, den[unit[q]])
    return LpSolution("optimal", objective, primal, dict(zip(lp.con_names, ys)), pivots)


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


@cache
def _program_names(n: int, sense: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(variable names, constraint names) of a mechanism program, in column
    and row order.  The designer program (sense "max") has the cells
    a[k][i], the min-mass program ("min") the cells y[k][i] and then D,
    over k >= i; both have the rows IC[i,j] (i != j), POS[k], then AGE[i].
    They are formed once per (N, sense) and kept for the process, as
    tuples: an LP gets lists of its own."""
    var = "a" if sense == "max" else "y"
    variables = [f"{var}[{k}][{i}]" for k in range(n) for i in range(k + 1)]
    if sense == "min":
        variables.append("D")
    rows = [f"IC[{i},{j}]" for i in range(n) for j in range(n) if i != j]
    rows += [f"POS[{k}]" for k in range(n)]
    rows += [f"AGE[{i}]" for i in range(n)]
    return tuple(variables), tuple(rows)


def _mechanism_rows(inst: Instance, pos_weights):
    """The constraint family both programs share, over the cells k >= i
    (ex-post IR is imposed structurally: only those cells are variables).

    Returns the cells and the rows in the order of `_program_names`:
    IC[i,j] (truth-telling, read as >= 0), POS[k] (cell (k, i) weighted by
    pos_weights[i]), then AGE[i] (type i's total offer probability).  Cell
    (k, i) is column k(k+1)/2 + i, and its IC gain x_k - x_i is the grid
    step (k - i)/(N - 1).
    """
    n = inst.n
    cells = [(k, i) for k in range(n) for i in range(k + 1)]
    first = [k * (k + 1) // 2 for k in range(n)]  # column of cell (k, 0)
    gain = [Fraction(t, n - 1) for t in range(n)]
    loss = [-g for g in gain]
    rows = []
    # Cells (k, i) and (k, j), i != j, are different columns, so each entry
    # is assigned once; at k = i the gain is 0 and the row keeps its 0.  The
    # zeros are int 0, which `_nonzeros` skips at C speed.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = [0] * len(cells)
            for k in range(i + 1, n):
                row[first[k] + i] = gain[k - i]
                if k >= j:
                    row[first[k] + j] = loss[k - i]
            rows.append(row)
    for k in range(n):
        row = [0] * len(cells)
        row[first[k] : first[k] + k + 1] = pos_weights[: k + 1]
        rows.append(row)
    for i in range(n):
        row = [0] * len(cells)
        for k in range(i, n):
            row[first[k] + i] = ONE
        rows.append(row)
    return cells, rows


def _designer_weights(obj: Objective, n: int):
    """The position weights of the designer's objective, which must be
    linear."""
    weights = _linear_weights(obj, n)
    if weights is None:
        raise LotbenchError("the designer LP requires a linear objective")
    return weights


def build_designer_lp(inst: Instance, obj: Objective) -> LinearProgram:
    """The full direct-mechanism program: IC >= 0, POS[k] <= g_k with cell
    weights D * f_i, AGE[i] <= 1."""
    weights = _designer_weights(obj, inst.n)
    n = inst.n
    mass = [inst.d * fi for fi in inst.f]
    cells, rows = _mechanism_rows(inst, mass)
    var_names, con_names = _program_names(n, "max")
    n_ic = n * (n - 1)
    return LinearProgram(
        sense="max",
        c=[weights[k] * mass[i] for k, i in cells],
        rows=rows,
        rels=[GE] * n_ic + [LE] * (2 * n),
        rhs=[0] * n_ic + list(inst.g) + [ONE] * n,
        var_names=list(var_names),
        con_names=list(con_names),
    )


def _check_targets(inst: Instance, targets: PositionMasses):
    if len(targets.s) != inst.n:
        raise LotbenchError(f"need {inst.n} target masses, got {len(targets.s)}")
    if any(sk < 0 for sk in targets.s):
        raise LotbenchError("targets must be nonnegative")


def build_min_mass_lp(inst: Instance, targets: PositionMasses) -> LinearProgram:
    """Minimum agent mass needed to hit target position masses.

    The program is linearized with y[k][i] = D * a(x_k; theta_i), which is
    valid because the IC system is positively homogeneous: scaling a whole
    mechanism by a constant scales both sides of every IC constraint.  The
    mass D is the last variable: IC >= 0, POS[k] >= s_k, AGE[i] - D <= 0.
    """
    _check_targets(inst, targets)
    n = inst.n
    cells, rows = _mechanism_rows(inst, inst.f)
    var_names, con_names = _program_names(n, "min")
    n_ic = n * (n - 1)
    d_col = [0] * (n_ic + n) + [-ONE] * n
    return LinearProgram(
        sense="min",
        c=[0] * len(cells) + [ONE],
        rows=[row + [v] for row, v in zip(rows, d_col)],
        rels=[GE] * (n_ic + n) + [LE] * n,
        rhs=[0] * n_ic + list(targets.s) + [0] * n,
        var_names=list(var_names),
        con_names=list(con_names),
    )


def _cell_matrix(sol: LpSolution, n: int):
    """The N x N matrix of a mechanism program's cells, read in the column
    order of `_program_names`; every cell above the diagonal is 0."""
    values = iter(sol.primal.values())
    return tuple(tuple(islice(values, k + 1)) + (ZERO,) * (n - k - 1) for k in range(n))


# --- the common lottery, certified over the decomposition ---------------------


def _lottery_program(sense: str, c, pos, rhs) -> LinearProgram:
    """A mechanism program summed over types: the program over the common
    lottery x_k = a[k][i] (i <= k), which is the budget problem.

    Column x_k is the sum of the cells (k, i), i <= k: it costs c[k] and
    has coefficient pos[k] in POS[k] and 1 in AGE[0].  The min-mass
    program ("min") keeps its D, in c's last entry and with -1 in AGE[0].
    The other rows drop: every IC row holds at a common lottery, and AGE[0]
    is the largest AGE row.  Its zeros are int 0, which the certificate
    skips at C speed.
    """
    n = len(pos)
    designer = sense == "max"
    rows = [[0] * k + [a] + [0] * (len(c) - k - 1) for k, a in enumerate(pos)]
    rows.append([ONE] * n + ([] if designer else [-ONE]))
    return LinearProgram(
        sense=sense,
        c=c,
        rows=rows,
        rels=[LE if designer else GE] * n + [LE],
        rhs=[*rhs, ONE if designer else ZERO],
        var_names=[f"x[{k}]" for k in range(n)] + ([] if designer else ["D"]),
        con_names=[f"POS[{k}]" for k in range(n)] + ["AGE[0]"],
    )


def _designer_candidate(inst: Instance, obj: Objective):
    """The greedy common lottery x_k = s_k/(D F_k), from the greedy masses
    s, as (lottery program, priced solution).  With lam = min w_k F_k over
    s_k > 0 when the budget binds, else 0, POS[k] prices
    pos_k = max(0, w_k - lam/F_k) and AGE[0] lam D: the reduced cost of x_k
    is D F_k (w_k - pos_k - lam/F_k) <= 0, and the dual value
    sum_k pos_k g_k + lam D is the greedy value sum_k w_k s_k.  The budget
    binds when the scan (`optimizer._scan`) spent all of D, and then lam is
    w_k F_k at the last position it reached, the cheapest in its order."""
    d, cdf = inst.d, inst._grid.F
    weights = _designer_weights(obj, inst.n)
    order = _ranking(inst, weights)
    s, scale, used = _scan(inst, order, inst.g)
    masses = PositionMasses(s=s)
    lam = ZERO
    if used and used[-1] * d.denominator == d.numerator * scale:
        last = order[len(used) - 1]
        lam = weights[last] * cdf[last]
    pos = [max(ZERO, w - lam / fk) for w, fk in zip(weights, cdf)]
    mass = [d * fk for fk in cdf]
    lp = _lottery_program("max", [w * m for w, m in zip(weights, mass)], mass, inst.g)
    primal = dict(zip(lp.var_names, lottery_from_masses(inst, masses).c))
    duals = dict(zip(lp.con_names, [*pos, lam * d]))
    return lp, LpSolution("optimal", evaluate_objective(obj, masses), primal, duals)


def _min_mass_candidate(inst: Instance, targets: PositionMasses):
    """The common lottery that hits the targets, x_k = s_k/F_k and
    D = sum_k x_k, as (lottery program, priced solution): POS[k] prices
    1/F_k and AGE[0] -1.  Every reduced cost is then 0, the decomposition
    identity, and the dual value sum_k s_k/F_k is D."""
    _check_targets(inst, targets)
    cdf = inst._grid.F
    x = [sk / fk for sk, fk in zip(targets.s, cdf)]
    d = sum(x, ZERO)
    lp = _lottery_program("min", [ZERO] * inst.n + [ONE], cdf, targets.s)
    duals = [ONE / fk for fk in cdf] + [-ONE]
    return lp, LpSolution(
        "optimal", d, dict(zip(lp.var_names, [*x, d])), dict(zip(lp.con_names, duals))
    )


def _common_lottery_fault(inst: Instance, lp: LinearProgram, sol: LpSolution) -> str | None:
    """The first condition that fails in the proof that the common lottery
    sol is optimal in its mechanism program, or None when it is proved.

    sol extends to the mechanism program (`_common_lottery_solution`) with
    the IC rows priced by scale times the decomposition's weights, where
    -scale is AGE[0]'s price; every other AGE row prices 0.  There:
    - the upward weights are positive and r_i has the sign of the int
      numerator d2_i of `_grid_ints`, so the IC duals have their sign
      exactly when sense * scale >= 0 and either scale = 0 or the grid has
      no violations (no d2 < 0);
    - the weighted IC rows aggregate to scale * mu[k][i] on cell (k, i),
      the identity that `transform._check_mu_identity` checks in ints, in
      O(N): each row at the cells 0, k-1 and k, which raises on the same
      first row as a check of every cell, so
      by mu's closed forms the reduced cost of cell (k, i) is f_i/F_k
      times that of x_k in the lottery program, and D's is D's;
    - the IC rows hold at a common lottery, AGE[0] bounds every AGE row,
      and the rows, c.x and the dual value of the other rows are the
      lottery program's.
    So sol is optimal there exactly when the IC signs hold and
    `_certificate_fault` proves sol optimal in the lottery program.
    """
    sign = 1 if lp.sense == "min" else -1
    scale = -sol.duals["AGE[0]"]
    grid = inst._grid
    if sign * scale < 0:
        return "the dual of IC[0,1] has the wrong sign"
    if scale and grid.violations:
        return f"the dual of IC[{grid.violations[0]},0] has the wrong sign"
    fault = _certificate_fault(lp, sol)
    if fault is None:
        _check_mu_identity(grid)
    return fault


def _ic_prices(inst: Instance, unit: Fraction) -> list:
    """The IC rows' prices in the row order of `_program_names`: unit * (N - 1)
    times the weights of `instance._grid_weights` (the LP's IC rows are
    the transform's over N - 1), so IC[i, i+1] carries the upward weight
    up_i and IC[i, j], j < i, the downward weight f_j r_i.  The row factor
    unit * (N - 1) * r_i is formed once per row, one Fraction of the kept
    weights' ints (the grid's `weights`), and each downward price is
    one product of it with f_j."""
    n = inst.n
    wscale, up, rows = inst._grid.weights
    num, den = unit.numerator * (n - 1), unit.denominator * wscale
    prices = []
    for i, r in enumerate(rows):
        # IC[i, j] over j != i: j < i, then j = i + 1, then j > i + 1
        factor = Fraction(num * r, den)
        if factor:
            prices += [factor * fj for fj in inst.f[:i]]
        else:
            prices += [ZERO] * i
        if i < n - 1:
            prices.append(Fraction(num * up[i], den))
        prices += [ZERO] * (n - i - 2)
    return prices


def _common_lottery_solution(inst: Instance, lp: LinearProgram, sol: LpSolution) -> LpSolution:
    """The lottery program's solution sol as a solution of its mechanism
    program, with the names of `_program_names`: every cell (k, i) at x_k,
    and the duals of `_common_lottery_fault`, the IC rows at `_ic_prices`
    with unit -AGE[0]'s price."""
    n = inst.n
    var_names, con_names = _program_names(n, lp.sense)
    xs = list(sol.primal.values())
    *pos, age = sol.duals.values()
    duals = _ic_prices(inst, -age)
    duals += pos
    duals.append(age)
    duals += [ZERO] * (n - 1)
    cells = [xk for k, xk in enumerate(xs[:n]) for _ in range(k + 1)]
    primal = dict(zip(var_names, [*cells, *xs[n:]]))
    return LpSolution("optimal", sol.objective, primal, dict(zip(con_names, duals)))


def _simplex_optimum(lp: LinearProgram) -> LpSolution:
    """The simplex's optimum of a mechanism program, which must pass its
    exact certificate.  Both programs have one: the zero mechanism is
    feasible for the designer, whose cells AGE bounds, and the common
    lottery that hits the targets for min-mass, whose D is >= 0."""
    sol = simplex_solve(lp)
    _check_certificate(lp, sol)
    return sol


def solve_designer(inst: Instance, obj: Objective):
    """Optimal feasible mechanism and value for a linear objective: the
    greedy common lottery when its certificate passes, which it always does
    when 1/F is convex or the budget is slack, or else the simplex's
    certified optimum."""
    lp, sol = _designer_candidate(inst, obj)
    if _common_lottery_fault(inst, lp, sol) is None:
        lottery = CommonLottery(c=sol.primal.values())
        return expand_common_lottery(inst, lottery), sol.objective
    sol = _simplex_optimum(build_designer_lp(inst, obj))
    return DirectMechanism(a=_cell_matrix(sol, inst.n)), sol.objective


@dataclass(frozen=True)
class MinMassSolution:
    """Solved minimum-agent-mass problem for target position masses.

    The LP runs in scaled variables y = D * a, which keeps it linear; the
    mechanism is recovered by dividing out the optimal mass.  multipliers
    holds the normalized shadow prices: each raw dual is multiplied by the
    optimal mass so that the position-target prices read D/F(theta_k) and
    the agent-budget price reads D, with all entries nonnegative.

    The program is always feasible and bounded, so status is always
    "optimal".  When the common lottery that hits the targets passes its
    certificate over the decomposition (always when 1/F is convex), it is
    the solution, with the LP's variable and constraint names and
    solution.pivots == (0, 0): no mechanism LP was built and no simplex
    ran.  Otherwise the solution is the simplex's optimal vertex.
    """

    status: str
    d_star: Fraction
    mechanism: DirectMechanism
    multipliers: dict
    solution: LpSolution


def solve_min_mass(inst: Instance, targets: PositionMasses) -> MinMassSolution:
    """Minimum agent mass for the targets: the certified common lottery
    (see MinMassSolution) or else the simplex's certified optimum.  A
    refused candidate fails on an IC dual's sign, which no vertex changes,
    so the simplex's vertex keeps its own duals."""
    n = inst.n
    n_ic = n * (n - 1)
    lp, sol = _min_mass_candidate(inst, targets)
    if _common_lottery_fault(inst, lp, sol) is None:
        d_star = sol.objective
        # every cell of row k is x_k, divided once; at D = 0 every x_k is 0
        c = [x / d_star if x else x for x in islice(sol.primal.values(), n)]
        mech = expand_common_lottery(inst, CommonLottery(c=c))
        sol = _common_lottery_solution(inst, lp, sol)
    else:
        sol = _simplex_optimum(build_min_mass_lp(inst, targets))
        d_star = sol.objective
        # a = y / D; at D = 0 every y is 0 and so is the mechanism.  A zero
        # (a ZERO) scales to itself.
        rows = _cell_matrix(sol, n)
        if d_star != 0:
            rows = tuple(tuple(y / d_star if y else y for y in row) for row in rows)
        mech = DirectMechanism(a=rows)
    # the duals in the row order of `_program_names`: IC, POS, then AGE,
    # each multiplier D* times its dual
    duals = list(sol.duals.values())
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mult = {
        "POS": {k: d_star * v for k, v in enumerate(duals[n_ic : n_ic + n])},
        "AGE": {i: -d_star * v for i, v in enumerate(duals[n_ic + n :])},
        "IC": dict(zip(pairs, [d_star * v if v else v for v in duals[:n_ic]])),
    }
    return MinMassSolution("optimal", d_star, mech, mult, sol)
