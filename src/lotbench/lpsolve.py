"""Exact-rational two-phase simplex and builders for the designer's LPs.

Everything here runs on `fractions.Fraction`: pivots never round, optimal
values and dual prices are exact, and strong duality / complementary
slackness can be asserted with equality.  Bland's smallest-index rule is
used throughout, so the solver terminates even on degenerate inputs.

Reported dual prices follow the shadow-price convention: the dual of a
constraint is the exact derivative of the optimal value (in the LP's own
sense) with respect to that constraint's right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, NotOptimal, UnsupportedObjective
from .instance import Instance
from .mechanism import (
    DirectMechanism,
    Fill,
    Linear,
    Objective,
    PositionMasses,
    SeparableConcave,
)
from .rationals import format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

LE, EQ, GE = "<=", "=", ">="


@dataclass
class LinearProgram:
    """A general LP over named variables with row-wise relations."""

    sense: str  # "min" or "max"
    c: list[Fraction]
    rows: list[list[Fraction]]
    rels: list[str]
    rhs: list[Fraction]
    var_names: list[str]
    con_names: list[str]
    lower: list[Fraction | None] = field(default_factory=list)  # None = free
    upper: list[Fraction | None] = field(default_factory=list)  # None = +inf

    def __post_init__(self):
        nv = len(self.var_names)
        if not self.lower:
            self.lower = [ZERO] * nv
        if not self.upper:
            self.upper = [None] * nv
        if len(self.c) != nv:
            raise DimensionMismatch(f"objective has {len(self.c)} entries, need {nv}")
        if not len(self.rows) == len(self.rels) == len(self.rhs) == len(self.con_names):
            raise DimensionMismatch(
                "rows, relations, right-hand sides and names must align"
            )
        if any(len(row) != nv for row in self.rows):
            raise DimensionMismatch(f"every constraint row needs {nv} entries")
        for lo, up in zip(self.lower, self.upper):
            if lo is not None and up is not None and lo > up:
                raise ValueError("variable lower bound exceeds upper bound")

    def to_text(self) -> str:
        """Free-form MPS-like dump for debugging (not bit-standardized)."""
        out = [f"{self.sense} " + " + ".join(
            f"{format_rational(cj)}*{name}" for cj, name in zip(self.c, self.var_names) if cj
        )]
        for name, row, rel, b in zip(self.con_names, self.rows, self.rels, self.rhs):
            terms = " + ".join(
                f"{format_rational(v)}*{vn}" for v, vn in zip(row, self.var_names) if v
            )
            out.append(f"{name}: {terms or '0'} {rel} {format_rational(b)}")
        for name, lo, up in zip(self.var_names, self.lower, self.upper):
            lo_s = "-inf" if lo is None else format_rational(lo)
            up_s = "+inf" if up is None else format_rational(up)
            out.append(f"bound {lo_s} <= {name} <= {up_s}")
        return "\n".join(out)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    primal: dict[str, Fraction]
    duals: dict[str, Fraction]
    basis: tuple[str, ...]


class _Tableau:
    """Dense simplex tableau over Fractions with Bland pivoting."""

    def __init__(self, a_cols, b, m):
        # a_cols: list of columns (each list of m Fractions)
        self.m = m
        self.cols = [list(col) for col in a_cols]
        self.b = list(b)
        self.basis = [-1] * m

    def pivot(self, row: int, col: int):
        cols, b, m = self.cols, self.b, self.m
        piv = cols[col][row]
        inv = ONE / piv
        for c in cols:
            c[row] *= inv
        b[row] *= inv
        pivot_col = cols[col]
        for r in range(m):
            if r == row:
                continue
            factor = pivot_col[r]
            if factor == 0:
                continue
            for c in cols:
                if c[row] != 0:
                    c[r] -= factor * c[row]
            b[r] -= factor * b[row]
        self.basis[row] = col

    def reduced_costs(self, costs):
        """r_j = c_j - c_B . column_j for the current (eliminated) tableau."""
        cb = [costs[self.basis[r]] for r in range(self.m)]
        red = []
        for j, col in enumerate(self.cols):
            rj = costs[j]
            for r in range(self.m):
                if cb[r] != 0 and col[r] != 0:
                    rj -= cb[r] * col[r]
            red.append(rj)
        return red

    def run(self, costs, allowed):
        """Minimize costs over allowed entering columns; returns status."""
        while True:
            red = self.reduced_costs(costs)
            enter = -1
            for j in allowed:
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            col = self.cols[enter]
            leave = -1
            best = None
            for r in range(self.m):
                if col[r] > 0:
                    ratio = self.b[r] / col[r]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def _solve_square(mat, rhs):
    """Gaussian elimination over Fractions; mat is a list of rows."""
    n = len(rhs)
    aug = [list(mat[r]) + [rhs[r]] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular basis matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of a general LP; status encodes infeasible/unbounded."""
    nv = len(lp.var_names)
    minimize = lp.sense == "min"

    # Normalize variables to x' >= 0: shift finite lower bounds, split free
    # variables, and turn upper bounds into extra <= rows.
    col_map = []  # per original var: ("shift", col, lo) or ("split", cp, cm)
    cols_c = []
    shift_const = ZERO
    rows = [list(r) for r in lp.rows]
    rhs = list(lp.rhs)
    rels = list(lp.rels)
    con_names = list(lp.con_names)
    n_user_rows = len(rows)

    ncols = 0
    for j in range(nv):
        cj = lp.c[j] if minimize else -lp.c[j]
        lo, up = lp.lower[j], lp.upper[j]
        if lo is None:
            col_map.append(("split", ncols, ncols + 1))
            cols_c.extend([cj, -cj])
            ncols += 2
        else:
            if lo != 0:
                for r in range(n_user_rows):
                    rhs[r] -= rows[r][j] * lo
                shift_const += cj * lo
            col_map.append(("shift", ncols, lo))
            cols_c.append(cj)
            ncols += 1
            if up is not None:
                rows.append([ONE if jj == j else ZERO for jj in range(nv)])
                rels.append(LE)
                rhs.append(up - lo)
                con_names.append(f"_ub[{lp.var_names[j]}]")

    m = len(rows)
    # Expand user rows into normalized columns.
    a_cols = [[ZERO] * m for _ in range(ncols)]
    for r, row in enumerate(rows):
        for j in range(nv):
            v = row[j]
            if v == 0:
                continue
            kind = col_map[j]
            if kind[0] == "shift":
                a_cols[kind[1]][r] += v
            else:
                a_cols[kind[1]][r] += v
                a_cols[kind[2]][r] -= v
    costs = list(cols_c)

    # Slack/surplus columns.
    slack_of_row = [-1] * m
    for r in range(m):
        if rels[r] == LE:
            col = [ZERO] * m
            col[r] = ONE
        elif rels[r] == GE:
            col = [ZERO] * m
            col[r] = -ONE
        else:
            continue
        slack_of_row[r] = len(a_cols)
        a_cols.append(col)
        costs.append(ZERO)

    # Make rhs nonnegative.
    negated = [False] * m
    b = list(rhs)
    for r in range(m):
        if b[r] < 0:
            negated[r] = True
            b[r] = -b[r]
            for col in a_cols:
                col[r] = -col[r]

    n_real = len(a_cols)
    tab = _Tableau(a_cols, b, m)

    # Initial basis: positive slacks where possible, artificials elsewhere.
    artificials = []
    art_row = {}  # artificial column index -> its defining row
    for r in range(m):
        sc = slack_of_row[r]
        if sc >= 0 and tab.cols[sc][r] == ONE:
            tab.basis[r] = sc
        else:
            col = [ZERO] * m
            col[r] = ONE
            tab.basis[r] = len(tab.cols)
            artificials.append(len(tab.cols))
            art_row[len(tab.cols)] = r
            tab.cols.append(col)
            costs.append(ZERO)

    art_set = set(artificials)
    if artificials:
        phase1 = [ZERO] * n_real + [ONE] * len(artificials)
        status = tab.run(phase1, allowed=range(len(tab.cols)))
        if status != "optimal":  # phase 1 is always bounded below by 0
            raise AssertionError(f"phase 1 ended {status!r}")
        infeas = sum(
            (tab.b[r] for r in range(m) if tab.basis[r] in art_set), ZERO
        )
        if infeas != 0:
            return LpSolution("infeasible", None, {}, {}, ())
        # Pivot artificials out of the basis where a real column allows it.
        for r in range(m):
            if tab.basis[r] in art_set:
                enter = next(
                    (j for j in range(n_real) if tab.cols[j][r] != 0), None
                )
                if enter is not None:
                    tab.pivot(r, enter)

    status = tab.run(costs, allowed=range(n_real))
    if status == "unbounded":
        return LpSolution("unbounded", None, {}, {}, ())

    # Primal values in normalized space.
    xnorm = [ZERO] * len(tab.cols)
    for r in range(m):
        xnorm[tab.basis[r]] = tab.b[r]
    primal = {}
    for j, name in enumerate(lp.var_names):
        kind = col_map[j]
        if kind[0] == "shift":
            primal[name] = xnorm[kind[1]] + kind[2]
        else:
            primal[name] = xnorm[kind[1]] - xnorm[kind[2]]

    value_int = shift_const + sum(
        (costs[jj] * xnorm[jj] for jj in range(n_real) if costs[jj] != 0), ZERO
    )
    objective = value_int if minimize else -value_int

    # Duals from the final basis: solve B^T y = c_B exactly.  A leftover
    # basic artificial (degenerate redundant row) contributes a unit column.
    basis_cols = []
    for r in range(m):
        j = tab.basis[r]
        if j < len(a_cols):
            basis_cols.append(a_cols[j])
        else:
            col = [ZERO] * m
            col[art_row[j]] = ONE
            basis_cols.append(col)
    # B's column r is basis_cols[r], so row r of B^T is basis_cols[r] itself.
    btt = [list(bc) for bc in basis_cols]
    cb = [costs[tab.basis[r]] for r in range(m)]
    y = _solve_square(btt, cb)
    sense_sign = ONE if minimize else -ONE
    duals = {}
    for r in range(n_user_rows):
        sign = -ONE if negated[r] else ONE
        duals[lp.con_names[r]] = sense_sign * sign * y[r]

    basis_names = tuple(
        lp.var_names[_norm_to_var(col_map, tab.basis[r])]
        if _norm_to_var(col_map, tab.basis[r]) is not None
        else f"_col{tab.basis[r]}"
        for r in range(m)
    )
    return LpSolution("optimal", objective, primal, duals, basis_names)


def _norm_to_var(col_map, norm_col):
    for j, kind in enumerate(col_map):
        if kind[0] == "shift" and kind[1] == norm_col:
            return j
        if kind[0] == "split" and norm_col in (kind[1], kind[2]):
            return j
    return None


# --- designer problem builders ----------------------------------------------


def _linear_weights(inst: Instance, obj: Objective):
    if isinstance(obj, Fill):
        return [ONE] * inst.n
    if isinstance(obj, Linear):
        if len(obj.weights) != inst.n:
            raise UnsupportedObjective("weight vector length must equal N")
        return list(obj.weights)
    raise UnsupportedObjective("the designer LP requires a linear objective")


def _cells(n: int):
    return [(k, i) for k in range(n) for i in range(k + 1)]


def _ic_row(inst: Instance, cells, index_of, i, j):
    """Row for the (i, j) truth-telling constraint in cell variables."""
    row = [ZERO] * len(cells)
    for k in range(i, inst.n):
        gain = inst.x(k) - inst.theta(i)
        if k >= i:
            row[index_of[(k, i)]] += gain
        if k >= j:
            row[index_of[(k, j)]] -= gain
    return row


def build_designer_lp(inst: Instance, obj: Objective) -> LinearProgram:
    """The full direct-mechanism program with ex-post IR imposed structurally:
    only cells with k >= i are variables."""
    weights = _linear_weights(inst, obj)
    n = inst.n
    cells = _cells(n)
    index_of = {cell: t for t, cell in enumerate(cells)}
    var_names = [f"a[{k}][{i}]" for k, i in cells]

    c = [weights[k] * inst.d * inst.f[i] for k, i in cells]
    rows, rels, rhs, names = [], [], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rows.append(_ic_row(inst, cells, index_of, i, j))
            rels.append(GE)
            rhs.append(ZERO)
            names.append(f"IC[{i},{j}]")
    for k in range(n):
        row = [ZERO] * len(cells)
        for i in range(k + 1):
            row[index_of[(k, i)]] = inst.d * inst.f[i]
        rows.append(row)
        rels.append(LE)
        rhs.append(inst.g[k])
        names.append(f"POS[{k}]")
    for i in range(n):
        row = [ZERO] * len(cells)
        for k in range(i, n):
            row[index_of[(k, i)]] = ONE
        rows.append(row)
        rels.append(LE)
        rhs.append(ONE)
        names.append(f"AGE[{i}]")
    return LinearProgram(
        sense="max", c=c, rows=rows, rels=rels, rhs=rhs,
        var_names=var_names, con_names=names,
    )


def build_min_mass_lp(inst: Instance, targets: PositionMasses) -> LinearProgram:
    """Minimum agent mass needed to hit target position masses.

    The program is linearized with y[k][i] = D * a(x_k; theta_i), which is
    valid because the IC system is positively homogeneous: scaling a whole
    mechanism by a constant scales both sides of every IC constraint.
    """
    if any(sk < 0 for sk in targets.s):
        raise ValueError("targets must be nonnegative")
    n = inst.n
    cells = _cells(n)
    index_of = {cell: t for t, cell in enumerate(cells)}
    var_names = [f"y[{k}][{i}]" for k, i in cells] + ["D"]
    nv = len(var_names)
    d_col = nv - 1

    c = [ZERO] * nv
    c[d_col] = ONE
    rows, rels, rhs, names = [], [], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = _ic_row(inst, cells, index_of, i, j) + [ZERO]
            rows.append(row)
            rels.append(GE)
            rhs.append(ZERO)
            names.append(f"IC[{i},{j}]")
    for k in range(n):
        row = [ZERO] * nv
        for i in range(k + 1):
            row[index_of[(k, i)]] = inst.f[i]
        rows.append(row)
        rels.append(GE)
        rhs.append(targets.s[k])
        names.append(f"POS[{k}]")
    for i in range(n):
        row = [ZERO] * nv
        for k in range(i, n):
            row[index_of[(k, i)]] = ONE
        row[d_col] = -ONE
        rows.append(row)
        rels.append(LE)
        rhs.append(ZERO)
        names.append(f"AGE[{i}]")
    return LinearProgram(
        sense="min", c=c, rows=rows, rels=rels, rhs=rhs,
        var_names=var_names, con_names=names,
    )


def solve_designer(inst: Instance, obj: Objective):
    """Optimal feasible mechanism and value for a linear objective."""
    lp = build_designer_lp(inst, obj)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise NotOptimal(f"designer LP ended with status {sol.status}")
    n = inst.n
    rows = tuple(
        tuple(sol.primal.get(f"a[{k}][{i}]", ZERO) for i in range(n))
        for k in range(n)
    )
    return DirectMechanism(a=rows), sol.objective


@dataclass(frozen=True)
class MinMassSolution:
    """Solved minimum-agent-mass problem for target position masses.

    The LP runs in scaled variables y = D * a, which keeps it linear; the
    mechanism is recovered by dividing out the optimal mass.  multipliers
    holds the normalized shadow prices: each raw dual is multiplied by the
    optimal mass so that the position-target prices read D/F(theta_k) and
    the agent-budget price reads D, with all entries nonnegative.
    """

    status: str
    d_star: Fraction | None
    mechanism: DirectMechanism | None
    multipliers: dict | None
    solution: LpSolution


def solve_min_mass(inst: Instance, targets: PositionMasses) -> MinMassSolution:
    lp = build_min_mass_lp(inst, targets)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        return MinMassSolution(sol.status, None, None, None, sol)
    d_star = sol.objective
    n = inst.n
    if d_star == 0:
        rows = tuple((ZERO,) * n for _ in range(n))
    else:
        rows = tuple(
            tuple(sol.primal.get(f"y[{k}][{i}]", ZERO) / d_star for i in range(n))
            for k in range(n)
        )
    raw = dual_certificate(inst, sol)
    mult = {
        "POS": {k: d_star * v for k, v in raw["POS"].items()},
        "AGE": {i: -d_star * v for i, v in raw["AGE"].items()},
        "IC": {pair: d_star * v for pair, v in raw["IC"].items()},
    }
    return MinMassSolution("optimal", d_star, DirectMechanism(a=rows), mult, sol)


def dual_certificate(inst: Instance, solution: LpSolution) -> dict:
    """Multiplier report keyed by constraint family for an optimal solution."""
    if solution.status != "optimal":
        raise NotOptimal(f"cannot certify a solution with status {solution.status}")
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
