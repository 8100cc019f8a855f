"""Direct mechanisms, common lotteries, and the constraint checker.

A direct mechanism is an N x N matrix a with a[k][i] the probability that a
type-i agent is offered the position of quality x_k (row = position,
column = type).  Raw matrices may violate constraints on purpose: the checker
is also a diagnostic tool for infeasible counterexamples, so nothing here
assumes feasibility unless stated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, mul
from typing import NamedTuple, Union

from .errors import LotbenchError
from .instance import Instance
from .rationals import (
    exact_dot,
    exact_sum,
    format_rational,
    parse_rational_vector,
    require_exact,
    to_common_denominator,
)

Rat = Fraction
ZERO = Fraction(0)


@dataclass(frozen=True)
class DirectMechanism:
    """Offer-probability matrix; rows are positions, columns are types.

    The rows are fixed as tuples when the mechanism is built, so a matrix
    built from lists equals and hashes like its tuple twin and does not
    follow later changes to those lists.  Its cells are checked to be
    exact on first read, by the kernel (`_sweep`)."""

    a: tuple[tuple[Rat, ...], ...]
    # the lottery entries of an expansion (`expand_common_lottery`), set
    # after construction: not a field, so `dataclasses.replace` drops them
    _entries = None

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(map(tuple, self.a)))
        n = len(self.a)
        if any(len(row) != n for row in self.a):
            raise LotbenchError("mechanism matrix must be square")

    @property
    def n(self) -> int:
        return len(self.a)

    @cached_property
    def _view(self) -> "_ConstraintSums":
        """The f-free sweep of a (`_sweep`), built on first read and kept.
        It is not a field, so `==`, `hash` and `repr` ignore it.  Callers
        must not mutate it."""
        return _sweep(self.a, self._entries)

    @classmethod
    def from_rows(cls, rows) -> "DirectMechanism":
        if not isinstance(rows, (list, tuple)):
            raise LotbenchError(f"mechanism rows must be a list, got {rows!r}")
        return cls(a=tuple(parse_rational_vector(row) for row in rows))

    @classmethod
    def from_json_dict(cls, data: dict) -> "DirectMechanism":
        return cls.from_rows(data["a"])

    def to_json_dict(self) -> dict:
        return {"a": [[format_rational(v) for v in row] for row in self.a]}


@dataclass(frozen=True)
class CommonLottery:
    """A single offer distribution over positions; the residual is no-offer."""

    c: tuple[Rat, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        require_exact(("lottery", self.c))

    def total(self) -> Rat:
        return exact_sum(self.c)

    @classmethod
    def from_values(cls, values) -> "CommonLottery":
        return cls(c=parse_rational_vector(values))


@dataclass(frozen=True)
class PositionMasses:
    """Mass of agents accepting each position."""

    s: tuple[Rat, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))
        require_exact(("masses", self.s))

    def total(self) -> Rat:
        return exact_sum(self.s)

    @classmethod
    def from_values(cls, values) -> "PositionMasses":
        return cls(s=parse_rational_vector(values))


# --- designer objectives ---------------------------------------------------


@dataclass(frozen=True)
class Fill:
    """Maximize the total mass of agents placed."""


@dataclass(frozen=True)
class Linear:
    """Weighted sum of position masses."""

    weights: tuple[Rat, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        require_exact(("weights", self.weights))


@dataclass(frozen=True)
class SeparableConcave:
    """sum_k alpha_k * s_k**rho with 0 < rho < 1 and positive weights; its
    value is a float (`evaluate_objective`)."""

    weights: tuple[Rat, ...]
    rho: Rat

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        require_exact(("weights", self.weights), ("rho", (self.rho,)))
        if not 0 < self.rho < 1:
            raise LotbenchError("exponent must lie strictly in (0, 1)")
        if any(w <= 0 for w in self.weights):
            raise LotbenchError("concave objective weights must be positive")


Objective = Union[Fill, Linear, SeparableConcave]


def _check_weights(obj: Objective, n: int):
    """A weighted objective needs one weight per position."""
    if isinstance(obj, (Linear, SeparableConcave)) and len(obj.weights) != n:
        raise LotbenchError(
            f"objective has {len(obj.weights)} weights, instance has N={n}"
        )


def _linear_weights(obj: Objective, n: int):
    """The position weights of a linear objective, checked against N, or
    None for any other.  Fill is the linear objective with unit weights."""
    if isinstance(obj, Fill):
        return (1,) * n
    if isinstance(obj, Linear):
        _check_weights(obj, n)
        return obj.weights
    return None


def evaluate_objective(obj: Objective, masses: PositionMasses):
    """Objective value at a mass vector.

    Fill and Linear are exact: the value is one Fraction of an int dot
    product (`rationals.exact_dot`).  The concave objective is a float.
    """
    weights = _linear_weights(obj, len(masses.s))
    if weights is not None:
        return exact_dot(masses.s, weights)
    if isinstance(obj, SeparableConcave):
        _check_weights(obj, len(masses.s))
        for k, s in enumerate(masses.s):
            if s < 0:
                raise LotbenchError(f"mass at position {k} is negative")
        return sum(
            float(w) * float(s) ** float(obj.rho) for w, s in zip(obj.weights, masses.s)
        )
    raise TypeError(f"unknown objective {obj!r}")


# --- constraint evaluation ---------------------------------------------------


def _check_dims(inst: Instance, mech: DirectMechanism):
    if mech.n != inst.n:
        raise LotbenchError(f"mechanism is {mech.n}x{mech.n}, instance has N={inst.n}")


class _ConstraintSums(NamedTuple):
    """The constraint sums of a matrix a, in ints over common denominators.

    With L = scale: rows[k] = L * a[k], slack[i][j] = L * (N-1) * (IC
    slack of type i against report j), participation[i] = L * sum_k a[k][i].
    negative[k] lists the columns of row k's negative cells, and ic_holds
    says that no slack is negative.  Under a type pmf f, with Q the
    denominator of the instance's cdf ints (`Instance._grid`) and
    mass_scale = L * Q, row_mass[k] = mass_scale * sum_{i<=k} a[k][i] f_i;
    the sweep kept on a mechanism is f-free, and holds None for both.
    """

    scale: int
    rows: list[list[int]]
    slack: list[list[int]]
    participation: list[int]
    negative: list[tuple[int, ...]]
    lower_triangular: bool
    ic_holds: bool
    row_mass: list[int] | None = None
    mass_scale: int | None = None


def _sweep(a, entries=None) -> _ConstraintSums:
    """Every IC slack and participation of the matrix a in one O(N^2) sweep.

    The int rows come from a's cells, which are checked to be exact here,
    on first read, or, for the expansion of a common lottery, from its N
    entries, checked when the lottery was built: row k is c_k's int
    repeated k+1 times, then zeros.

    The (N-1)-scaled slack of type i against report j is
    sum_{k>i} (k-i) (a[k][i] - a[k][j]) = G_i[i] - G_i[j] with
    G_i[c] = sum_{k>i} (k-i) a[k][c], which is S1 - i*S0 over the column
    suffix sums S0 = sum_{k>=i} a[k][c] and S1 = sum_{k>=i} k a[k][c].
    Sweeping i down from N-1, G_i = G_{i+1} + (column sums of the rows
    below i), so each row costs O(N) integer additions.  An expansion's
    sums are read from its entries e_k instead (`_expansion_sweep`).
    """
    if entries is not None:
        return _expansion_sweep(entries)
    n = len(a)
    require_exact(*((f"mechanism row {k}", row) for k, row in enumerate(a)))
    scale, rows = to_common_denominator(a)
    rows = list(rows)
    below = [0] * n  # column sums of the rows k > i
    gap = [0] * n  # G_i
    slack = [None] * n
    negative = [()] * n
    lower_triangular = ic_holds = True
    for i in range(n - 1, -1, -1):
        row = rows[i]
        gap = list(map(add, gap, below))
        slack[i] = list(map(gap[i].__sub__, gap))
        ic_holds = ic_holds and min(slack[i]) >= 0
        below = list(map(add, below, row))
        if min(row) < 0:
            negative[i] = tuple(c for c, v in enumerate(row) if v < 0)
        lower_triangular = lower_triangular and not any(row[i + 1:])
    return _ConstraintSums(scale, rows, slack, below, negative, lower_triangular, ic_holds)


def _expansion_sweep(entries) -> _ConstraintSums:
    """The sweep of the expansion of the lottery with these entries, equal
    field for field to `_sweep` of its matrix, from the prefix sums of the
    entries' ints e_k over one denominator.

    Type i takes every position k >= i, so its participation is
    sum_{k>=i} e_k.  Against report j <= i it sees the same offers, slack 0;
    against j > i it loses the positions i < k < j, slack
    sum_{i<k<j} (k-i) e_k = (T_j - T_{i+1}) - i (S_j - S_{i+1}) over the
    prefix sums S_m = sum_{k<m} e_k and T_m = sum_{k<m} k e_k.  The entries
    are nonnegative (`_check_lottery`), so no cell and no slack is negative.
    """
    n = len(entries)
    scale, (ints,) = to_common_denominator([entries])
    rows = [[c] * (k + 1) + [0] * (n - k - 1) for k, c in enumerate(ints)]
    s0 = [0, *accumulate(ints)]
    s1 = [0, *accumulate(map(mul, range(n), ints))]
    slack = []
    for i in range(n):
        base = s1[i + 1] - i * s0[i + 1]
        slack.append([0] * (i + 1) + [t - i * s - base for s, t in zip(s0[i + 1:n], s1[i + 1:n])])
    participation = [s0[n] - s for s in s0[:n]]
    return _ConstraintSums(scale, rows, slack, participation, [()] * n, True, True)


def _constraint_sums(inst: Instance, mech: DirectMechanism) -> _ConstraintSums:
    """The sweep of mech.a (kept on mech, see `DirectMechanism._view`) and
    its row masses under inst's pmf, which are computed on every call.  The
    row k of an expanded lottery is c_k on the types i <= k, whose pmf sums
    to F_k, so its row mass is one product."""
    sweep = mech._view
    grid = inst._grid
    if mech._entries is not None:
        row_mass = [row[0] * p for row, p in zip(sweep.rows, grid.ps)]
    else:
        row_mass = [sum(map(mul, row[:k + 1], grid.pmf)) for k, row in enumerate(sweep.rows)]
    return sweep._replace(row_mass=row_mass, mass_scale=sweep.scale * grid.fscale)


def _is_feasible(inst: Instance, sums: _ConstraintSums) -> bool:
    """Every constraint of the direct-mechanism program holds.

    A position row D m / mass_scale <= g_k is compared cross-multiplied by
    the positive denominators of D and g_k, all in ints.
    """
    d, cap = inst.d.numerator, inst.d.denominator * sums.mass_scale
    return (
        sums.lower_triangular
        and not any(sums.negative)
        and sums.ic_holds
        and all(p <= sums.scale for p in sums.participation)
        and all(
            d * m * gk.denominator <= gk.numerator * cap
            for gk, m in zip(inst.g, sums.row_mass)
        )
    )


def position_masses(inst: Instance, mech: DirectMechanism) -> PositionMasses:
    """s_k = D * sum_{i<=k} a[k][i] f_i, each one Fraction of the kernel's
    int row masses."""
    _check_dims(inst, mech)
    sums = _constraint_sums(inst, mech)
    d, den = inst.d.numerator, inst.d.denominator * sums.mass_scale
    return PositionMasses(s=tuple(Fraction(d * m, den) if m else ZERO for m in sums.row_mass))


@dataclass(frozen=True)
class FeasibilityReport:
    """Every constraint of the direct-mechanism program, evaluated exactly.

    The IC slacks are kept as the kernel's ints over one denominator, and
    `ic_slack` divides them on first read.  So `==` and `repr` leave the IC
    slacks out; `binding_ics` and `ic_violations()` carry their signs.
    """

    _slack: list[list[int]] = field(repr=False, compare=False)
    _slack_scale: int = field(repr=False, compare=False)
    participation: tuple[Rat, ...]
    position_slack: tuple[Rat, ...]
    agent_slack: tuple[Rat, ...]
    ex_post_ir_ok: bool
    negative_cells: tuple[tuple[int, int], ...]
    is_feasible: bool
    binding_ics: frozenset[tuple[int, int]]

    @cached_property
    def ic_slack(self) -> tuple[tuple[Rat, ...], ...]:
        """ic_slack[i][j] = sum_{k>=i} (x_k - theta_i) (a[k][i] - a[k][j]) is
        LHS - RHS of the truth-telling constraint for type i against report
        j: nonnegative means type i does not gain by reporting j and then
        keeping only realized offers above its own outside option."""
        den = self._slack_scale
        return tuple(
            tuple(Fraction(v, den) if v else ZERO for v in row) for row in self._slack
        )

    def ic_violations(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i, row in enumerate(self._slack)
            for j, v in enumerate(row)
            if v < 0 and i != j
        ]

    def violations(self) -> list[str]:
        """Names of the violated constraints: IC[i,j], POS[k], AGE[i],
        acceptance-support, then NONNEG[k,i] for each negative cell."""
        names = [f"IC[{i},{j}]" for i, j in self.ic_violations()]
        names += [f"POS[{k}]" for k, ps in enumerate(self.position_slack) if ps < 0]
        names += [f"AGE[{i}]" for i, asl in enumerate(self.agent_slack) if asl < 0]
        if not self.ex_post_ir_ok:
            names.append("acceptance-support")
        names += [f"NONNEG[{k},{i}]" for k, i in self.negative_cells]
        return names


def feasibility_report(inst: Instance, mech: DirectMechanism) -> FeasibilityReport:
    """Evaluate every constraint of the direct-mechanism program exactly,
    in O(N^2) integer operations; each reported value is one Fraction of
    the kernel's ints, the IC slacks built on first read."""
    _check_dims(inst, mech)
    sums = _constraint_sums(inst, mech)
    scale = sums.scale
    participation = tuple(Fraction(p, scale) for p in sums.participation)
    # g_k - D m / mass_scale over the denominators of g_k and D
    d, cap = inst.d.numerator, inst.d.denominator * sums.mass_scale
    position_slack = tuple(
        Fraction(gk.numerator * cap - d * m * gk.denominator, gk.denominator * cap)
        for gk, m in zip(inst.g, sums.row_mass)
    )
    binding = frozenset(
        (i, j)
        for i, row in enumerate(sums.slack)
        for j, v in enumerate(row)
        if v == 0 and i != j
    )
    return FeasibilityReport(
        _slack=sums.slack,
        _slack_scale=scale * (inst.n - 1),
        participation=participation,
        position_slack=position_slack,
        agent_slack=tuple(Fraction(scale - p, scale) for p in sums.participation),
        ex_post_ir_ok=sums.lower_triangular,
        negative_cells=tuple((k, i) for k, cols in enumerate(sums.negative) for i in cols),
        is_feasible=_is_feasible(inst, sums),
        binding_ics=binding,
    )


def _check_lottery(cl: CommonLottery, n: int, what: str = "lottery"):
    """A valid offer distribution over N positions: length N, total at
    most 1, nonnegative entries.  `expand_common_lottery` checks its
    lottery here before it records the entries, so the sweep from entries
    (`_expansion_sweep`) never sees a negative one."""
    if len(cl.c) != n:
        raise LotbenchError(f"{what} has length {len(cl.c)}, need {n}")
    total = cl.total()
    if total > 1:
        raise LotbenchError(f"{what}: offer probabilities total {total} > 1")
    if any(ck < 0 for ck in cl.c):
        raise LotbenchError(f"{what}: offer probabilities must be nonnegative")


def expand_common_lottery(inst: Instance, cl: CommonLottery) -> DirectMechanism:
    """Direct representation: each type sees the lottery truncated below its
    outside option.  The result is IC and ex-post IR by construction.

    The mechanism records the lottery's entries, from which its kernel is
    scaled on first read: N denominators, not N^2 cells."""
    _check_lottery(cl, inst.n)
    n = inst.n
    mech = DirectMechanism(
        a=tuple((c,) * (k + 1) + (ZERO,) * (n - k - 1) for k, c in enumerate(cl.c))
    )
    object.__setattr__(mech, "_entries", cl.c)
    return mech
