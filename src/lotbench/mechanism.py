"""Direct mechanisms, common lotteries, and the constraint checker.

A direct mechanism is an N x N matrix a with a[k][i] the probability that a
type-i agent is offered the position of quality x_k (row = position,
column = type).  Raw matrices may violate constraints on purpose: the checker
is also a diagnostic tool for infeasible counterexamples, so nothing here
assumes feasibility unless stated.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import NamedTuple, Union

from .errors import LotbenchError
from .instance import Instance
from .rationals import (
    format_rational_matrix,
    parse_rational_vector,
    require_exact,
    to_common_denominator,
)

Rat = Fraction
ZERO = Fraction(0)


@dataclass(frozen=True)
class DirectMechanism:
    """Offer-probability matrix; rows are positions, columns are types."""

    a: tuple[tuple[Rat, ...], ...]

    def __post_init__(self):
        n = len(self.a)
        if any(len(row) != n for row in self.a):
            raise LotbenchError("mechanism matrix must be square")

    @property
    def n(self) -> int:
        return len(self.a)

    @classmethod
    def from_rows(cls, rows) -> "DirectMechanism":
        if not isinstance(rows, (list, tuple)):
            raise LotbenchError(f"mechanism rows must be a list, got {rows!r}")
        return cls(a=tuple(parse_rational_vector(row) for row in rows))

    @classmethod
    def from_json_dict(cls, data: dict) -> "DirectMechanism":
        return cls.from_rows(data["a"])

    def to_json_dict(self) -> dict:
        return {"a": format_rational_matrix(self.a)}


@dataclass(frozen=True)
class CommonLottery:
    """A single offer distribution over positions; the residual is no-offer."""

    c: tuple[Rat, ...]

    def total(self) -> Rat:
        return sum(self.c, Fraction(0))

    @classmethod
    def from_values(cls, values) -> "CommonLottery":
        return cls(c=parse_rational_vector(values))


@dataclass(frozen=True)
class PositionMasses:
    """Mass of agents accepting each position."""

    s: tuple[Rat, ...]

    def total(self) -> Rat:
        return sum(self.s, Fraction(0))

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
        require_exact(("weights", self.weights))


@dataclass(frozen=True)
class SeparableConcave:
    """sum_k alpha_k * s_k**rho with 0 < rho < 1 and positive weights."""

    weights: tuple[Rat, ...]
    rho: Rat

    def __post_init__(self):
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
    """Objective value at a mass vector; exact for Fill/Linear, float otherwise."""
    weights = _linear_weights(obj, len(masses.s))
    if weights is not None:
        return sum(map(mul, masses.s, weights), ZERO)
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


def _row_mass(row, f, k: int):
    """sum_{i<=k} row[i] f_i: row k's offers weighted by the types that
    accept them (offers below the outside option are never counted).
    Exact for Fractions and for ints alike."""
    return sum(map(mul, row[:k + 1], f))


class _ConstraintSums(NamedTuple):
    """The constraint sums of a matrix a, in ints over common denominators.

    With L = scale: slack[i][j] = L * (N-1) * (IC slack of type i against
    report j), participation[i] = L * sum_k a[k][i], and
    row_mass[k] = mass_scale * sum_{i<=k} a[k][i] f_i.  negative[k] lists
    the columns of row k's negative cells, and ic_holds says that no slack
    is negative.
    """

    scale: int
    slack: list[list[int]]
    participation: list[int]
    row_mass: list[int]
    mass_scale: int
    negative: list[tuple[int, ...]]
    lower_triangular: bool
    ic_holds: bool


# The last kernel computed, as (weak reference to its mechanism, the f it
# was computed with, the kernel), or None.  One entry: a feasibility report
# followed by the collapse of the same mechanism sweeps it once, and no
# other mechanism's kernel is kept.
_last_sums = None


def _forget_sums(ref):
    """Weak-reference callback: drop the memo when its mechanism is freed."""
    global _last_sums
    entry = _last_sums
    if entry is not None and entry[0] is ref:
        _last_sums = None


def _constraint_sums(mech: DirectMechanism, f) -> _ConstraintSums:
    """Every IC slack, participation and row mass of mech.a in one O(N^2)
    sweep.

    The (N-1)-scaled slack of type i against report j is
    sum_{k>i} (k-i) (a[k][i] - a[k][j]) = G_i[i] - G_i[j] with
    G_i[c] = sum_{k>i} (k-i) a[k][c], which is S1 - i*S0 over the column
    suffix sums S0 = sum_{k>=i} a[k][c] and S1 = sum_{k>=i} k a[k][c].
    Sweeping i down from N-1, G_i = G_{i+1} + (column sums of the rows
    below i), so each row costs O(N) integer additions.

    The last kernel is kept, keyed by the identity of mech and of f, with
    mech held only weakly; callers must not mutate it.  It is kept only
    when mech.a is a tuple of tuples, because a matrix of lists can change
    in place.
    """
    global _last_sums
    entry = _last_sums
    if entry is not None and entry[0]() is mech and entry[1] is f:
        return entry[2]
    a = mech.a
    n = len(a)
    scale, rows = to_common_denominator(a[::-1])
    fscale, (fs,) = to_common_denominator([f])
    below = [0] * n  # column sums of the rows k > i
    gap = [0] * n  # G_i
    slack = [None] * n
    row_mass = [0] * n
    negative = [()] * n
    lower_triangular = ic_holds = True
    for i, row in zip(range(n - 1, -1, -1), rows):
        gap = list(map(add, gap, below))
        own = gap[i]
        slack[i] = [own - g for g in gap]
        ic_holds = ic_holds and min(slack[i]) >= 0
        below = list(map(add, below, row))
        row_mass[i] = _row_mass(row, fs, i)
        negative[i] = tuple(c for c, v in enumerate(row) if v < 0)
        lower_triangular = lower_triangular and not any(row[i + 1:])
    sums = _ConstraintSums(
        scale, slack, below, row_mass, scale * fscale, negative, lower_triangular, ic_holds
    )
    if type(a) is tuple and all(type(row) is tuple for row in a):
        _last_sums = (weakref.ref(mech, _forget_sums), f, sums)
    return sums


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
    """s_k = D * sum_{i<=k} a[k][i] f_i."""
    _check_dims(inst, mech)
    s = tuple(inst.d * _row_mass(row, inst.f, k) for k, row in enumerate(mech.a))
    return PositionMasses(s=s)


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
    in O(N^2) integer operations; each reported value is divided once, the
    IC slacks on first read."""
    _check_dims(inst, mech)
    sums = _constraint_sums(mech, inst.f)
    participation = tuple(Fraction(p, sums.scale) for p in sums.participation)
    position_slack = tuple(
        gk - inst.d * Fraction(m, sums.mass_scale)
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
        _slack_scale=sums.scale * (inst.n - 1),
        participation=participation,
        position_slack=position_slack,
        agent_slack=tuple(1 - p for p in participation),
        ex_post_ir_ok=sums.lower_triangular,
        negative_cells=tuple((k, i) for k, cols in enumerate(sums.negative) for i in cols),
        is_feasible=_is_feasible(inst, sums),
        binding_ics=binding,
    )


def _check_lottery(cl: CommonLottery, n: int, what: str = "lottery"):
    """A valid offer distribution over N positions: length N, total at
    most 1, nonnegative entries."""
    if len(cl.c) != n:
        raise LotbenchError(f"{what} has length {len(cl.c)}, need {n}")
    total = cl.total()
    if total > 1:
        raise LotbenchError(f"{what}: offer probabilities total {total} > 1")
    if any(ck < 0 for ck in cl.c):
        raise LotbenchError(f"{what}: offer probabilities must be nonnegative")


def expand_common_lottery(inst: Instance, cl: CommonLottery) -> DirectMechanism:
    """Direct representation: each type sees the lottery truncated below its
    outside option.  The result is IC and ex-post IR by construction."""
    _check_lottery(cl, inst.n)
    n = inst.n
    rows = tuple(
        tuple(cl.c[k] if i <= k else ZERO for i in range(n)) for k in range(n)
    )
    return DirectMechanism(a=rows)
