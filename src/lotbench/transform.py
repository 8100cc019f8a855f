"""Collapsing a direct mechanism into a common lottery, and the exact
participation-probability decomposition that certifies when this is safe.

The central map averages each position row over the types that find the
position acceptable, weighted by the type pmf.  It preserves position
masses by construction; whether the resulting offer probabilities still
sum to at most one is exactly the question the multiplier machinery
answers (yes whenever 1/F is discretely convex).

All truth-telling expressions in this module are scaled by (N-1) so that
the utility gaps (x_k - theta_i) become the integers (k - i); the
multiplier closed forms assume that scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LotbenchError
from .instance import Instance, _grid_convexity, _integer_grid
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    _check_dims,
    _row_mass,
    _scaled_ic,
    feasibility_report,
)
from .rationals import format_rational

ZERO = Fraction(0)


@dataclass(frozen=True)
class Multipliers:
    """Nonnegative weights attached to the truth-telling constraints.

    local_up[i] weights the adjacent upward pair (i, i+1) and equals
    f_{i+1} / F_{i+1}; down[i][j] (j < i) weights the downward pair (i, j)
    and equals f_j times the second difference of 1/F at i.  The downward
    weights are all nonnegative exactly when 1/F is discretely convex.
    Rows of down with no defined value are zero, which is harmless: the
    scaled expressions they would multiply vanish identically.  On an
    uneven grid both are divided by the spacings around the pair.
    """

    local_up: tuple[Fraction, ...]
    down: tuple[tuple[Fraction, ...], ...]


def multipliers(inst: Instance) -> Multipliers:
    return _grid_multipliers(*_integer_grid(inst))


def _grid_pmf(F) -> list[Fraction]:
    return [F[0]] + [F[i] - F[i - 1] for i in range(1, len(F))]


def _grid_multipliers(x, F) -> Multipliers:
    """Constraint weights on an increasing grid x with cdf F."""
    n = len(x)
    f = _grid_pmf(F)
    d2 = _grid_convexity(x, F).second_differences
    local_up = tuple(f[i + 1] / F[i + 1] / (x[i + 1] - x[i]) for i in range(n - 1))
    down = [()]
    for i in range(1, n):
        if i <= n - 2:
            w = d2[i - 1] / ((x[i + 1] - x[i]) * (x[i] - x[i - 1]))
            down.append(tuple(f[j] * w for j in range(i)))
        else:
            # the scaled constraint this would weight is identically
            # zero (the only surviving index has gap 0)
            down.append((ZERO,) * i)
    return Multipliers(local_up=local_up, down=tuple(down))


def to_common_lottery(inst: Instance, mech: DirectMechanism):
    """Average each row over acceptable types; returns (lottery, overflow).

    Position masses are always preserved.  The overflow flag is True when
    the offer probabilities total more than one, in which case the result
    is not a valid lottery; with convex 1/F this never happens for
    feasible input.
    """
    report = feasibility_report(inst, mech)
    if not report.is_feasible:
        raise LotbenchError("the collapse guarantee is stated for feasible input")
    c = _row_averages(inst, mech)
    lottery = CommonLottery(c=c)
    return lottery, lottery.total() > 1


def _row_averages(inst: Instance, mech: DirectMechanism) -> tuple[Fraction, ...]:
    return tuple(_row_mass(mech.a, inst.f, k) / inst.cdf(k) for k in range(inst.n))


@dataclass(frozen=True)
class DecompositionReport:
    """Exact split of the lowest type's participation probability.

    p_theta0 = common_term + info_term holds as an algebraic identity for
    any matrix supported on k >= i; residual records the difference and
    must be exactly zero.
    """

    common_term: Fraction
    info_term: Fraction
    p_theta0: Fraction
    residual: Fraction

    def to_json_dict(self) -> dict:
        return {
            "common_term": format_rational(self.common_term),
            "info_term": format_rational(self.info_term),
            "p_theta0": format_rational(self.p_theta0),
            "residual": format_rational(self.residual),
        }


def verify_decomposition(inst: Instance, mech: DirectMechanism) -> DecompositionReport:
    _check_dims(inst, mech)
    n = inst.n
    mult = multipliers(inst)
    common = sum(_row_averages(inst, mech), ZERO)
    info = ZERO
    for i in range(n - 1):
        info += mult.local_up[i] * _scaled_ic(mech.a, i, i + 1)
    for i in range(1, n):
        for j in range(i):
            lam = mult.down[i][j]
            if lam != 0:
                info += lam * _scaled_ic(mech.a, i, j)
    p0 = mech.participation(0)
    return DecompositionReport(
        common_term=common,
        info_term=info,
        p_theta0=p0,
        residual=p0 - common - info,
    )


def mu_coefficients(inst: Instance) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient of each matrix cell in the information term.

    Built by aggregating the multiplier-weighted constraint rows, then
    checked against the closed forms: mu[k][0] = 1 - f_0/F_k and
    mu[k][i] = -f_i/F_k for i >= 1.  Cells with k < i never appear and
    are reported as zero.
    """
    x, F = _integer_grid(inst)
    return _grid_mu(x, F, multipliers(inst))


def _grid_mu(x, F, mult: Multipliers) -> tuple[tuple[Fraction, ...], ...]:
    """mu on an increasing grid x with cdf F from its multipliers; raises
    AssertionError when a coefficient differs from its closed form."""
    n = len(x)
    lu = mult.local_up + (ZERO,)
    down_sum = [sum(row, ZERO) for row in mult.down]
    mu = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        for i in range(k + 1):
            val = (x[k] - x[i]) * (lu[i] + down_sum[i])
            if i >= 1:
                val -= (x[k] - x[i - 1]) * lu[i - 1]
            for jp in range(i + 1, k + 1):
                val -= (x[k] - x[jp]) * mult.down[jp][i]
            mu[k][i] = val
    f = _grid_pmf(F)
    for k in range(n):
        closed = [1 - f[0] / F[k]] + [-f[i] / F[k] for i in range(1, k + 1)]
        if mu[k][: k + 1] != closed:
            raise AssertionError(f"mu row {k} differs from its closed form")
    return tuple(tuple(row) for row in mu)


# --- row and cell surgery ----------------------------------------------------


def equalize_position(inst: Instance, mech: DirectMechanism, k: int) -> DirectMechanism:
    """Replace row k by its pmf-weighted average over types <= k.

    Position masses are unchanged; the row becomes constant on its
    acceptable types and zero elsewhere.
    """
    _check_dims(inst, mech)
    inst._check_index(k)
    avg = _row_mass(mech.a, inst.f, k) / inst.cdf(k)
    rows = [list(row) for row in mech.a]
    rows[k] = [avg if i <= k else ZERO for i in range(inst.n)]
    return DirectMechanism(a=tuple(tuple(r) for r in rows))


def allocation_upgrade(
    inst: Instance,
    mech: DirectMechanism,
    i: int,
    from_k: int,
    to_k: int,
    mass: Fraction,
) -> DirectMechanism:
    """Move offer probability of type i from a worse position to a better one."""
    _check_dims(inst, mech)
    if not 0 <= i <= from_k < to_k < inst.n:
        raise LotbenchError(
            f"need i <= from_k < to_k within the grid, got i={i}, "
            f"from_k={from_k}, to_k={to_k}"
        )
    if mass < 0:
        raise LotbenchError("cannot move a negative amount")
    if mass > mech.a[from_k][i]:
        raise LotbenchError(
            f"cell ({from_k}, {i}) holds {mech.a[from_k][i]}, cannot move {mass}"
        )
    rows = [list(row) for row in mech.a]
    rows[from_k][i] -= mass
    rows[to_k][i] += mass
    return DirectMechanism(a=tuple(tuple(r) for r in rows))


def maximal_upgrade(inst: Instance, mech: DirectMechanism) -> DirectMechanism:
    """Push offer mass upward until no partly vacant position can draw from
    below.

    Repeatedly takes the highest position with spare capacity and refills
    it with offer mass currently sitting at lower positions, scanning
    donor types in ascending index and donor positions from the bottom.
    Total utilization is preserved and the number of capacity-filled
    positions is maximal given that utilization.
    """
    report = feasibility_report(inst, mech)
    if not report.is_feasible:
        raise LotbenchError("upgrading is defined for feasible input")
    n = inst.n
    rows = [list(row) for row in mech.a]

    def mass_at(k):
        return inst.d * _row_mass(rows, inst.f, k)

    kt = n - 1
    while kt >= 0:
        vacant = next(
            (k for k in range(kt, -1, -1) if mass_at(k) < inst.g[k]), None
        )
        if vacant is None:
            break
        kt = vacant
        progressed = False
        for i in range(kt + 1):
            for k in range(i, kt):
                cell = rows[k][i]
                if cell == 0:
                    continue
                room = inst.g[kt] - mass_at(kt)
                if room == 0:
                    break
                move = min(cell, room / (inst.d * inst.f[i]))
                rows[k][i] -= move
                rows[kt][i] += move
                progressed = True
            if mass_at(kt) == inst.g[kt]:
                break
        if mass_at(kt) == inst.g[kt]:
            kt -= 1
            continue
        if not progressed:
            # nothing below kt can donate; lower positions cannot help
            # any higher vacancy either, so the algorithm is done
            break
    return DirectMechanism(a=tuple(tuple(r) for r in rows))
