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
from operator import mul

from .errors import LotbenchError
from .instance import Instance, _grid_convexity, _integer_grid
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    _check_dims,
    _ConstraintSums,
    _constraint_sums,
    _is_feasible,
    _row_mass,
    feasibility_report,
)
from .rationals import format_rational, to_common_denominator

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
    fscale, (pmf,) = to_common_denominator([f])
    down = [()]
    for i in range(1, n):
        if i <= n - 2:
            w = d2[i - 1] / ((x[i + 1] - x[i]) * (x[i] - x[i - 1]))
            # f_j * w from ints, normalized once per entry
            num, den = w.numerator, w.denominator * fscale
            down.append(tuple(Fraction(p * num, den) for p in pmf[:i]))
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
    _check_dims(inst, mech)
    sums = _constraint_sums(mech.a, inst.f)
    if not _is_feasible(inst, sums):
        raise LotbenchError("the collapse guarantee is stated for feasible input")
    lottery = CommonLottery(c=_row_averages(inst, sums))
    return lottery, lottery.total() > 1


def _row_averages(inst: Instance, sums: _ConstraintSums) -> tuple[Fraction, ...]:
    """Row mass over F_k, read from the kernel's integer row masses."""
    return tuple(
        Fraction(m, sums.mass_scale) / inst.cdf(k) for k, m in enumerate(sums.row_mass)
    )


def _weighted_sum(weights, values) -> Fraction:
    """sum_j weights[j] * values[j] for rational weights and int values,
    over as many terms as the shorter has, divided once."""
    scale, (w,) = to_common_denominator([weights])
    return Fraction(sum(map(mul, w, values)), scale)


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
    sums = _constraint_sums(mech.a, inst.f)
    mult = multipliers(inst)
    scaled = sums.slack  # scale * (the (N-1)-scaled slacks)
    info = _weighted_sum(mult.local_up, [row[i + 1] for i, row in enumerate(scaled[:-1])])
    for weights, row in zip(mult.down, scaled):
        info += _weighted_sum(weights, row)
    info /= sums.scale
    common = sum(_row_averages(inst, sums), ZERO)
    p0 = Fraction(sums.participation[0], sums.scale)
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
    AssertionError when a coefficient differs from its closed form.

    The aggregated coefficient of cell (k, i), i <= k, is
        (x_k - x_i)(up_i + sum_j down[i][j]) - (x_k - x_{i-1}) up_{i-1}
        - sum_{i<j<=k} (x_k - x_j) down[j][i]  =  x_k A_k[i] - B_k[i],
    where, as k rises, A takes off down[k][i] and B takes off
    x_k down[k][i]: running sums, O(N^2) in all.  The sums run in ints
    over one common denominator for the multipliers and one for the grid,
    and each row is compared with its closed form times F_k; the closed
    forms, equal to the aggregate once checked, are what is returned.
    """
    n = len(x)
    wscale, weights = to_common_denominator([mult.local_up, *mult.down])
    up = next(weights) + [0]  # up[N-1] = 0, and up[-1] = 0 stands for up_{-1}
    xscale, (xs,) = to_common_denominator([x])
    _, (cdf,) = to_common_denominator([F])
    pmf = _grid_pmf(cdf)
    unit = wscale * xscale
    target = [-p * unit for p in pmf]  # unit * F_k * mu[k][i] for i >= 1
    a, b = [], []
    mu = []
    for k, down in enumerate(weights):
        xk = xs[k]
        own = up[k] + sum(down)
        a = [v - d for v, d in zip(a, down)]
        b = [v - xk * d for v, d in zip(b, down)]
        a.append(own - up[k - 1])
        b.append(xk * own - xs[k - 1] * up[k - 1])
        fk = cdf[k]
        got = [(xk * va - vb) * fk for va, vb in zip(a, b)]
        if got != [target[0] + fk * unit] + target[1:k + 1]:
            raise AssertionError(f"mu row {k} differs from its closed form")
        mu.append(
            (Fraction(fk - pmf[0], fk),)
            + tuple(Fraction(-p, fk) for p in pmf[1:k + 1])
            + (ZERO,) * (n - k - 1)
        )
    return tuple(mu)


# --- row and cell surgery ----------------------------------------------------


def equalize_position(inst: Instance, mech: DirectMechanism, k: int) -> DirectMechanism:
    """Replace row k by its pmf-weighted average over types <= k.

    Position masses are unchanged; the row becomes constant on its
    acceptable types and zero elsewhere.
    """
    _check_dims(inst, mech)
    inst._check_index(k)
    avg = _row_mass(mech.a[k], inst.f, k) / inst.cdf(k)
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
        return inst.d * _row_mass(rows[k], inst.f, k)

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
