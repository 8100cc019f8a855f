"""Collapsing a direct mechanism into a common lottery, and the exact
participation-probability decomposition that certifies when this is safe.

The central map averages each position row over the types that find the
position acceptable, weighted by the type pmf.  It preserves position
masses by construction; whether the resulting offer probabilities still
sum to at most one is exactly the question the multipliers answer (yes
whenever 1/F is discretely convex).

All truth-telling expressions in this module are scaled by (N-1) so that
the utility gaps (x_k - theta_i) become the integers (k - i); the
multiplier closed forms assume that scaling.

The multipliers are N weights, not a table: the upward weights and one
row weight r_i per type (`_grid_weights`).  The downward multiplier of the
pair (i, j) is down[i][j] = f_j r_i, and that is how the code computes it:
the decomposition and the coefficients form f_j r_i in ints inside their
sums, and `lpsolve` prices the IC rows of the common lottery with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import LotbenchError
from .instance import Instance, _GridInts
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    _check_dims,
    _ConstraintSums,
    _constraint_sums,
    _is_feasible,
)
from .rationals import exact_sum, format_rational, to_common_denominator

ZERO = Fraction(0)


def _grid_weights(grid: _GridInts) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(local_up, row weights r) on the grid of `instance._grid_ints`.

    local_up[i] = f_{i+1} / F_{i+1} / (x_{i+1} - x_i), and for 0 < i < N-1
    r_i = d2_i / ((x_{i+1} - x_i)(x_i - x_{i-1})), with d2 the convexity
    report's second difference, so r_i has the sign of d2_i;
    r_0 = r_{N-1} = 0, because the scaled constraints their rows would
    weight are identically zero (the only surviving index has gap 0).
    The downward multiplier of (i, j) is f_j r_i.  Each weight is one
    Fraction built from the grid's ints.
    """
    xscale, xs, fscale, ps = grid.xscale, grid.xs, grid.fscale, grid.ps
    steps = [b - a for a, b in zip(xs, xs[1:])]
    local_up = tuple(
        Fraction(xscale * (ps[i + 1] - ps[i]), ps[i + 1] * steps[i]) for i in range(len(xs) - 1)
    )
    rows = tuple(
        Fraction(
            fscale * xscale * num, ps[i - 1] * ps[i] * ps[i + 1] * steps[i - 1] * steps[i]
        )
        for i, num in enumerate(grid.d2, start=1)
    )
    return local_up, (ZERO, *rows, ZERO)[: len(xs)]


def _kept_weights(grid: _GridInts):
    """(wscale, up, rows): the weights of `_grid_weights(grid)` as ints over
    their common denominator wscale.  They depend on the grid alone, so
    they are computed on its first read and kept in the grid's `__dict__`,
    where every reader of that grid (the decomposition, the mu check,
    `lpsolve`'s IC prices) finds them; ints, not Fractions, so that a
    kept grid stays small."""
    kept = grid.__dict__.get("_weights")
    if kept is None:
        wscale, (up, rows) = to_common_denominator(_grid_weights(grid))
        kept = grid.__dict__["_weights"] = (wscale, tuple(up), tuple(rows))
    return kept


def to_common_lottery(inst: Instance, mech: DirectMechanism):
    """Average each row over acceptable types; returns (lottery, overflow).

    Position masses are always preserved.  The overflow flag is True when
    the offer probabilities total more than one, in which case the result
    is not a valid lottery; with convex 1/F this never happens for
    feasible input.
    """
    _check_dims(inst, mech)
    sums = _constraint_sums(inst, mech)
    if not _is_feasible(inst, sums):
        raise LotbenchError("the collapse guarantee is stated for feasible input")
    c = _row_averages(inst, sums)
    return CommonLottery(c=c), exact_sum(c) > 1


def _row_averages(inst: Instance, sums: _ConstraintSums) -> tuple[Fraction, ...]:
    """Row mass over F_k, each one Fraction of the kernel's int row masses:
    with F_k = P_k / Q from `inst._grid` and mass_scale = L Q, the average
    m_k Q / (mass_scale P_k) is m_k / (L P_k)."""
    scale = sums.scale
    return tuple(
        Fraction(m, scale * p) if m else ZERO for m, p in zip(sums.row_mass, inst._grid.ps)
    )


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
    sums = _constraint_sums(inst, mech)
    # info = sum_i up_i slack[i][i+1] + sum_i r_i sum_{j<i} f_j slack[i][j],
    # in ints over the weights' and the cdf's denominators
    grid = inst._grid
    wscale, up, rows = _kept_weights(grid)
    fscale, pmf = grid.fscale, grid.pmf
    scaled = sums.slack  # scale * (the (N-1)-scaled slacks)
    info = fscale * sum(map(mul, up, [row[i + 1] for i, row in enumerate(scaled[:-1])]))
    info += sum(
        r * sum(map(mul, pmf[:i], row)) for i, (r, row) in enumerate(zip(rows, scaled)) if r
    )
    info = Fraction(info, wscale * fscale * sums.scale)
    common = exact_sum(_row_averages(inst, sums))
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
    return _grid_mu(inst._grid)


def _grid_mu(grid: _GridInts) -> tuple[tuple[Fraction, ...], ...]:
    """mu on the grid of `instance._grid_ints`: the closed forms, once
    `_check_mu_identity` has proved them the aggregate of the weighted
    constraint rows."""
    _check_mu_identity(grid)
    n, cdf, pmf = len(grid.xs), grid.ps, grid.pmf
    return tuple(
        (Fraction(fk - pmf[0], fk),)
        + tuple(Fraction(-p, fk) for p in pmf[1:k + 1])
        + (ZERO,) * (n - k - 1)
        for k, fk in enumerate(cdf)
    )


def _check_mu_identity(grid: _GridInts):
    """Raise AssertionError unless the constraint rows, weighted by
    `_grid_weights`, aggregate to the closed forms of mu on the grid.

    The aggregated coefficient of cell (k, i), i <= k, is
        (x_k - x_i)(up_i + sum_j down[i][j]) - (x_k - x_{i-1}) up_{i-1}
        - sum_{i<j<=k} (x_k - x_j) down[j][i],
    with down[j][i] = f_i r_j.  Over the prefix sums R_k = sum_{j<=k} r_j
    and X_k = sum_{j<=k} x_j r_j it is x_k A_i - B_i - f_i g_k, where
    g_k = x_k R_k - X_k depends on k alone, and A_i = a_i + f_i R_i and
    B_i = b_i + f_i X_i on i alone (cell (i, i) is x_k a_i - b_i).  So with
    y_k = g_k - 1/F_k, the closed form mu[k][i] = -f_i/F_k (i >= 1) holds
    exactly when the point (x_k, y_k) lies on the line f_i y = A_i x - B_i,
    and mu[k][0] = 1 - f_0/F_k exactly when it lies on the line
    f_0 y = A_0 x - B_0 - 1.  `_scan_mu_rows` checks row k only at the
    cells 0, k-1 and k, which decides the same rows as checking every
    cell: if rows 0..k pass there, column 0 puts the points 0..k on line
    0, and the cells (i, i) and (i+1, i) put the points i and i+1 on line
    i, which is therefore line 0.  That needs two preconditions, which
    `Instance` and `UnevenGridView` enforce: every f_i > 0, so that each
    line is the graph of a function of x, and a strictly increasing grid,
    so that two points fix it.  O(N) in all, in ints over one common
    denominator for the weights times one for the cdf, and one for the grid.
    """
    _scan_mu_rows(grid, *_mu_table(grid))


def _mu_table(grid: _GridInts):
    """(unit, A, B, g) of `_check_mu_identity`, each scaled by unit, the
    weights' and the cdf's and the grid's common denominators; B_0 carries
    column 0's closed-form 1, as unit."""
    wscale, up, rows = _kept_weights(grid)
    xscale, xs, fscale, cdf, pmf = grid.xscale, grid.xs, grid.fscale, grid.ps, grid.pmf
    # up_i and down[k][i] = pmf_i r_k, both over wscale * fscale; up[N-1] = 0,
    # and up[-1] = 0 stands for up_{-1}
    up = [u * fscale for u in up] + [0]
    unit = wscale * fscale * xscale
    big_a, big_b, g = [], [], []
    r_sum = xr_sum = 0  # R_k and X_k
    for k, (xk, rk) in enumerate(zip(xs, rows)):
        # own = up_k + sum_{j<k} down[k][j], and cell (k, k) is x_k a_k - b_k
        # with a_k = own - up_{k-1} and b_k = x_k own - x_{k-1} up_{k-1}
        own = up[k] + rk * (cdf[k - 1] if k else 0)
        r_sum += rk
        xr_sum += xk * rk
        big_a.append(own - up[k - 1] + pmf[k] * r_sum)
        big_b.append(xk * own - xs[k - 1] * up[k - 1] + pmf[k] * xr_sum)
        g.append(xk * r_sum - xr_sum)
    big_b[0] += unit
    return unit, big_a, big_b, g


def _scan_mu_rows(grid: _GridInts, unit: int, big_a, big_b, g):
    """Raise AssertionError at the first row k whose cells 0, k-1 and k
    miss their closed forms, in the terms of `_check_mu_identity` scaled by
    unit: F_k (x_k A_i - B_i - f_i g_k) = -f_i unit, where B_0 includes
    column 0's extra unit.  Any A, B and g may be given, which lets a test
    hold the scan against a check of every cell of the same table."""
    xs, cdf, pmf = grid.xs, grid.ps, grid.pmf
    for k, (xk, fk, gk) in enumerate(zip(xs, cdf, g)):
        height = fk * gk - unit  # F_k y_k
        for i in (0, k - 1, k) if k > 1 else range(k + 1):
            if fk * (xk * big_a[i] - big_b[i]) != pmf[i] * height:
                raise AssertionError(f"mu row {k} differs from its closed form")
