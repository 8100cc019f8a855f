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
        - sum_{i<j<=k} (x_k - x_j) down[j][i]  =  x_k A_k[i] - B_k[i],
    where, as k rises, A takes off down[k][i] = f_i r_k and B takes off
    x_k f_i r_k: running sums, O(N^2) in all.  The sums run in ints over
    one common denominator for the weights times one for the cdf, and one
    for the grid, and each row is compared with its closed form times F_k.
    """
    wscale, up, rows = _kept_weights(grid)
    xscale, xs, fscale, cdf, pmf = grid.xscale, grid.xs, grid.fscale, grid.ps, grid.pmf
    # up_i and down[k][i] = pmf_i r_k, both over wscale * fscale; up[N-1] = 0,
    # and up[-1] = 0 stands for up_{-1}
    up = [u * fscale for u in up] + [0]
    unit = wscale * fscale * xscale
    target = [-p * unit for p in pmf]  # unit * F_k * mu[k][i] for i >= 1
    a, b = [], []
    for k, (xk, rk) in enumerate(zip(xs, rows)):
        own = up[k]
        if rk:
            own += rk * (cdf[k - 1] if k else 0)  # sum_{j<k} down[k][j]
            xr = xk * rk
            a = [v - p * rk for v, p in zip(a, pmf)]
            b = [v - p * xr for v, p in zip(b, pmf)]
        a.append(own - up[k - 1])
        b.append(xk * own - xs[k - 1] * up[k - 1])
        fk = cdf[k]
        got = [(xk * va - vb) * fk for va, vb in zip(a, b)]
        if got != [target[0] + fk * unit] + target[1:k + 1]:
            raise AssertionError(f"mu row {k} differs from its closed form")
