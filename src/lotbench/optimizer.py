"""Closed-form optimal common lotteries via the position-mass budget problem.

Choosing a common lottery is equivalent to choosing position masses s_k
subject to the budget sum_k s_k / F(x_k) <= D and the capacity bounds
0 <= s_k <= g_k: a mass s_k requires offering the position to the s_k/F(x_k)
agents whose outside option is at most x_k.  Higher positions are cheaper
per unit of mass, which drives every solver in this module: the linear
objectives spend the budget in one ranked scan, and the concave objective
walks the breakpoints of its budget multiplier, with no iteration and no
tolerance.  Only the KKT certificate takes a tolerance.

The ranked scan and the maps between masses and lotteries run in ints on
the instance's cached grid (`Instance._grid`, F_k = P_k / Q): prices are
compared as P_k w_k, budget costs are ints over one common denominator,
and each reported value is one Fraction built from ints.

When 1/F is discretely convex the optimal common lottery is optimal among
all mechanisms; otherwise the results here are still the best common
lottery, and improvement search lives elsewhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import LotbenchError
from .instance import Instance
from .mechanism import (
    CommonLottery,
    Fill,
    Objective,
    PositionMasses,
    SeparableConcave,
    _check_weights,
    _linear_weights,
    evaluate_objective,
)
from .rationals import require_exact, to_common_denominator

ZERO = Fraction(0)


@dataclass(frozen=True)
class FillLottery:
    """Greedy fill-from-the-top solution: lottery.c[k] = min{q_k, 1 - Q_k}
    with q_k = g_k / (D F(x_k)) and Q_k = min{1, sum_{k' > k} q_{k'}}."""

    lottery: CommonLottery


def optimal_lottery_fill(inst: Instance) -> FillLottery:
    """Mass-maximizing common lottery: fill positions from the top down."""
    # every f_i > 0, so F strictly increases and Fill ranks top-down
    return FillLottery(lottery=lottery_from_masses(inst, _budget_masses(inst, Fill())))


@dataclass(frozen=True)
class BudgetSolution:
    masses: PositionMasses
    value: object  # Fraction for Fill/Linear, float otherwise
    convexity_warning: bool


def _exact_entries(inst: Instance, values, what: str):
    """Check an N-vector for the int kernels: exact entries (see
    `rationals.require_exact`), one per position."""
    require_exact((what, values))
    if len(values) != inst.n:
        raise LotbenchError(f"{what} has length {len(values)}, need {inst.n}")


def lottery_from_masses(inst: Instance, masses: PositionMasses) -> CommonLottery:
    """The common lottery whose position masses are the given vector:
    c_k = s_k / (D F_k), each one Fraction of ints over the cdf's
    denominator."""
    _exact_entries(inst, masses.s, "masses")
    grid = inst._grid
    num, den = inst.d.denominator * grid.fscale, inst.d.numerator
    return CommonLottery(c=tuple(
        Fraction(num * sk.numerator, den * sk.denominator * pk) if sk else ZERO
        for sk, pk in zip(masses.s, grid.ps)
    ))


def masses_from_lottery(inst: Instance, cl: CommonLottery) -> PositionMasses:
    """The position masses s_k = D c_k F_k of a common lottery, each one
    Fraction of ints over the cdf's denominator."""
    _exact_entries(inst, cl.c, "lottery")
    grid = inst._grid
    num, den = inst.d.numerator, inst.d.denominator * grid.fscale
    return PositionMasses(s=tuple(
        Fraction(num * ck.numerator * pk, den * ck.denominator) if ck else ZERO
        for ck, pk in zip(cl.c, grid.ps)
    ))


def optimal_masses(inst: Instance, obj: Objective) -> BudgetSolution:
    """Best position masses achievable by a common lottery.

    The convexity_warning flag signals that 1/F is not convex, in which
    case a non-common mechanism may do strictly better; it is read from
    the instance grid's violations.
    """
    masses = _budget_masses(inst, obj)
    return BudgetSolution(
        masses=masses,
        value=evaluate_objective(obj, masses),
        convexity_warning=bool(inst._grid.violations),
    )


def _budget_masses(inst: Instance, obj: Objective) -> PositionMasses:
    """The masses of optimal_masses, without its convexity flag."""
    weights = _linear_weights(obj, inst.n)
    if weights is not None:
        return _greedy(inst, _ranking(inst, weights), inst.g)
    if isinstance(obj, SeparableConcave):
        return _water_fill(inst, obj)
    raise TypeError(f"unknown objective {obj!r}")


def _ranking(inst: Instance, weights) -> list[int]:
    """The positions of positive weight, best price F_k * w_k first, compared
    as the ints P_k W_k with F = P/Q and w = W/V; the sort is stable, so
    ties keep ascending k.  It does not depend on D."""
    _, (ws,) = to_common_denominator([weights])
    key = list(map(mul, inst._grid.ps, ws))
    return sorted((k for k in range(inst.n) if ws[k] > 0), key=key.__getitem__, reverse=True)


def _costs(inst: Instance, order, caps, *dens):
    """(L, cost): the budget cost caps[k] / F_k of filling each position of
    order, as ints over one common denominator L, which the extra
    denominators dens divide too."""
    fscale, ps = inst._grid.fscale, inst._grid.ps
    own = [caps[k].denominator * ps[k] for k in order]
    scale = math.lcm(*own, *dens)
    return scale, [
        caps[k].numerator * fscale * (scale // den) for k, den in zip(order, own)
    ]


def _scan(inst: Instance, order, caps):
    """The budget scan of `_greedy`, as (s, scale, used): the masses as a
    list, and used[j] the budget spent once the j-th position of order is
    filled, an int over scale, for the positions the budget reached."""
    d, grid = inst.d, inst._grid
    scale, costs = _costs(inst, order, caps, d.denominator)
    budget = d.numerator * (scale // d.denominator)
    s, used, spent = [ZERO] * inst.n, [], 0
    for k, cost in zip(order, costs):
        if cost <= budget - spent:
            s[k] = caps[k]  # filled: the cap itself
            spent += cost
        else:
            # the last position reached takes what is left: (D - spent) F_k
            s[k] = Fraction((budget - spent) * grid.ps[k], scale * grid.fscale)
            spent = budget
        used.append(spent)
        if spent == budget:
            break
    return s, scale, used


def _greedy(inst: Instance, order, caps) -> PositionMasses:
    """Spend the agent budget D on positions in the given order: position k
    takes min(caps[k], budget * F_k) of mass, at budget cost mass / F_k.
    Positions outside the order, or reached after the budget is spent,
    get zero mass.  The budget and the costs are ints over one common
    denominator (`_costs`), so only the one partly filled position gets a
    new Fraction; a filled position keeps its cap."""
    return PositionMasses(s=tuple(_scan(inst, order, caps)[0]))


def _floats(values, what: str, least: float = math.ulp(0.0)) -> list[float]:
    """The float images of exact values for the float solvers; raises
    LotbenchError when a value lies outside the float range: too large, or
    positive with a float image below least (by default, rounding to 0.0)."""
    try:
        out = [float(v) for v in values]
    except OverflowError:
        out = None
    if out is None or any(x < least and v > 0 for v, x in zip(values, out)):
        raise LotbenchError(f"{what} lies outside the float range")
    return out


def _float_exponent(obj: SeparableConcave) -> float:
    rho = float(obj.rho)
    if not 0.0 < rho < 1.0:
        raise LotbenchError(f"exponent {obj.rho} lies outside the float range")
    return rho


def _float_problem(inst: Instance, obj: SeparableConcave):
    """The float images (alpha, rho, cdf, g, D) of a concave budget
    problem, once its weights are checked against N.  A subnormal image
    keeps too few bits to solve with, so it counts as out of range."""
    _check_weights(obj, inst.n)
    normal = sys.float_info.min
    alpha, rho = _floats(obj.weights, "an objective weight", normal), _float_exponent(obj)
    # the grid's correctly rounded floats; F increases, so F_0 is least
    cdf = inst._grid.float_cdf.tolist()
    if cdf[0] < normal:
        raise LotbenchError("a type cdf value lies outside the float range")
    g = _floats(inst.g, "a capacity", normal)
    return alpha, rho, cdf, g, _floats([inst.d], "the agent mass", normal)[0]


def _water_fill(inst: Instance, obj: SeparableConcave) -> PositionMasses:
    """Breakpoint scan for sum_k alpha_k s_k**rho: at multiplier lambda,
    s_k = min(g_k, b_k t) with b_k = (alpha_k rho F_k)**p, p = 1/(1-rho)
    and t = lambda**-p, so the positions reach their caps in increasing
    order of g_k / b_k.  With a prefix of that order capped, the rest
    split the budget left in proportion to b_k / F_k; the walk stops at the
    first position whose share fits under its cap.  Budget and costs are
    exact, as ints over one common denominator (`_costs`); the shares are
    floats, from logs so no power of a price overflows.  The largest share
    takes the exact budget the others leave, so the masses never overspend
    D."""
    n = inst.n
    alpha, rho, cdf, g, _ = _float_problem(inst, obj)
    d = inst.d
    scale, cost = _costs(inst, range(n), inst.g, d.denominator)
    remaining = d.numerator * (scale // d.denominator)
    if sum(cost) <= remaining:
        return PositionMasses(s=tuple(inst.g))
    p = 1 / (1 - rho)
    log_b = [p * (math.log(a) + math.log(rho) + math.log(c)) for a, c in zip(alpha, cdf)]
    log_w = [lb - math.log(c) for lb, c in zip(log_b, cdf)]  # log of b_k / F_k
    # a zero cap is reached at t = 0
    order = sorted(range(n), key=lambda k: math.log(g[k]) - log_b[k] if g[k] else -math.inf)
    # tail[j]: log of the summed b_k / F_k over order[j:], the uncapped positions
    tail, acc = [0.0] * n, -math.inf
    for j in reversed(range(n)):
        lo, hi = sorted((acc, log_w[order[j]]))
        tail[j] = acc = hi + math.log1p(math.exp(lo - hi))
    # exact, so the budget left never goes negative; a binding one always
    # stops.  cost > remaining * e is compared over e's integer ratio.
    for j, k in enumerate(order):
        num, den = math.exp(log_w[k] - tail[j]).as_integer_ratio()
        if cost[k] * den > remaining * num:
            break
        remaining -= cost[k]
    # remaining / scale is correctly rounded, as float(Fraction) is
    s, rem = list(inst.g), remaining / scale
    top = max(order[j:], key=log_w.__getitem__)  # the largest share
    others = [k for k in order[j:] if k != top]
    for k in others:
        s[k] = min(inst.g[k], Fraction(rem * cdf[k] * math.exp(log_w[k] - tail[j])))
    # the budget left once the others cost s_k / F_k, an int over a common
    # denominator that scale divides; the top share is left * F_top
    scale_left, spent = _costs(inst, others, s, scale)
    left = max(0, remaining * (scale_left // scale) - sum(spent))
    grid = inst._grid
    s[top] = min(inst.g[top], Fraction(left * grid.ps[top], scale_left * grid.fscale))
    return PositionMasses(s=tuple(s))


@dataclass(frozen=True)
class KktReport:
    ok: bool
    multiplier: float
    budget_slack: float
    violations: tuple[tuple[int, str, float], ...]  # (position, case, residual)


def kkt_check(
    inst: Instance,
    obj: SeparableConcave,
    masses: PositionMasses,
    tol: float = 1e-10,
) -> KktReport:
    """Stationarity certificate for the concave budget problem.

    Finds a budget multiplier such that every position satisfies its
    marginal condition within tol: interior positions (0 < s_k < g_k - tol,
    however small s_k is) have marginal value exactly the multiplier-weighted
    price, zero positions (s_k <= 0) at most it, and capacity-capped
    positions at least it.  Raises LotbenchError when the input is not
    even feasible for the budget set or lies outside the float range.
    """
    n = inst.n
    alpha, rho, cdf, g, d = _float_problem(inst, obj)
    if len(masses.s) != n:
        raise LotbenchError(f"need {n} position masses, got {len(masses.s)}")
    s = _floats(masses.s, "a position mass")
    spend = sum(s[k] / cdf[k] for k in range(n))
    slack = d - spend
    if slack < -tol:
        raise LotbenchError(f"budget exceeded by {-slack}")
    for k in range(n):
        if s[k] < -tol or s[k] > g[k] + tol:
            raise LotbenchError(f"mass at position {k} outside [0, g_{k}]")

    def marginal(k):
        if s[k] <= 0:
            return math.inf
        return alpha[k] * rho * s[k] ** (rho - 1)

    interior = [k for k in range(n) if 0 < s[k] < g[k] - tol]
    if slack > tol:
        lam = 0.0
    elif interior:
        lam = sum(cdf[k] * marginal(k) for k in interior) / len(interior)
    else:
        # a capped position needs lam <= F_k marginal(k): take the least
        capped = [cdf[k] * marginal(k) for k in range(n) if s[k] >= g[k] - tol > 0]
        lam = min(capped, default=0.0)

    violations = []
    for k in range(n):
        price_val = lam / cdf[k]
        if s[k] >= g[k] - tol:
            # includes zero-capacity positions, which are trivially capped
            resid = price_val - marginal(k)
            if resid > tol:
                violations.append((k, "capped", resid))
        elif s[k] <= 0:
            # with positive weight and rho < 1 the marginal blows up at 0,
            # so a zero position with spare capacity is never stationary
            violations.append((k, "zero", math.inf))
        else:
            resid = abs(marginal(k) - price_val)
            if resid > tol:
                violations.append((k, "interior", resid))
    if slack > tol and lam > tol:
        violations.append((-1, "complementary-slackness", lam))
    return KktReport(
        ok=not violations,
        multiplier=lam,
        budget_slack=slack,
        violations=tuple(violations),
    )
