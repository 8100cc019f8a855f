"""Strict improvement over the best common lottery when 1/F is not convex.

The construction works in two stages.  Stage one spreads the offer
probabilities of one low type across a row triple (k-1, k, k+1) around a
convexity violation at k, compensating the remaining types so that every
position mass is unchanged; the spread releases exactly
eps_prime = -eps * f_i * (1/F_{k-1} - 2/F_k + 1/F_{k+1}) > 0 of offer
probability from every type at or below k-1.  Stage two spends that slack
by offering an unfilled low position to all of its acceptable types, which
strictly raises the filled mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionViolation
from .instance import Instance, _second_difference, _with_mass
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    Fill,
    Linear,
    Objective,
    _linear_weights,
    expand_common_lottery,
    feasibility_report,
)
from .optimizer import _costs, _greedy, _ranking, lottery_from_masses

ZERO = Fraction(0)


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionViolation(message)


def perturb(
    inst: Instance,
    base: CommonLottery,
    k: int,
    i: int,
    epsilon: Fraction,
    delta: Fraction,
    fill_index: int,
) -> DirectMechanism:
    """Apply the two-stage improvement to the expansion of a common lottery.

    Stage one moves 2*epsilon of type i's row-k offer outward to rows k-1
    and k+1 and rebalances every touched row across its accepting types so
    position masses are unchanged.  Stage two adds delta to row fill_index
    for all of its accepting types.  Every violated requirement raises
    PreconditionViolation naming the failed inequality.
    """
    n = inst.n
    _require(0 <= i < k < n - 1, f"need 0 <= i < k < N-1, got i={i}, k={k}")
    _require(0 <= fill_index < n, f"fill_index {fill_index} outside the grid")
    _require(epsilon >= 0, f"epsilon must be >= 0, got {epsilon}")
    _require(delta >= 0, f"delta must be >= 0, got {delta}")
    c = base.c
    _require(len(c) == n, "lottery length must equal N")
    for r in (k - 1, k, k + 1):
        _require(c[r] > 0, f"base lottery must offer position {r}: c_{r} = {c[r]}")
    eps_prime = -epsilon * inst.f[i] * _second_difference(inst._grid, k)
    _require(
        delta <= eps_prime,
        f"delta = {delta} exceeds the released slack eps_prime = {eps_prime}",
    )

    mech = expand_common_lottery(inst, base)
    rows = [list(row) for row in mech.a]

    def shift(r, t):
        # add t to row r for every type that accepts position r
        for j in range(r + 1):
            rows[r][j] += t

    # spread type i's odds at k outward, rebalancing each touched row so
    # that its position mass is unchanged
    for r, move in ((k, 2 * epsilon), (k - 1, -epsilon), (k + 1, -epsilon)):
        rows[r][i] += move
        shift(r, -move * inst.f[i] / inst.cdf(r))
    # spend the released slack on the unfilled position
    shift(fill_index, delta)

    result = DirectMechanism(a=tuple(tuple(r) for r in rows))
    report = feasibility_report(inst, result)
    if not report.is_feasible:
        raise PreconditionViolation(
            "perturbed mechanism violates " + ", ".join(report.violations())
        )
    return result


@dataclass(frozen=True)
class Improvement:
    mechanism: DirectMechanism
    base: CommonLottery
    gain: Fraction
    d: Fraction
    k: int
    i: int
    fill_index: int
    epsilon: Fraction
    delta: Fraction


def auto_improve(inst: Instance, obj: Objective = Fill(), search_d: bool = True):
    """Search for a mechanism strictly better than every common lottery.

    Returns (Improvement | None, diagnostic).  The search tries the
    instance's own agent mass first and then, when allowed, one exact mass
    per piece of the window (threshold, spent), cut at the budget table's
    breakpoints, in ascending order: the midpoint of each piece.  Here
    spent is the cost of filling everything and threshold the mass above
    which the optimal lottery offers the violation window.  The first
    improving agent mass wins.
    """
    if not isinstance(obj, (Fill, Linear)):
        raise TypeError("improvement search supports mass-increasing objectives only")
    if isinstance(obj, Linear) and any(w <= 0 for w in obj.weights):
        raise TypeError("improvement search needs strictly positive weights")
    weights = _linear_weights(obj, inst.n)
    violations = inst._grid.violations
    if not violations:
        return None, "convex"
    k = violations[0]
    order = _ranking(inst, weights)  # the same at every D
    d2 = _second_difference(inst._grid, k)  # F alone: the same at every D

    # The greedy reaches position r with max(D - before[r], 0) of budget and
    # fills it at cost g_r / F_r, so s_r > 0 exactly when g_r > 0 and
    # before[r] < D, and budget is left over exactly when D > spent.  The
    # table is in the greedy's int costs, over scale.
    scale, costs = _costs(inst, order, inst.g)
    before = [0] * inst.n
    spent = 0
    for r, cost in zip(order, costs):
        before[r] = spent
        spent += cost
    # so the window k-1, k, k+1 is offered exactly when D > threshold
    window = (k - 1, k, k + 1)
    if all(inst.g[r] > 0 for r in window):
        threshold = max(before[r] for r in window)
    else:
        threshold = spent  # never offered while the budget binds

    candidates = [inst.d]
    if search_d:
        # between breakpoints the greedy fills the same positions, so the
        # search tries one mass inside each piece of (threshold, spent),
        # an empty window when threshold == spent
        cuts = sorted({threshold, spent, *(b for b in before if threshold < b < spent)})
        candidates += [Fraction(lo + hi, 2 * scale) for lo, hi in zip(cuts, cuts[1:])]
    for d in candidates:
        # threshold < d <= spent, over scale
        if threshold * d.denominator < d.numerator * scale <= spent * d.denominator:
            trial = _with_mass(inst, d)
            found = _improve_at(trial, weights, order, k, d2)
            if found is not None:
                return found, "improved"
    # g sums to 1, so spent > 0: a search always covers masses that bind
    if search_d or inst.d.numerator * scale <= spent * inst.d.denominator:
        return None, "no supported window"
    return None, "full-fill feasible"


def _improve_at(inst: Instance, weights, order, k: int, d2: Fraction):
    """Try the construction at one agent mass, given the objective's
    position weights and ranking and the second difference d2 < 0 of 1/F
    at k; returns an Improvement or None.  The caller has checked that the
    budget binds and that the lottery offers positions k-1, k and k+1."""
    i = 0  # the lowest type always accepts all three rows of the triple
    s = _greedy(inst, order, inst.g)
    base = lottery_from_masses(inst, s)
    c = base.c

    epsilon = _max_epsilon(inst, c, k, i) / 2
    if epsilon <= 0:
        return None
    eps_prime = -epsilon * inst.f[i] * d2  # > 0: epsilon, f_i > 0 > d2

    # lowest position with spare capacity among those every offered-to type
    # accepts with certainty (all types below the lottery's support)
    support_start = next(kk for kk in range(inst.n) if c[kk] > 0)
    fill_index = next(
        (kk for kk in range(support_start + 1) if s.s[kk] < inst.g[kk]), None
    )
    if fill_index is None:
        return None
    room = (inst.g[fill_index] - s.s[fill_index]) / (inst.d * inst.cdf(fill_index))
    delta = min(eps_prime, room)  # > 0: the fill position has spare capacity

    try:
        mech = perturb(inst, base, k, i, epsilon, delta, fill_index)
    except PreconditionViolation:
        return None
    # stage one keeps every position mass and stage two adds D delta F to
    # the fill position's, so the gain is positive with the weight
    gain = weights[fill_index] * inst.d * delta * inst.cdf(fill_index)
    return Improvement(
        mechanism=mech, base=base, gain=gain, d=inst.d, k=k, i=i,
        fill_index=fill_index, epsilon=epsilon, delta=delta,
    )


def _max_epsilon(inst: Instance, c, k: int, i: int) -> Fraction:
    """Largest spread size keeping every touched cell and agent budget valid."""
    fi = inst.f[i]
    bounds = []
    # donor cells at k-1 and k+1 must stay nonnegative
    for r in (k - 1, k + 1):
        coef = 1 - fi / inst.cdf(r)
        if coef > 0:
            bounds.append(c[r] / coef)
    # other types' row-k cells shrink by 2 eps f_i / F_k
    bounds.append(c[k] * inst.cdf(k) / (2 * fi))
    # type i's row-k cell grows toward 1
    grow = 2 * (1 - fi / inst.cdf(k))
    if grow > 0:
        bounds.append((1 - c[k]) / grow)
    # type k+1 only gains offer probability, so its budget must have slack
    p_above = sum(c[k + 1:], ZERO)
    bounds.append((1 - p_above) * inst.cdf(k + 1) / fi)
    # receiving cells in rows k-1 and k+1 stay at most 1
    for r in (k - 1, k + 1):
        bounds.append((1 - c[r]) * inst.cdf(r) / fi)
    return min(bounds)
