import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest

from lotbench import (
    CommonLottery,
    Fill,
    Instance,
    Linear,
    LotbenchError,
    PositionMasses,
    SeparableConcave,
    continuum_crp,
    expand_common_lottery,
    feasibility_report,
    kkt_check,
    lottery_from_masses,
    masses_from_lottery,
    new_instance,
    optimal_lottery_fill,
    optimal_masses,
    position_masses,
    solve_designer,
    uniform_instance,
)
from lotbench.instance import _with_mass
from lotbench.mechanism import evaluate_objective
from lotbench.optimizer import _budget_masses, _float_problem, _water_fill

from util import random_convex_instance, random_instance, random_pmf, simplex_vertex

F = Fraction
U3 = uniform_instance(3)
U4 = uniform_instance(4)
FIG4 = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)


def test_fill_lottery_uniform():
    out = optimal_lottery_fill(U4)
    assert out.lottery.c == (F(0), F(5, 12), F(1, 3), F(1, 4))


def test_fill_lottery_matches_lp_value():
    sol = optimal_masses(U4, Fill())
    assert sol.value == F(17, 24)
    assert isinstance(sol.value, Fraction) and not sol.convexity_warning
    _, lp_value = simplex_vertex(U4, Fill())
    assert sol.value == lp_value == solve_designer(U4, Fill())[1]


def test_fill_lottery_nonconvex_warns():
    sol = optimal_masses(FIG4, Fill())
    assert sol.value == F(11, 18)
    assert sol.convexity_warning
    assert lottery_from_masses(FIG4, sol.masses).c == (F(0), F(2, 3), F(1, 3))


def test_fill_lottery_with_slack_budget():
    inst = new_instance(3, ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"], "1/10")
    out = optimal_lottery_fill(inst)
    assert out.lottery.total() == 1  # every agent gets an offer
    assert masses_from_lottery(inst, out.lottery).total() == inst.d


def test_masses_lottery_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        inst = random_convex_instance(rng)
        sol = optimal_masses(inst, Fill())
        cl = lottery_from_masses(inst, sol.masses)
        assert masses_from_lottery(inst, cl).s == sol.masses.s


def test_linear_greedy_matches_lp():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_convex_instance(rng, n_min=3, n_max=6)
        weights = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(inst.n))
        obj = Linear(weights=weights)
        sol = optimal_masses(inst, obj)
        _, lp_value = simplex_vertex(inst, obj)
        assert sol.value == lp_value == solve_designer(inst, obj)[1]
        # greedy masses are a feasible mechanism too
        cl = lottery_from_masses(inst, sol.masses)
        assert feasibility_report(inst, expand_common_lottery(inst, cl)).is_feasible


def test_linear_skips_nonpositive_weights():
    obj = Linear(weights=(F(0), F(-1), F(0), F(1)))
    sol = optimal_masses(U4, obj)
    assert sol.masses.s == (F(0), F(0), F(0), F(1, 4))
    assert sol.value == F(1, 4)


def test_linear_tie_prefers_lower_index():
    # alpha_k * F_k equal at positions 1 and 3: 2 * 1/2 == 1 * 1
    obj = Linear(weights=(F(1), F(2), F(0), F(1)))
    sol = optimal_masses(U4, obj)
    assert sol.masses.s[1] == U4.g[1]


def test_concave_water_fill_interior():
    inst = new_instance(3, ["1/3", "1/3", "1/3"], ["1/2", "1/2", "0"], 2)
    # position 2 has zero capacity; budget splits between 0 and 1 interior
    obj = SeparableConcave(weights=(F(1), F(1), F(1)), rho=F(1, 2))
    sol = optimal_masses(inst, obj)
    assert not isinstance(sol.value, Fraction)
    report = kkt_check(inst, obj, sol.masses)
    assert report.ok, report.violations


def test_concave_with_slack_budget_takes_capacity():
    inst = new_instance(3, ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"], 10)
    obj = SeparableConcave(weights=(F(1), F(1), F(1)), rho=F(1, 2))
    sol = optimal_masses(inst, obj)
    assert sol.masses.s == inst.g
    report = kkt_check(inst, obj, sol.masses)
    assert report.ok and report.multiplier == 0


def test_concave_capped_mass_is_its_capacity():
    inst = new_instance(3, ["1/3"] * 3, ["1/10", "1/10", "4/5"], "1/2")
    obj = SeparableConcave(weights=(F(1),) * 3, rho=F(1, 2))
    sol = optimal_masses(inst, obj)
    assert sol.masses.s[1] == F(1, 10)
    assert kkt_check(inst, obj, sol.masses).ok


def test_kkt_accepts_every_position_capped_on_a_spent_budget():
    # the capacities cost exactly D: every position is capped and the
    # budget binds, so the multiplier is the least capped marginal price
    inst = new_instance(2, ["3/5", "2/5"], ["3/4", "1/4"], "3/2")
    obj = SeparableConcave(weights=(F(1), F(1)), rho=F(1, 2))
    sol = optimal_masses(inst, obj)
    assert sol.masses.s == inst.g
    report = kkt_check(inst, obj, sol.masses)
    assert report.ok, report.violations


def test_concave_randomized_kkt():
    # convex and non-convex draws up to explore's N = 24, zero capacities,
    # binding and slack budgets; every branch of the scan must occur
    rng = random.Random(9)
    seen = set()
    for i in range(400):
        draw = random_convex_instance if i % 2 else random_instance
        inst = draw(rng, n_min=2, n_max=24)
        obj = SeparableConcave(
            weights=tuple(F(rng.randint(1, 7)) for _ in range(inst.n)),
            rho=F(rng.randint(1, 3), 4),
        )
        masses = optimal_masses(inst, obj).masses
        s = masses.s
        assert kkt_check(inst, obj, masses).ok
        assert all(0 <= sk <= gk for sk, gk in zip(s, inst.g))
        # exactly feasible: the spend is at most D, so the offers total at most 1
        assert sum(sk / inst.cdf(k) for k, sk in enumerate(s)) <= inst.d
        assert lottery_from_masses(inst, masses).total() <= 1
        capped = any(sk == gk > 0 for sk, gk in zip(s, inst.g))
        seen.add("slack" if s == inst.g else "some capped" if capped else "no cap")
        if 0 in inst.g:
            seen.add("zero capacity")
    assert seen == {"slack", "some capped", "no cap", "zero capacity"}


def test_flexible_water_fill_closed_form():
    # at D = 1/2 no cap binds: s = (1/80, 1/20, 9/80, 1/5) up to rounding
    inst = uniform_instance(4, d=F(1, 2))
    obj = SeparableConcave(weights=(F(1),) * 4, rho=F(1, 2))
    masses = optimal_masses(inst, obj).masses
    assert all(sk < gk for sk, gk in zip(masses.s, inst.g))
    # s_k proportional to (F_k)^2; spend equals the budget exactly
    assert sum(masses.s[k] / inst.cdf(k) for k in range(4)) == inst.d
    ratios = [float(masses.s[k]) / float(inst.cdf(k)) ** 2 for k in range(4)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_kkt_rejects_infeasible_masses():
    obj = SeparableConcave(weights=(F(1),) * 4, rho=F(1, 2))
    with pytest.raises(LotbenchError, match="budget exceeded by"):
        kkt_check(U4, obj, PositionMasses.from_values(["1", "1", "1", "1"]))
    with pytest.raises(LotbenchError, match=r"mass at position 0 outside \[0, g_0\]"):
        kkt_check(U4, obj, PositionMasses.from_values(["-1/8", "0", "0", "0"]))


def test_kkt_flags_perturbed_solution():
    inst = new_instance(3, ["1/3", "1/3", "1/3"], ["1/2", "1/2", "0"], 2)
    obj = SeparableConcave(weights=(F(1), F(1), F(1)), rho=F(1, 2))
    sol = optimal_masses(inst, obj)
    eps = F(1, 100)
    s = list(sol.masses.s)
    # budget-neutral move between the two interior positions
    s[0] += eps
    s[1] -= eps * inst.cdf(1) / inst.cdf(0)
    report = kkt_check(inst, obj, PositionMasses(s=tuple(s)))
    assert not report.ok
    assert {v[1] for v in report.violations} == {"interior"}


@pytest.mark.parametrize(
    "d, weights, masses, case",
    [
        # the budget binds at the interior position 1's price, which the
        # capped position 0's small marginal value falls short of
        ("5/4", (1, 100), ["1/2", "1/4"], "capped"),
        # a position left empty with spare capacity is never stationary
        ("1/2", (1, 1), ["0", "1/2"], "zero"),
    ],
    ids=["capped", "zero"],
)
def test_kkt_flags_each_position_case(d, weights, masses, case):
    inst = new_instance(2, ["1/2", "1/2"], ["1/2", "1/2"], d)
    obj = SeparableConcave(weights=tuple(F(w) for w in weights), rho=F(1, 2))
    report = kkt_check(inst, obj, PositionMasses.from_values(masses))
    assert not report.ok and report.budget_slack == 0
    assert [v[:2] for v in report.violations] == [(0, case)]


def test_optimal_masses_rejects_unknown_objective():
    with pytest.raises(TypeError):
        optimal_masses(U4, object())


def test_kkt_accepts_tiny_positive_optimal_mass():
    # the water-filling optimum puts s_0 ~ 4.6e-11 on position 0, below the
    # tolerance but positive: it is interior, not a "zero" position
    f = [1, 4, 5, 9, 5, 8, 5, 2, 4, 7, 2, 8, 6, 3, 8, 5, 2, 6, 8, 9]
    g = [3, 8, 1, 4, 3, 1, 7, 0, 0, 4, 3, 1, 6, 4, 7, 1, 8, 4, 2, 5]
    weights = [1, 4, 2, 5, 7, 3, 4, 2, 1, 7, 6, 6, 2, 2, 4, 6, 4, 7, 7, 3]
    inst = new_instance(20, [F(v, 107) for v in f], [F(v, 72) for v in g], 1)
    obj = SeparableConcave(weights=tuple(F(w) for w in weights), rho=F(3, 4))
    sol = optimal_masses(inst, obj)
    assert 0 < sol.masses.s[0] < 1e-10
    report = kkt_check(inst, obj, sol.masses)
    assert report.ok, report.violations


@pytest.mark.parametrize("n_weights", [2, 5])
def test_concave_solvers_reject_wrong_weight_count(n_weights):
    obj = SeparableConcave(weights=(F(1),) * n_weights, rho=F(1, 2))
    masses = PositionMasses.from_values(["1/8", "1/8", "1/8"])
    match = f"objective has {n_weights} weights, instance has N=3"
    with pytest.raises(LotbenchError, match=match):
        kkt_check(U3, obj, masses)
    with pytest.raises(LotbenchError, match=match):
        optimal_masses(U3, obj)


def test_kkt_rejects_wrong_mass_count():
    obj = SeparableConcave(weights=(F(1),) * 3, rho=F(1, 2))
    masses = PositionMasses.from_values(["1/8", "1/8", "1/8", "1/8"])
    with pytest.raises(LotbenchError, match="need 3 position masses, got 4"):
        kkt_check(U3, obj, masses)


def test_float_cdf_is_formed_once_per_grid():
    """The water-fill, the KKT check and the Monte Carlo read one read-only
    float cdf, kept on the grid that an instance at another mass shares."""
    inst = random_instance(random.Random(37), n_min=4, n_max=8)
    cdf = inst._grid.float_cdf
    assert cdf.tolist() == [float(inst.cdf(k)) for k in range(inst.n)]
    assert not cdf.flags.writeable
    obj = SeparableConcave(weights=(F(1),) * inst.n, rho=F(1, 2))
    masses = optimal_masses(inst, obj).masses
    kkt_check(inst, obj, masses)
    assert inst._grid.float_cdf is cdf
    assert dataclasses.replace(inst)._grid.float_cdf is not cdf
    assert _with_mass(inst, F(1, 3))._grid.float_cdf is cdf


def test_float_cdf_is_rounded_from_the_grid_down_to_the_normal_minimum():
    rng = random.Random(31)
    for _ in range(100):
        inst = random_instance(rng)
        obj = SeparableConcave(weights=(F(1),) * inst.n, rho=F(1, 2))
        assert _float_problem(inst, obj)[2] == [float(inst.cdf(k)) for k in range(inst.n)]
    obj = SeparableConcave(weights=(F(1),) * 3, rho=F(1, 2))
    normal = F(sys.float_info.min)
    for f0 in (normal, normal * F(10**6 - 1, 10**6)):
        inst = Instance(n=3, f=(f0, F(1, 2) - f0, F(1, 2)), g=(F(1, 3),) * 3, d=F(1))
        if f0 == normal:
            assert _float_problem(inst, obj)[2][0] == sys.float_info.min
        else:
            with pytest.raises(LotbenchError, match="a type cdf value lies outside the float"):
                optimal_masses(inst, obj)


def _reference_ranking(inst, weights):
    """The budget scan's order in Fractions: positive weights, best F_k w_k
    first, ties in ascending k."""
    return sorted(
        (k for k in range(inst.n) if weights[k] > 0),
        key=lambda k: inst.cdf(k) * weights[k],
        reverse=True,
    )


def _reference_greedy(inst, order, caps):
    """The budget scan in Fractions, step by step: (masses, cutoffs), with
    cutoffs[j] the budget spent after the j-th position reached."""
    s, budget, cutoffs = [F(0)] * inst.n, inst.d, []
    for k in order:
        take = min(caps[k], budget * inst.cdf(k))
        s[k] = take
        budget -= take / inst.cdf(k)
        cutoffs.append(inst.d - budget)
        if budget == 0:
            break
    return tuple(s), cutoffs


def _reference_instances(rng, count):
    """Instances at N = 2-24 whose budgets are random, spent exactly at the
    end of a position, slack, or 10^400 and 10^-400; about one capacity in
    four is zero."""
    for trial in range(count):
        n = rng.randint(2, 24)
        f = random_pmf(rng, n)
        g = list(random_pmf(rng, n, full_support=False))
        for k in rng.sample(range(n), n // 4):
            if sum(g) > g[k]:  # keep a positive capacity
                g[k] = F(0)
        g = [gk / sum(g) for gk in g]
        inst = Instance(n=n, f=f, g=tuple(g), d=F(1))
        order = _reference_ranking(inst, (1,) * n)
        costs = [g[k] / inst.cdf(k) for k in order]
        kind = trial % 5
        if kind == 0:
            d = F(rng.randint(1, 12), rng.randint(1, 6))
        elif kind == 1:
            d = sum(costs[: rng.randint(1, n)])
            d = d or sum(costs)
        elif kind == 2:
            d = sum(costs) * F(rng.randint(5, 9), 4)
        else:
            d = F(10) ** (400 if kind == 3 else -400)
        yield kind, dataclasses.replace(inst, d=d)


def _reference_weights(rng, inst, trial):
    """Fill, or Linear weights with zeros, negatives and ties of F_k w_k."""
    if trial % 3 == 0:
        return Fill(), (1,) * inst.n
    if trial % 3 == 1:
        weights = tuple(F(rng.randint(-2, 3), rng.randint(1, 3)) for _ in range(inst.n))
    else:
        # w_k = m_k / F_k: positions of equal m_k tie on price
        weights = tuple(F(rng.randint(-1, 2)) / inst.cdf(k) for k in range(inst.n))
    return Linear(weights=weights), weights


def test_int_budget_scan_matches_the_fraction_reference():
    rng = random.Random(2026)
    seen = {"exact": 0, "slack": 0, "huge": 0, "tiny": 0, "zero cap": 0, "tie": 0, "negative": 0}
    for trial, (kind, inst) in enumerate(_reference_instances(rng, 330)):
        obj, weights = _reference_weights(rng, inst, trial)
        order = _reference_ranking(inst, weights)
        masses, _ = _reference_greedy(inst, order, inst.g)
        assert _budget_masses(inst, obj).s == masses
        assert optimal_masses(inst, obj).masses.s == masses

        fill, spent = _reference_greedy(inst, _reference_ranking(inst, (1,) * inst.n), inst.g)
        lottery = tuple(sk / (inst.d * inst.cdf(k)) for k, sk in enumerate(fill))
        assert optimal_lottery_fill(inst).lottery.c == lottery

        caps = tuple(
            F(0) if r < 0.25 else gk if r < 0.5 else gk * F(rng.randint(1, 5), 6)
            for gk, r in zip(inst.g, (rng.random() for _ in inst.g))
        )
        scan = [k for k in reversed(range(inst.n)) if caps[k] != 0]
        taken, scan_cutoffs = _reference_greedy(inst, scan, caps)
        result = continuum_crp(inst, PositionMasses(s=caps))
        assert [(t.step, t.position, t.cutoff, t.position_exhausted) for t in result.thresholds] == [
            (step, k, cut, taken[k] == caps[k])
            for step, (k, cut) in enumerate(zip(scan, scan_cutoffs), 1)
        ]
        allocation = expand_common_lottery(inst, CommonLottery(
            c=tuple(sk / (inst.d * inst.cdf(k)) for k, sk in enumerate(taken))
        ))
        assert result.allocation == allocation

        seen["exact"] += kind == 1 and spent[-1] == inst.d and fill != inst.g
        seen["slack"] += spent[-1] < inst.d
        seen["huge"] += kind == 3
        seen["tiny"] += kind == 4
        seen["zero cap"] += 0 in inst.g
        prices = [inst.cdf(k) * weights[k] for k in order]
        seen["tie"] += len(set(prices)) < len(prices)
        seen["negative"] += any(w < 0 for w in weights)
    assert min(seen.values()) >= 30, seen


def test_grid_view_is_cached_and_invisible():
    inst = new_instance(4, ["1/3", "1/12", "1/4", "1/3"], ["1/4"] * 4, "3/2")
    twin = new_instance(4, ["1/3", "1/12", "1/4", "1/3"], ["1/4"] * 4, "3/2")
    before = (repr(inst), hash(inst))
    grid = inst._grid
    assert inst._grid is grid
    assert (repr(inst), hash(inst)) == before
    assert inst == twin and hash(inst) == hash(twin)
    moved = dataclasses.replace(inst, d=F(2))
    assert moved._grid is not grid and moved._grid == grid


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lottery_from_masses(U3, PositionMasses(s=(F(0), 0.25, F(1, 3)))), "masses"),
        (lambda: masses_from_lottery(U3, CommonLottery(c=(F(0), F(1, 2), 0.25))), "lottery"),
    ],
    ids=["lottery_from_masses", "masses_from_lottery"],
)
def test_mass_lottery_maps_reject_float_entries(call, message):
    with pytest.raises(LotbenchError, match=f"{message} entries must be Fraction or int, got 0.25"):
        call()


def test_mass_lottery_maps_reject_wrong_length():
    with pytest.raises(LotbenchError, match="masses has length 2, need 3"):
        lottery_from_masses(U3, PositionMasses(s=(F(0), F(1, 3))))
    with pytest.raises(LotbenchError, match="lottery has length 4, need 3"):
        masses_from_lottery(U3, CommonLottery(c=(F(0),) * 4))


def _reference_walk(inst, obj):
    """(cost, order, log_w, tail) of the breakpoint scan: the Fraction costs
    g_k / F_k, the order in which the positions reach their caps, and the
    logs of b_k / F_k and of their sums over each suffix of the order.
    None of them depends on D."""
    n = inst.n
    alpha, rho, cdf, g, _ = _float_problem(inst, obj)
    cost = [inst.g[k] / inst.cdf(k) for k in range(n)]
    p = 1 / (1 - rho)
    log_b = [p * (math.log(a) + math.log(rho) + math.log(c)) for a, c in zip(alpha, cdf)]
    log_w = [lb - math.log(c) for lb, c in zip(log_b, cdf)]
    order = sorted(range(n), key=lambda k: math.log(g[k]) - log_b[k] if g[k] else -math.inf)
    tail, acc = [0.0] * n, -math.inf
    for j in reversed(range(n)):
        lo, hi = sorted((acc, log_w[order[j]]))
        tail[j] = acc = hi + math.log1p(math.exp(lo - hi))
    return cost, order, log_w, tail


def _reference_water_fill(inst, obj):
    """The breakpoint scan with its budget walk in Fractions, one cost and
    one comparison at a time."""
    cdf = _float_problem(inst, obj)[2]
    cost, order, log_w, tail = _reference_walk(inst, obj)
    if sum(cost) <= inst.d:
        return tuple(inst.g)
    remaining = inst.d
    for j, k in enumerate(order):
        if cost[k] > remaining * F(math.exp(log_w[k] - tail[j])):
            break
        remaining -= cost[k]
    s, rem, left = list(inst.g), float(remaining), remaining
    top = max(order[j:], key=log_w.__getitem__)
    for k in order[j:]:
        if k != top:
            s[k] = min(inst.g[k], F(rem * cdf[k] * math.exp(log_w[k] - tail[j])))
            left -= s[k] / inst.cdf(k)
    s[top] = min(inst.g[top], max(F(0), left * inst.cdf(top)))
    return tuple(s)


def test_int_water_fill_matches_the_fraction_reference():
    rng = random.Random(2028)
    seen = {"slack": 0, "zero cap": 0, "tie": 0, "binding": 0, "breakpoint": 0}
    rhos = (F(1, 4), F(1, 2), F(3, 5), F(9, 10))
    for trial in range(3000):
        n = rng.randint(2, 12)
        f = random_pmf(rng, n)
        g = list(random_pmf(rng, n, full_support=False))
        if trial % 4 == 1:
            # equal caps and equal alpha_k F_k tie on g_k / b_k
            g = [F(1, n)] * n
        inst = Instance(n=n, f=f, g=tuple(g), d=F(1))
        if trial % 4 == 1:
            weights = tuple(F(rng.randint(1, 2)) / inst.cdf(k) for k in range(n))
        else:
            weights = tuple(F(rng.randint(1, 7), rng.randint(1, 3)) for _ in range(n))
        obj = SeparableConcave(weights=weights, rho=rhos[trial % len(rhos)])
        cost, order, log_w, tail = _reference_walk(inst, obj)
        if trial % 4 == 3:
            # the budget left at step j meets the j-th cost exactly: the
            # walk's test holds with equality, so that position is capped
            j = rng.randrange(n - 1)
            k = order[j]
            d = sum(cost[i] for i in order[:j]) + cost[k] / F(math.exp(log_w[k] - tail[j]))
        else:
            d = sum(cost) * F(rng.randint(1, 15), 12)  # slack when the factor is >= 1
        if d <= 0:
            d = sum(cost) / 2
        inst = dataclasses.replace(inst, d=d)
        expected = _reference_water_fill(inst, obj)
        assert _water_fill(inst, obj).s == expected
        seen["slack"] += d >= sum(cost)
        seen["binding"] += d < sum(cost)
        seen["breakpoint"] += trial % 4 == 3 and d < sum(cost) and cost[k] > 0
        seen["zero cap"] += 0 in inst.g
        marks = [(gk, w * inst.cdf(k)) for k, (gk, w) in enumerate(zip(inst.g, weights)) if gk]
        seen["tie"] += len(set(marks)) < len(marks)
    assert min(seen.values()) >= 300, seen


def test_exact_objectives_match_the_fraction_sums():
    rng = random.Random(2029)
    for _ in range(400):
        n = rng.randint(1, 24)
        masses = PositionMasses(s=tuple(
            rng.choice((0, F(0), F(rng.randint(0, 9), rng.randint(1, 40)), rng.randint(0, 3)))
            for _ in range(n)
        ))
        weights = tuple(
            rng.choice((F(rng.randint(-9, 9), rng.randint(1, 12)), rng.randint(-2, 2)))
            for _ in range(n)
        )
        fill = evaluate_objective(Fill(), masses)
        linear = evaluate_objective(Linear(weights=weights), masses)
        assert type(fill) is F and fill == sum(masses.s, F(0))
        assert type(linear) is F
        assert linear == sum((w * s for w, s in zip(weights, masses.s)), F(0))
        assert type(masses.total()) is F and masses.total() == fill
