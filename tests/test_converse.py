import random
from fractions import Fraction

import pytest

from lotbench import (
    CommonLottery,
    Fill,
    Instance,
    Linear,
    LotbenchError,
    PreconditionViolation,
    auto_improve,
    convexity_report,
    evaluate_objective,
    feasibility_report,
    lottery_from_masses,
    optimal_lottery_fill,
    optimal_masses,
    perturb,
    position_masses,
    uniform_instance,
)

from lotbench import converse
from lotbench.converse import _improve_at
from lotbench.instance import _with_mass
from lotbench.optimizer import _ranking

from util import new_instance, random_convex_instance, random_instance, random_pmf

F = Fraction
FIG4 = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)
FIG4_D32 = Instance(n=3, f=FIG4.f, g=FIG4.g, d=F(3, 2))


def test_find_violation():
    assert convexity_report(FIG4).violation_indices[0] == 1
    assert convexity_report(uniform_instance(4)).violation_indices == ()


def test_second_difference_value():
    # entry k-1 belongs to interior index k
    assert convexity_report(FIG4).second_differences[0] == F(-4, 5)


def test_perturb_fig4_worked_example():
    base = optimal_lottery_fill(FIG4_D32).lottery
    assert base.c == (F(11, 45), F(8, 15), F(2, 9))
    eps = F(1, 6)
    delta = -eps * FIG4.f[0] * convexity_report(FIG4).second_differences[0]
    assert delta == F(2, 45)
    mech = perturb(FIG4_D32, base, k=1, i=0, epsilon=eps, delta=delta, fill_index=0)
    assert feasibility_report(FIG4_D32, mech).is_feasible
    base_mass = sum(
        FIG4_D32.d * base.c[k] * FIG4_D32.cdf(k) for k in range(3)
    )
    gain = position_masses(FIG4_D32, mech).total() - base_mass
    assert gain == FIG4_D32.d * delta * FIG4_D32.cdf(0)
    assert gain == F(1, 45)


def test_perturb_preserves_masses_when_delta_zero():
    base = optimal_lottery_fill(FIG4_D32).lottery
    mech = perturb(FIG4_D32, base, 1, 0, F(1, 12), F(0), 0)
    expected = tuple(
        FIG4_D32.d * base.c[k] * FIG4_D32.cdf(k) for k in range(3)
    )
    assert position_masses(FIG4_D32, mech).s == expected


def test_perturb_precondition_messages():
    base = optimal_lottery_fill(FIG4_D32).lottery
    with pytest.raises(PreconditionViolation, match="0 <= i < k"):
        perturb(FIG4_D32, base, 2, 0, F(1, 6), F(0), 0)
    with pytest.raises(PreconditionViolation, match="epsilon"):
        perturb(FIG4_D32, base, 1, 0, F(-1, 6), F(0), 0)
    with pytest.raises(PreconditionViolation, match="slack"):
        perturb(FIG4_D32, base, 1, 0, F(1, 6), F(1), 0)
    empty = CommonLottery.from_values(["0", "1/2", "1/4"])
    with pytest.raises(PreconditionViolation, match="offer position 0"):
        perturb(FIG4_D32, empty, 1, 0, F(1, 6), F(0), 0)
    with pytest.raises(PreconditionViolation, match=r"NONNEG\[2,0\]"):
        # spread too large: a cell leaves [0, 1]
        perturb(FIG4_D32, base, 1, 0, F(2), F(0), 0)


def test_auto_improve_fig4():
    # D = 1 lies below the threshold 17/15 at which the lottery offers
    # position 0, so the search moves on to the one piece (17/15, 32/15)
    found, why = auto_improve(FIG4)
    assert why == "improved" and found is not None
    assert found.k == 1 and found.i == 0
    assert found.d == F(49, 30) and found.gain == F(1, 45)
    assert feasibility_report(
        Instance(n=3, f=FIG4.f, g=FIG4.g, d=found.d), found.mechanism
    ).is_feasible


def test_auto_improve_fixed_d_only():
    found, why = auto_improve(FIG4_D32, search_d=False)
    assert why == "improved"
    assert found.d == F(3, 2)
    assert found.epsilon == F(1, 6) and found.delta == F(2, 45)
    assert found.gain == F(1, 45)


def test_auto_improve_gain_formula():
    found, _ = auto_improve(FIG4_D32, search_d=False)
    assert found.gain == found.d * found.delta * FIG4.cdf(found.fill_index)


def test_auto_improve_convex_instance():
    found, why = auto_improve(uniform_instance(5))
    assert found is None and why == "convex"


def test_auto_improve_convex_randomized():
    rng = random.Random(21)
    for _ in range(40):
        found, why = auto_improve(random_convex_instance(rng))
        assert found is None and why == "convex"


def test_auto_improve_linear_objective():
    obj = Linear(weights=(F(1), F(1), F(1)))
    found, why = auto_improve(FIG4_D32, obj=obj, search_d=False)
    assert why == "improved"
    base_value = evaluate_objective(
        obj, position_masses(FIG4_D32, found.mechanism)
    ) - found.gain
    assert found.gain > 0 and base_value > 0


def test_auto_improve_rejects_bad_objectives():
    from lotbench import SeparableConcave

    with pytest.raises(TypeError):
        auto_improve(FIG4, obj=SeparableConcave(weights=(F(1),) * 3, rho=F(1, 2)))
    with pytest.raises(TypeError):
        auto_improve(FIG4, obj=Linear(weights=(F(1), F(0), F(1))))
    with pytest.raises(LotbenchError, match="objective has 2 weights, instance has N=3"):
        auto_improve(FIG4, obj=Linear(weights=(F(1), F(1))))


def test_auto_improve_checks_the_objective_before_the_convexity_verdict():
    # a convex instance answers "convex" only for an objective that fits it
    short = Linear(weights=(F(1), F(1)))
    assert convexity_report(uniform_instance(3)).is_convex
    with pytest.raises(LotbenchError, match="objective has 2 weights, instance has N=3"):
        auto_improve(uniform_instance(3), obj=short)
    assert auto_improve(uniform_instance(3), obj=Linear(weights=(F(1),) * 3)) == (None, "convex")


def test_auto_improve_slack_budget_diagnostic():
    # so many agents that every position fills without the budget binding
    scarce = Instance(n=3, f=FIG4.f, g=FIG4.g, d=F(100))
    found, why = auto_improve(scarce, search_d=False)
    assert found is None and why == "full-fill feasible"


def test_auto_improve_base_is_the_optimal_common_lottery():
    # the search ranks once; at every agent mass its base must still be the
    # budget optimum that optimal_masses computes on its own
    rng = random.Random(43)
    tried = found_count = 0
    while tried < 48:
        inst = random_instance(rng, n_min=3, n_max=9)
        if convexity_report(inst).is_convex:
            continue
        tried += 1
        weights = tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(inst.n))
        for obj in (Fill(), Linear(weights=weights)):
            found, why = auto_improve(inst, obj=obj)
            if found is None:
                continue
            found_count += 1
            trial = Instance(n=inst.n, f=inst.f, g=inst.g, d=found.d)
            base_masses = optimal_masses(trial, obj).masses
            assert found.base == lottery_from_masses(trial, base_masses)
            # the gain read from the construction's identity is the
            # objective's change summed over the perturbed matrix
            assert found.gain == evaluate_objective(
                obj, position_masses(trial, found.mechanism)
            ) - evaluate_objective(obj, base_masses)
    assert found_count >= 40


def _weights(obj, n):
    return (F(1),) * n if isinstance(obj, Fill) else obj.weights


def _budget_table(inst, obj):
    """(threshold, spent, breakpoints) of the greedy budget scan, written
    out from the ranking: spent fills everything, threshold is the mass
    above which the lottery offers the window around the first violation,
    and the breakpoints are the budget spent before each position."""
    k = convexity_report(inst).violation_indices[0]
    before, spent = {}, F(0)
    for r in _ranking(inst, _weights(obj, inst.n)):
        before[r] = spent
        spent += inst.g[r] / inst.cdf(r)
    window = (k - 1, k, k + 1)
    if all(inst.g[r] > 0 for r in window):
        threshold = max(before[r] for r in window)
    else:
        threshold = spent
    return threshold, spent, sorted(before.values())


def _piece_midpoints(inst, obj):
    """The midpoint of each piece of (threshold, spent) cut at the
    breakpoints, in ascending order."""
    threshold, spent, breakpoints = _budget_table(inst, obj)
    cuts = sorted({threshold, spent, *(b for b in breakpoints if threshold < b < spent)})
    return [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]


def _reference_search(inst, obj, search_d, masses):
    """auto_improve candidate by candidate over the given agent masses:
    build each trial instance, solve its optimal common lottery, test the
    full-fill and window conditions on that lottery, and run the
    construction where both pass."""
    report = convexity_report(inst)
    k = report.violation_indices[0]
    weights = _weights(obj, inst.n)
    order = _ranking(inst, weights)
    full_fill_only = True
    for d in [inst.d] + (masses if search_d else []):
        trial = Instance(n=inst.n, f=inst.f, g=inst.g, d=d)
        c = lottery_from_masses(trial, optimal_masses(trial, obj).masses).c
        if sum(c) < 1:
            why = "full-fill feasible"
        elif not (c[k - 1] > 0 and c[k] > 0 and c[k + 1] > 0):
            why = "no supported window"
        else:
            found = _improve_at(trial, weights, order, k, report.second_differences[k - 1])
            if found is not None:
                return found, "improved"
            why = "no supported window"
        full_fill_only = full_fill_only and why == "full-fill feasible"
    if search_d:  # a search reaches a binding mass: (0, spent] is not empty
        full_fill_only = False
    return None, "full-fill feasible" if full_fill_only else "no supported window"


def _reference_grid(inst):
    """The float grid the search walked before the exact pieces: 32
    geometric points from the cost of filling the top position to the cost
    of filling everything, rounded to denominators of at most 10**6."""
    lo = float(inst.g[-1] / inst.cdf(inst.n - 1))
    hi = float(sum(gk / inst.cdf(k) for k, gk in enumerate(inst.g)))
    if lo <= 0:
        lo = hi / 1024
    points = [lo * (hi / lo) ** (t / 31) if hi > lo else lo for t in range(32)]
    return [p for p in (F(v).limit_denominator(10**6) for v in points) if p > 0]


def _random_nonconvex_instance(rng, n_min, n_max):
    """A random instance whose 1/F is not convex; some of the time one
    capacity in the violation window is zero.  Returns (instance, k)."""
    while True:
        n = rng.randint(n_min, n_max)
        f = random_pmf(rng, n)
        k_of = convexity_report(Instance(n=n, f=f, g=f, d=F(1))).violation_indices
        if k_of:
            break
    g = list(random_pmf(rng, n, full_support=False))
    if rng.random() < 0.3:  # a capacity of zero inside the window
        g[k_of[0] + rng.randint(-1, 1)] = F(0)
        if sum(g) == 0:
            g[rng.randrange(n)] = F(1)
        g = [gk / sum(g) for gk in g]
    d = rng.choice((
        F(rng.randint(1, 8), rng.randint(1, 4)),
        F(1, rng.randint(5, 60)),
        F(rng.randint(3, 60)),
    ))
    return Instance(n=n, f=f, g=tuple(g), d=d), k_of[0]


def test_auto_improve_screen_matches_the_candidate_by_candidate_search(monkeypatch):
    # the search decides full-fill and window failures from the budget
    # table alone; on every input it must return what solving each
    # candidate's lottery returns, and it may try the construction only
    # where the budget binds and the lottery offers the whole window
    def checked(trial, weights, order, k, d2):
        obj = Linear(weights=tuple(F(w) for w in weights))  # Fill: unit weights
        c = lottery_from_masses(trial, optimal_masses(trial, obj).masses).c
        assert sum(c) == 1 and c[k - 1] > 0 and c[k] > 0 and c[k + 1] > 0
        return _improve_at(trial, weights, order, k, d2)

    monkeypatch.setattr(converse, "_improve_at", checked)
    rng = random.Random(57)
    zero_in_window = 0
    diagnostics = set()
    for _ in range(200):
        inst, k = _random_nonconvex_instance(rng, 3, 7)
        zero_in_window += any(inst.g[r] == 0 for r in range(k - 1, k + 2))
        weights = tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(inst.n))
        for obj in (Fill(), Linear(weights=weights)):
            masses = _piece_midpoints(inst, obj)
            for search_d in (True, False):
                got = auto_improve(inst, obj=obj, search_d=search_d)
                assert got == _reference_search(inst, obj, search_d, masses)
                diagnostics.add(got[1])
    assert zero_in_window >= 20
    assert diagnostics == {"improved", "full-fill feasible", "no supported window"}


def _grid_improves(inst, obj):
    """Whether the construction improves at some point of the float grid
    where the budget binds and the lottery offers the window (the screen
    that the candidate-by-candidate test checks)."""
    threshold, spent, _ = _budget_table(inst, obj)
    report = convexity_report(inst)
    k = report.violation_indices[0]
    weights = _weights(obj, inst.n)
    order = _ranking(inst, weights)
    return any(
        _improve_at(
            Instance(n=inst.n, f=inst.f, g=inst.g, d=d), weights, order, k,
            report.second_differences[k - 1],
        ) is not None
        for d in _reference_grid(inst)
        if threshold < d <= spent
    )


def test_auto_improve_finds_every_mass_the_float_grid_found():
    # the exact pieces replace a 32-point float grid: wherever the grid
    # improves, so must the search; under Fill it improves exactly when
    # the window opens before the budget runs out
    rng = random.Random(71)
    grid_improved = exact_only = zero_in_window = 0
    for _ in range(400):
        inst, k = _random_nonconvex_instance(rng, 3, 10)
        zero_in_window += any(inst.g[r] == 0 for r in range(k - 1, k + 2))
        weights = tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(inst.n))
        for obj in (Fill(), Linear(weights=weights)):
            found, _ = auto_improve(inst, obj=obj)
            if _grid_improves(inst, obj):
                grid_improved += 1
                assert found is not None
            else:
                exact_only += found is not None
            if isinstance(obj, Fill):
                threshold, spent, _ = _budget_table(inst, obj)
                assert (found is not None) == (threshold < spent)
    assert zero_in_window >= 100
    assert grid_improved >= 300 and exact_only >= 1


def test_auto_improve_screen_boundaries(monkeypatch):
    # FIG4 under Fill: the greedy fills positions 2, 1, 0 at budget costs
    # 1/3, 4/5 and 1, so position 0 = k-1 is offered exactly when
    # D > 1/3 + 4/5 = 17/15, and the budget binds exactly when D <= 32/15
    threshold, spent, tiny = F(17, 15), F(32, 15), F(1, 10**6)
    built = []

    def counted(trial, *args):
        built.append(trial.d)
        return _improve_at(trial, *args)

    monkeypatch.setattr(converse, "_improve_at", counted)

    def at(d):
        return Instance(n=3, f=FIG4.f, g=FIG4.g, d=d)

    def lottery(d):
        return optimal_lottery_fill(at(d)).lottery

    assert lottery(threshold).c[0] == 0 < lottery(threshold + tiny).c[0]
    assert lottery(spent).total() == 1 > lottery(spent + tiny).total()

    # at the threshold the window is decided without trying the construction
    assert auto_improve(at(threshold), search_d=False) == (None, "no supported window")
    assert built == []
    assert auto_improve(at(threshold + tiny), search_d=False)[1] == "improved"
    assert built == [threshold + tiny]
    # at exactly the cost of filling everything the budget still binds
    assert auto_improve(at(spent), search_d=False) == (None, "no supported window")
    assert built[-1] == spent
    assert auto_improve(at(spent + tiny), search_d=False) == (None, "full-fill feasible")
    assert built[-1] == spent


def test_trial_instance_shares_the_checked_instance():
    rng = random.Random(83)
    for _ in range(60):
        inst = random_instance(rng, 2, 16)
        d = F(rng.randint(1, 40), rng.randint(1, 9))
        trial = _with_mass(inst, d)
        checked = Instance(n=inst.n, f=inst.f, g=inst.g, d=d)
        assert trial == checked and hash(trial) == hash(checked) and repr(trial) == repr(checked)
        assert trial._grid is inst._grid and trial._grid == checked._grid
        assert [trial.cdf(k) for k in range(inst.n)] == [checked.cdf(k) for k in range(inst.n)]
    with pytest.raises(LotbenchError, match="agent mass must be positive, got 0"):
        _with_mass(FIG4, F(0))
    with pytest.raises(LotbenchError, match="D entries must be Fraction or int, got 0.5"):
        _with_mass(FIG4, 0.5)


def test_auto_improve_is_unchanged_by_shared_trial_instances(monkeypatch):
    # the reference builds every trial mass as a fully validated Instance
    rng = random.Random(89)
    cases = []
    for _ in range(220):
        inst, _ = _random_nonconvex_instance(rng, 3, 12)
        weights = tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(inst.n))
        cases += [(inst, Fill()), (inst, Linear(weights=weights))]
    got = [auto_improve(inst, obj=obj) for inst, obj in cases]
    monkeypatch.setattr(
        converse, "_with_mass", lambda inst, d: Instance(n=inst.n, f=inst.f, g=inst.g, d=d)
    )
    assert got == [auto_improve(inst, obj=obj) for inst, obj in cases]
    assert sum(found is not None for found, _ in got) >= 100
