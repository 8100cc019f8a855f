import gc
import json
import random
import weakref
from fractions import Fraction
from importlib import resources

import pytest

from lotbench import (
    CommonLottery,
    DirectMechanism,
    Fill,
    Linear,
    LotbenchError,
    PositionMasses,
    SeparableConcave,
    evaluate_objective,
    expand_common_lottery,
    feasibility_report,
    position_masses,
    new_instance,
    to_common_lottery,
    uniform_instance,
    verify_decomposition,
)
from lotbench import mechanism
from lotbench.mechanism import _constraint_sums

from util import random_instance, random_raw_matrix, random_supported_matrix


def load_fixture(name):
    ref = resources.files("lotbench.fixtures").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


U4 = uniform_instance(4)
FIG2 = load_fixture("fig2.json")
FIG3 = load_fixture("fig3.json")
MENU = DirectMechanism.from_json_dict(FIG2["menu"])
CEEI = DirectMechanism.from_json_dict(FIG2["ceei"])
BAD = DirectMechanism.from_json_dict(FIG3["mechanism"])


def test_matrix_must_be_square():
    with pytest.raises(LotbenchError, match="mechanism matrix must be square"):
        DirectMechanism.from_rows([["1/2", "1/2"], ["0"]])


def test_position_masses_menu():
    assert position_masses(U4, MENU).s == (
        Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8),
    )
    assert position_masses(U4, MENU).total() == Fraction(5, 8)


def test_position_masses_ceei():
    assert position_masses(U4, CEEI).total() == Fraction(11, 16)


def test_ic_slack_violation_value():
    assert feasibility_report(U4, BAD).ic_slack[2][0] == Fraction(-1, 15)


def _reference_ic_slack(inst, a, i, j):
    """The definition: sum_{k>=i} (x_k - theta_i) (a[k][i] - a[k][j])."""
    x = [Fraction(k, inst.n - 1) for k in range(inst.n)]
    return sum(
        ((x[k] - x[i]) * (a[k][i] - a[k][j]) for k in range(i, inst.n)), Fraction(0)
    )


def test_ic_slack_matrix_matches_definition():
    rng = random.Random(20260418)
    for _ in range(240):
        inst = random_instance(rng, 2, 8)
        n = inst.n
        # raw cells in [-1, 1] everywhere, above the diagonal included
        a = tuple(
            tuple(Fraction(rng.randint(-12, 12), 12) for _ in range(n)) for _ in range(n)
        )
        mech = DirectMechanism(a=a)
        report = feasibility_report(inst, mech)
        for i in range(n):
            for j in range(n):
                assert report.ic_slack[i][j] == _reference_ic_slack(inst, a, i, j)


def test_report_sums_match_definition():
    # participation sums every row of a column; position slack is
    # g_k - D * sum_{i<=k} a[k][i] f_i, so cells above the diagonal never count
    rng = random.Random(20261018)
    for _ in range(120):
        inst = random_instance(rng, 2, 12)
        n = inst.n
        a = random_raw_matrix(rng, n).a
        report = feasibility_report(inst, DirectMechanism(a=a))
        for i in range(n):
            assert report.participation[i] == sum((a[k][i] for k in range(n)), Fraction(0))
        for k in range(n):
            mass = sum((a[k][i] * inst.f[i] for i in range(k + 1)), Fraction(0))
            assert report.position_slack[k] == inst.g[k] - inst.d * mass
        ref = [[_reference_ic_slack(inst, a, i, j) for j in range(n)] for i in range(n)]
        assert report.ic_slack == tuple(map(tuple, ref))
        assert report.negative_cells == tuple(
            (k, i) for k in range(n) for i in range(n) if a[k][i] < 0
        )
        # the report keeps its IC slacks as ints; every sign read from them
        # agrees with the definition
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        violated = [(i, j) for i, j in pairs if ref[i][j] < 0]
        assert report.ic_violations() == violated
        assert report.binding_ics == frozenset((i, j) for i, j in pairs if ref[i][j] == 0)
        names = [f"IC[{i},{j}]" for i, j in violated]
        names += [f"POS[{k}]" for k in range(n) if report.position_slack[k] < 0]
        names += [f"AGE[{i}]" for i in range(n) if report.participation[i] > 1]
        if any(a[k][i] for k in range(n) for i in range(k + 1, n)):
            names.append("acceptance-support")
        names += [f"NONNEG[{k},{i}]" for k, i in report.negative_cells]
        assert report.violations() == names


def test_is_feasible_iff_no_violation():
    # supported matrices over N, so that no AGE row fails: the IC rows and
    # the POS rows decide, each alone and together
    rng = random.Random(2323)
    seen = set()
    for _ in range(200):
        inst = random_instance(rng, 2, 8)
        n = inst.n
        a = tuple(tuple(v / n for v in row) for row in random_supported_matrix(rng, n).a)
        report = feasibility_report(inst, DirectMechanism(a=a))
        failed = frozenset(name.split("[")[0] for name in report.violations())
        assert report.is_feasible == (not failed)
        seen.add(failed)
    assert seen == {frozenset(), frozenset({"IC"}), frozenset({"POS"}), frozenset({"IC", "POS"})}
    # POS[1] binds exactly (D F_1 c_1 = g_1), then fails by the smallest
    # step of a cell over 10^40; D and g carry unlike denominators
    inst = new_instance(3, ["2/7", "3/7", "2/7"], ["1/3", "5/11", "7/33"], "9/5")
    c1 = inst.g[1] / (inst.d * inst.cdf(1))
    binding = expand_common_lottery(inst, CommonLottery(c=(Fraction(0), c1, Fraction(0))))
    report = feasibility_report(inst, binding)
    assert report.is_feasible and report.position_slack[1] == 0
    step = Fraction(1, 10**40)
    a = [list(row) for row in binding.a]
    a[1][0] += step
    report = feasibility_report(inst, DirectMechanism(a=tuple(map(tuple, a))))
    assert not report.is_feasible and report.violations() == ["POS[1]"]
    assert report.position_slack[1] == -inst.d * inst.f[0] * step


def _row_masses(inst, a):
    return [sum((a[k][i] * inst.f[i] for i in range(k + 1)), Fraction(0)) for k in range(inst.n)]


def test_kernel_memo_never_serves_a_stale_kernel():
    # (a) a matrix of lists changed in place between the report and the
    # collapse: its kernel is never kept, so both read the changed matrix
    lottery = CommonLottery.from_values(["0", "5/12", "1/3", "1/4"])
    mech = DirectMechanism(a=[list(row) for row in expand_common_lottery(U4, lottery).a])
    assert feasibility_report(U4, mech).participation[3] == Fraction(1, 4)
    mech.a[3][:] = [Fraction(1, 8)] * 4
    assert to_common_lottery(U4, mech)[0].c == (0, Fraction(5, 12), Fraction(1, 3), Fraction(1, 8))
    assert feasibility_report(U4, mech).participation[3] == Fraction(1, 8)

    # (b) one mechanism under two instances whose f differ, interleaved:
    # the mechanism keeps only its f-free sweep, and the row masses follow f
    other = new_instance(4, ["1/8", "1/8", "1/4", "1/2"], ["1/4"] * 4, 1)
    menu = DirectMechanism.from_json_dict(FIG2["menu"])
    for inst in (U4, other, other, U4, other):
        masses = _row_masses(inst, menu.a)
        report = feasibility_report(inst, menu)
        assert report.position_slack == tuple(g - inst.d * m for g, m in zip(inst.g, masses))
        collapsed, _ = to_common_lottery(inst, menu)
        assert collapsed.c == tuple(m / inst.cdf(k) for k, m in enumerate(masses))
        assert position_masses(inst, menu).s == tuple(inst.d * m for m in masses)
    assert feasibility_report(U4, menu).position_slack != feasibility_report(other, menu).position_slack

    # (c) the kernel lives on its mechanism and nowhere else: once the
    # mechanism is freed, so is its kernel
    mech = expand_common_lottery(U4, lottery)
    assert feasibility_report(U4, mech).is_feasible
    to_common_lottery(U4, mech)
    ref = weakref.ref(mech)
    del mech
    gc.collect()
    assert ref() is None


def _random_lottery(rng, n):
    """Entries over a few denominators, with zeros and repeats, total <= 1."""
    pool = [Fraction(0)] + [Fraction(rng.randint(1, 9), rng.choice((1, 3, 7, 12))) for _ in range(3)]
    raw = [rng.choice(pool) for _ in range(n)]
    total = sum(raw)
    return tuple(v / (total + rng.randint(0, 2)) if total else v for v in raw)


def test_kernel_of_an_expansion_equals_the_kernel_of_its_matrix():
    rng = random.Random(2027)
    zeros = repeats = 0
    cases = []
    for _ in range(240):
        n = rng.randint(2, 40)
        inst = random_instance(rng, n, n)
        c = _random_lottery(rng, n)
        zeros += 0 in c
        repeats += len(set(c)) < n
        cases.append((inst, c))
    # edge cases: N = 2, the all-zero lottery, only the top entry nonzero,
    # and entries that total exactly 1
    for n in (2, 3, 17):
        inst = random_instance(rng, n, n)
        top = (Fraction(0),) * (n - 1)
        weights = [rng.randint(1, 9) for _ in range(n)]
        cases += [
            (inst, _random_lottery(rng, n)),
            (inst, (Fraction(0),) * n),
            (inst, top + (Fraction(1, 3),)),
            (inst, top + (Fraction(1),)),
            (inst, tuple(Fraction(w, sum(weights)) for w in weights)),
        ]
    for inst, c in cases:
        expanded = expand_common_lottery(inst, CommonLottery(c=c))
        plain = DirectMechanism(a=expanded.a)
        assert plain == expanded and "_entries" not in plain.__dict__
        assert _constraint_sums(inst, expanded) == _constraint_sums(inst, plain)
    assert zeros >= 50 and repeats >= 100
    # no lottery has a negative entry, but the sweep from entries still
    # reports one as the matrix's sweep does, at either end and inside
    for c in ((-1, 0, 2), (0, 0, -1), (1, -1, 1, 3), (Fraction(1, 2), Fraction(-1, 3))):
        n = len(c)
        a = tuple((v,) * (k + 1) + (0,) * (n - k - 1) for k, v in enumerate(c))
        assert mechanism._sweep(a, c) == mechanism._sweep(a)


def test_position_masses_match_the_cell_sums():
    # negative cells and cells above the diagonal included; a list matrix
    # changed in place is read afresh on every call
    rng = random.Random(2028)
    for _ in range(150):
        inst = random_instance(rng, 2, 12)
        a = random_raw_matrix(rng, inst.n).a
        want = tuple(inst.d * m for m in _row_masses(inst, a))
        assert position_masses(inst, DirectMechanism(a=a)).s == want
        rows = [list(row) for row in a]
        mech = DirectMechanism(a=rows)
        assert position_masses(inst, mech).s == want
        k = rng.randrange(inst.n)
        rows[k][rng.randint(0, k)] += Fraction(rng.randint(-9, 9), 11)
        assert position_masses(inst, mech).s == tuple(inst.d * m for m in _row_masses(inst, rows))


def test_one_sweep_serves_every_reader_of_a_tuple_mechanism(monkeypatch):
    swept = []

    def counted(a, entries=None):
        swept.append(entries is not None)
        return sweep(a, entries)

    sweep = mechanism._sweep
    monkeypatch.setattr(mechanism, "_sweep", counted)
    for mech in (
        expand_common_lottery(U4, CommonLottery.from_values(["0", "5/12", "1/3", "1/4"])),
        DirectMechanism.from_json_dict(FIG2["menu"]),
    ):
        swept.clear()
        report = feasibility_report(U4, mech)
        lottery, _ = to_common_lottery(U4, mech)
        masses = position_masses(U4, mech)
        verify_decomposition(U4, mech)
        assert len(swept) == 1
        assert report.is_feasible and masses.total() == sum(
            m * U4.d * U4.cdf(k) for k, m in enumerate(lottery.c)
        )
    # an expansion is scaled from its entries, and only when first read
    assert swept == [False]
    mech = expand_common_lottery(U4, CommonLottery.from_values(["0", "1/2", "0", "1/4"]))
    assert swept == [False]
    feasibility_report(U4, mech)
    assert swept == [False, True]


def test_expansion_keeps_a_snapshot_of_the_lottery():
    entries = [Fraction(0), Fraction(5, 12), Fraction(1, 3), Fraction(1, 4)]
    mech = expand_common_lottery(U4, CommonLottery(c=entries))
    entries[1] = Fraction(2, 3)
    entries[3] = Fraction(-1)
    fresh = expand_common_lottery(U4, CommonLottery.from_values(["0", "5/12", "1/3", "1/4"]))
    assert mech == fresh
    assert feasibility_report(U4, mech) == feasibility_report(U4, fresh)
    assert position_masses(U4, mech) == position_masses(U4, fresh)
    assert to_common_lottery(U4, mech) == to_common_lottery(U4, fresh)


FLOAT_CELLS = DirectMechanism(a=((Fraction(1, 2), 0, 0), (0.25, 0.25, 0), (Fraction(1, 4),) * 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: feasibility_report(uniform_instance(3), FLOAT_CELLS), "mechanism row 1"),
        (lambda: position_masses(uniform_instance(3), FLOAT_CELLS), "mechanism row 1"),
        (lambda: to_common_lottery(uniform_instance(3), FLOAT_CELLS), "mechanism row 1"),
        (lambda: verify_decomposition(uniform_instance(3), FLOAT_CELLS), "mechanism row 1"),
        (
            lambda: expand_common_lottery(
                uniform_instance(3), CommonLottery(c=(Fraction(1, 2), 0.25, Fraction(1, 4)))
            ),
            "lottery",
        ),
    ],
    ids=["feasibility_report", "position_masses", "to_common_lottery",
         "verify_decomposition", "expand_common_lottery"],
)
def test_kernel_readers_reject_inexact_entries(call, message):
    with pytest.raises(LotbenchError, match=f"^{message} entries must be Fraction or int, got 0.25$"):
        call()


@pytest.mark.parametrize(
    "read", [feasibility_report, position_masses, to_common_lottery, verify_decomposition],
    ids=lambda read: read.__name__,
)
def test_kernel_readers_reject_a_mechanism_of_another_size(read):
    with pytest.raises(LotbenchError, match="^mechanism is 4x4, instance has N=3$"):
        read(uniform_instance(3), MENU)


def test_feasibility_menu_and_ceei():
    for mech in (MENU, CEEI):
        report = feasibility_report(U4, mech)
        assert report.is_feasible
        assert report.ic_violations() == []


def test_feasibility_flags_bad_mechanism():
    report = feasibility_report(U4, BAD)
    assert not report.is_feasible
    assert report.ic_violations() == [(2, 0)]
    # all local IC pairs hold
    for i in range(4):
        for j in (i - 1, i + 1):
            if 0 <= j < 4:
                assert report.ic_slack[i][j] >= 0


def test_mon_profile():
    p = feasibility_report(U4, MENU).participation
    assert p == (Fraction(1), Fraction(1), Fraction(1, 4), Fraction(1, 4))
    assert all(p[i] >= p[i + 1] for i in range(3))


def test_expand_common_lottery():
    cl = CommonLottery.from_values(["0", "5/12", "1/3", "1/4"])
    mech = expand_common_lottery(U4, cl)
    assert mech.a[1] == (Fraction(5, 12), Fraction(5, 12), Fraction(0), Fraction(0))
    assert feasibility_report(U4, mech).is_feasible


def test_expand_rejects_overflow():
    with pytest.raises(LotbenchError, match="offer probabilities total 2 > 1"):
        expand_common_lottery(U4, CommonLottery.from_values(["1/2"] * 4))
    with pytest.raises(LotbenchError, match="offer probabilities must be nonnegative"):
        expand_common_lottery(U4, CommonLottery.from_values(["-1/4", "0", "0", "0"]))


def test_objectives():
    s = PositionMasses.from_values(["0", "1/4", "1/4", "1/8"])
    assert evaluate_objective(Fill(), s) == Fraction(5, 8)
    lin = Linear(weights=(Fraction(1), Fraction(0), Fraction(0), Fraction(2)))
    assert evaluate_objective(lin, s) == Fraction(1, 4)
    conc = SeparableConcave(weights=(Fraction(1),) * 4, rho=Fraction(1, 2))
    assert evaluate_objective(conc, s) == pytest.approx(2 * 0.25**0.5 + 0.125**0.5)


FLOAT_MASSES = PositionMasses(s=(0.5, Fraction(1, 4)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evaluate_objective(Fill(), FLOAT_MASSES), "masses"),
        (lambda: evaluate_objective(Linear(weights=(1, Fraction(2))), FLOAT_MASSES), "masses"),
        (lambda: FLOAT_MASSES.total(), "masses"),
        (lambda: CommonLottery(c=(0.5, Fraction(1, 4))).total(), "lottery"),
    ],
    ids=["fill", "linear", "masses_total", "lottery_total"],
)
def test_exact_values_reject_float_entries(call, message):
    with pytest.raises(LotbenchError, match=f"^{message} entries must be Fraction or int, got 0.5$"):
        call()


def test_concave_objective_takes_float_masses():
    conc = SeparableConcave(weights=(Fraction(1), Fraction(2)), rho=Fraction(1, 2))
    assert evaluate_objective(conc, FLOAT_MASSES) == 0.5**0.5 + 2 * 0.25**0.5


def test_concave_objective_rejects_negative_mass():
    conc = SeparableConcave(weights=(Fraction(1),) * 2, rho=Fraction(1, 2))
    with pytest.raises(LotbenchError, match="mass at position 0 is negative"):
        evaluate_objective(conc, PositionMasses.from_values(["-1/8", "0"]))


def test_concave_objective_validation():
    with pytest.raises(ValueError):
        SeparableConcave(weights=(Fraction(1),), rho=Fraction(3, 2))
    with pytest.raises(ValueError):
        SeparableConcave(weights=(Fraction(0),), rho=Fraction(1, 2))


def test_fig4_menu_is_feasible_on_its_instance():
    fig4 = load_fixture("fig4.json")
    inst = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)
    menu = DirectMechanism.from_json_dict(fig4["menu"])
    assert feasibility_report(inst, menu).is_feasible
    assert position_masses(inst, menu).total() == Fraction(2, 3)
