import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import lotbench
from lotbench import (
    CommonLottery,
    DirectMechanism,
    Fill,
    LotbenchError,
    OrdinalInstance,
    convexity_report,
    expand_common_lottery,
    feasibility_report,
    mu_coefficients,
    multipliers,
    new_instance,
    normalize_gamma,
    position_masses,
    to_common_lottery,
    uneven_mu_coefficients,
    uneven_multipliers,
    uniform_instance,
    verify_decomposition,
)

from util import (
    random_convex_instance,
    random_instance,
    random_pmf,
    random_raw_matrix,
    random_supported_matrix,
    simplex_vertex,
)

F = Fraction
U4 = uniform_instance(4)
FIG4 = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)


def load_mech(fixture, key):
    ref = resources.files("lotbench.fixtures").joinpath(fixture)
    return DirectMechanism.from_json_dict(json.loads(ref.read_text())[key])


MENU = load_mech("fig2.json", "menu")


def test_multiplier_values_uniform():
    m = multipliers(U4)
    assert m.local_up == (F(1, 2), F(1, 3), F(1, 4))
    assert m.down[2][0] == F(1, 12)
    assert m.down[2][1] == F(1, 12)


def test_multiplier_sign_detects_nonconvexity():
    m = multipliers(FIG4)
    assert m.down[1][0] == F(-4, 15)
    down_ok = all(v >= 0 for row in m.down for v in row)
    assert down_ok == convexity_report(FIG4).is_convex == False  # noqa: E712


def test_down_nonnegative_iff_convex_randomized():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, n_min=3, n_max=7)
        m = multipliers(inst)
        down_ok = all(v >= 0 for row in m.down for v in row)
        assert down_ok == convexity_report(inst).is_convex


def test_menu_collapse():
    lottery, overflow = to_common_lottery(U4, MENU)
    assert lottery.c == (F(0), F(1, 2), F(1, 3), F(1, 8))
    assert not overflow
    expanded = expand_common_lottery(U4, lottery)
    assert position_masses(U4, expanded).s == position_masses(U4, MENU).s


def test_collapse_fixed_point_on_common_lottery():
    cl = CommonLottery.from_values(["0", "5/12", "1/3", "1/4"])
    lottery, overflow = to_common_lottery(U4, expand_common_lottery(U4, cl))
    assert lottery.c == cl.c and not overflow


def test_collapse_requires_feasible_input():
    bad = DirectMechanism.from_rows(
        [["0"] * 4, ["0"] * 4, ["0"] * 4, ["1", "1", "1", "2"]]
    )
    with pytest.raises(LotbenchError, match="the collapse guarantee is stated for feasible input"):
        to_common_lottery(U4, bad)


def test_nonconvex_menu_overflows():
    menu = load_mech("fig4.json", "menu")
    lottery, overflow = to_common_lottery(FIG4, menu)
    assert lottery.c == (F(0), F(4, 5), F(1, 3))
    assert lottery.total() == F(17, 15)
    assert overflow
    # masses still preserved even though the lottery is invalid
    s = position_masses(FIG4, menu)
    assert tuple(
        FIG4.d * lottery.c[k] * FIG4.cdf(k) for k in range(3)
    ) == s.s


def test_decomposition_menu():
    report = verify_decomposition(U4, MENU)
    assert report.p_theta0 == 1
    assert report.common_term == F(23, 24)
    assert report.info_term == F(1, 24)
    assert report.residual == 0


def test_decomposition_zero_info_for_common_lottery():
    cl = CommonLottery.from_values(["0", "5/12", "1/3", "1/4"])
    report = verify_decomposition(U4, expand_common_lottery(U4, cl))
    assert report.info_term == 0 and report.residual == 0


def test_decomposition_residual_zero_randomized():
    rng = random.Random(11)
    for _ in range(150):
        inst = random_instance(rng, n_min=2, n_max=8)
        mech = random_supported_matrix(rng, inst.n)
        assert verify_decomposition(inst, mech).residual == 0


def _reference_scaled_ic(a, i, j):
    """(N-1) times the IC slack of type i against report j, by definition."""
    return sum(((k - i) * (a[k][i] - a[k][j]) for k in range(i, len(a))), F(0))


def test_decomposition_terms_match_definition():
    # O(N^3) reference: the multiplier-weighted slacks and the row averages
    rng = random.Random(20261018)
    for t in range(80):
        inst = random_instance(rng, n_min=2, n_max=12)
        n = inst.n
        mech = random_raw_matrix(rng, n) if t % 2 else random_supported_matrix(rng, n)
        a = mech.a
        m = multipliers(inst)
        info = sum((m.local_up[i] * _reference_scaled_ic(a, i, i + 1) for i in range(n - 1)), F(0))
        info += sum(
            (m.down[i][j] * _reference_scaled_ic(a, i, j) for i in range(n) for j in range(i)),
            F(0),
        )
        common = sum(
            (sum((a[k][i] * inst.f[i] for i in range(k + 1)), F(0)) / inst.cdf(k)
             for k in range(n)),
            F(0),
        )
        report = verify_decomposition(inst, mech)
        assert report.info_term == info
        assert report.common_term == common
        assert report.p_theta0 == sum((a[k][0] for k in range(n)), F(0))


def _reference_mu(x, mult):
    """O(N^3) aggregation of the multiplier-weighted constraint rows."""
    n = len(x)
    up = mult.local_up + (F(0),)
    mu = [[F(0)] * n for _ in range(n)]
    for k in range(n):
        for i in range(k + 1):
            val = (x[k] - x[i]) * (up[i] + sum(mult.down[i], F(0)))
            if i >= 1:
                val -= (x[k] - x[i - 1]) * up[i - 1]
            for j in range(i + 1, k + 1):
                val -= (x[k] - x[j]) * mult.down[j][i]
            mu[k][i] = val
    return tuple(tuple(row) for row in mu)


def test_mu_matches_the_aggregation():
    rng = random.Random(20261019)
    for _ in range(40):
        inst = random_instance(rng, n_min=2, n_max=12)
        n = inst.n
        assert mu_coefficients(inst) == _reference_mu(range(n), multipliers(inst))
        # a taste whose utilities are an uneven, rational-spaced grid
        steps = [F(rng.randint(1, 9), rng.choice((1, 2, 3, 7, 10))) for _ in range(n - 1)]
        utility = tuple(sum(steps[:k], F(0)) for k in range(n))
        oi = OrdinalInstance(
            qualities=tuple(F(k) for k in range(n)),
            gamma_labels=("lin", "bent"),
            gamma_pmf=random_pmf(rng, 2),
            outside_pmf=inst.f,
            utility=(tuple(F(k) for k in range(n)), utility),
            g=inst.g,
            d=inst.d,
        )
        view = normalize_gamma(oi, "bent")
        assert uneven_mu_coefficients(view) == _reference_mu(view.x, uneven_multipliers(view))


def test_mu_closed_forms():
    mu = mu_coefficients(U4)
    assert mu[3][1] == F(-1, 4)
    assert mu[3][0] == 1 - U4.f[0]
    mu4 = mu_coefficients(FIG4)
    assert mu4[2][0] == F(2, 3)


def test_mu_closed_forms_randomized():
    rng = random.Random(13)
    for _ in range(60):
        mu_coefficients(random_instance(rng, n_min=2, n_max=8))


def test_mu_closed_form_check_survives_optimize_flag():
    # a wrong multiplier must still be caught when -O strips asserts
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from lotbench import transform, uniform_instance

        exact = transform.multipliers

        def bent(inst):
            m = exact(inst)
            up = (m.local_up[0] + Fraction(1, 7),) + m.local_up[1:]
            return transform.Multipliers(local_up=up, down=m.down)

        transform.multipliers = bent
        try:
            transform.mu_coefficients(uniform_instance(4))
        except AssertionError:
            print("caught")
        """
    )
    src = str(Path(lotbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "caught"


def test_vertex_collapse_preserves_masses():
    mech, _ = simplex_vertex(U4, Fill())
    lottery, overflow = to_common_lottery(U4, mech)
    assert not overflow
    assert lottery.c == (F(0), F(5, 12), F(1, 3), F(1, 4))


def test_collapse_total_at_most_one_on_convex_instances():
    rng = random.Random(17)
    for _ in range(25):
        inst = random_convex_instance(rng, n_min=3, n_max=6)
        mech, _ = simplex_vertex(inst, Fill())
        lottery, overflow = to_common_lottery(inst, mech)
        assert not overflow
        # c_k is row k averaged over its acceptable types, weighted by f
        for k in range(inst.n):
            row_mass = sum((mech.a[k][i] * inst.f[i] for i in range(k + 1)), F(0))
            assert lottery.c[k] == row_mass / inst.cdf(k)
        assert position_masses(
            inst, expand_common_lottery(inst, lottery)
        ).s == position_masses(inst, mech).s
