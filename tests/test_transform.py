import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from importlib import resources
from itertools import accumulate
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
    normalize_gamma,
    position_masses,
    to_common_lottery,
    uneven_mu_coefficients,
    uniform_instance,
    verify_decomposition,
)

from lotbench import instance, transform
from lotbench.instance import _grid_weights
from util import (
    grid_of,
    new_instance,
    random_convex_instance,
    random_feasible_lottery,
    random_instance,
    random_pmf,
    random_raw_matrix,
    random_supported_matrix,
    reference_second_differences,
    reference_weights,
    simplex_vertex,
)

F = Fraction
U4 = uniform_instance(4)
FIG4 = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)


def load_mech(fixture, key):
    ref = resources.files("lotbench.fixtures").joinpath(fixture)
    return DirectMechanism.from_json_dict(json.loads(ref.read_text())[key])


MENU = load_mech("fig2.json", "menu")


def _cdf(inst):
    return [inst.cdf(k) for k in range(inst.n)]


def _checked_weights(x, cdf):
    """The library's weights (up, r) on the grid, once checked against
    the closed-form reference: the same up, and down[i][j] = f_j r_i."""
    up, rows = _grid_weights(grid_of(tuple(x), tuple(cdf)))
    f = [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])]
    assert (up, tuple(tuple(fj * r for fj in f[:i]) for i, r in enumerate(rows))) == (
        reference_weights(x, cdf)
    )
    return up, rows


def test_multiplier_values_uniform():
    up, rows = _checked_weights(range(4), _cdf(U4))
    assert up == (F(1, 2), F(1, 3), F(1, 4))
    assert rows == (0, F(4, 3), F(1, 3), 0)
    assert rows[2] * U4.f[0] == F(1, 12)  # down[2][0]
    assert rows[2] * U4.f[1] == F(1, 12)  # down[2][1]


def test_multiplier_sign_detects_nonconvexity():
    _, rows = _checked_weights(range(3), _cdf(FIG4))
    assert rows[1] * FIG4.f[0] == F(-4, 15)  # down[1][0]
    down_ok = all(r >= 0 for r in rows)
    assert down_ok == convexity_report(FIG4).is_convex == False  # noqa: E712


def test_down_nonnegative_iff_convex_randomized():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, n_min=3, n_max=7)
        _, down = reference_weights(range(inst.n), _cdf(inst))
        _, rows = _checked_weights(range(inst.n), _cdf(inst))
        down_ok = all(v >= 0 for row in down for v in row)
        assert down_ok == all(r >= 0 for r in rows) == convexity_report(inst).is_convex


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
    # O(N^3) reference: the slacks weighted by the closed-form multipliers,
    # and the row averages
    rng = random.Random(20261018)
    for t in range(80):
        inst = random_instance(rng, n_min=2, n_max=12)
        n = inst.n
        mech = random_raw_matrix(rng, n) if t % 2 else random_supported_matrix(rng, n)
        a = mech.a
        up, down = reference_weights(range(n), _cdf(inst))
        info = sum((up[i] * _reference_scaled_ic(a, i, i + 1) for i in range(n - 1)), F(0))
        info += sum(
            (down[i][j] * _reference_scaled_ic(a, i, j) for i in range(n) for j in range(i)),
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


def _reference_mu(x, cdf):
    """O(N^3) aggregation of the constraint rows, weighted by the
    closed-form multipliers."""
    n = len(x)
    up, down = reference_weights(x, cdf)
    up += (F(0),)
    mu = [[F(0)] * n for _ in range(n)]
    for k in range(n):
        for i in range(k + 1):
            val = (x[k] - x[i]) * (up[i] + sum(down[i], F(0)))
            if i >= 1:
                val -= (x[k] - x[i - 1]) * up[i - 1]
            for j in range(i + 1, k + 1):
                val -= (x[k] - x[j]) * down[j][i]
            mu[k][i] = val
    return tuple(tuple(row) for row in mu)


def test_mu_matches_the_aggregation():
    rng = random.Random(20261019)
    for t in range(44):  # every N = 2..12, four times
        n = 2 + t % 11
        inst = random_instance(rng, n_min=n, n_max=n)
        assert mu_coefficients(inst) == _reference_mu(range(n), _cdf(inst))
        assert convexity_report(inst).second_differences == reference_second_differences(
            range(n), _cdf(inst)
        )
        _checked_weights(range(n), _cdf(inst))
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
        assert uneven_mu_coefficients(view) == _reference_mu(view.x, view.F)
        assert convexity_report(view).second_differences == reference_second_differences(
            view.x, view.F
        )
        _checked_weights(view.x, view.F)


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
    # a wrong weight must still be caught when -O strips asserts: first an
    # upward weight, then a nonzero row weight r_i of the downward table
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from lotbench import instance, transform, uniform_instance

        exact = instance._grid_weights

        def bent(which):
            def weights(grid):
                up, rows = exact(grid)
                if which == "up":
                    up = (up[0] + Fraction(1, 7),) + up[1:]
                else:  # r_1 = 4/3 on the uniform N = 4 grid
                    rows = rows[:1] + (rows[1] + Fraction(1, 7),) + rows[2:]
                return up, rows
            return weights

        for which in ("up", "row"):
            instance._grid_weights = bent(which)
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
    assert out.stdout.split() == ["caught", "caught"]


def _reference_mu_check(grid):
    """The aggregation identity checked at every cell, row by row: the
    running sums of each row's k+1 coefficients, O(N^2) ints."""
    wscale, up, rows = grid.weights
    xscale, xs, fscale, cdf, pmf = grid.xscale, grid.xs, grid.fscale, grid.ps, grid.pmf
    up = [u * fscale for u in up] + [0]
    unit = wscale * fscale * xscale
    target = [-p * unit for p in pmf]
    a, b = [], []
    for k, (xk, rk) in enumerate(zip(xs, rows)):
        own = up[k]
        if rk:
            own += rk * (cdf[k - 1] if k else 0)
            xr = xk * rk
            a = [v - p * rk for v, p in zip(a, pmf)]
            b = [v - p * xr for v, p in zip(b, pmf)]
        a.append(own - up[k - 1])
        b.append(xk * own - xs[k - 1] * up[k - 1])
        fk = cdf[k]
        got = [(xk * va - vb) * fk for va, vb in zip(a, b)]
        if got != [target[0] + fk * unit] + target[1:k + 1]:
            raise AssertionError(f"mu row {k} differs from its closed form")


def _all_cells_scan(grid, unit, big_a, big_b, g):
    """`transform._scan_mu_rows`'s test at every cell (k, i), i <= k."""
    for k, (xk, fk, gk) in enumerate(zip(grid.xs, grid.ps, g)):
        for i, p in enumerate(grid.pmf[:k + 1]):
            if fk * (xk * big_a[i] - big_b[i] - p * gk) != -p * unit:
                raise AssertionError(f"mu row {k} differs from its closed form")


def _raised(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def test_mu_scan_decides_like_the_all_cells_check():
    """The check at the cells 0, k-1 and k of each row raises exactly when
    the check of every cell does, and names the same row: (a) on the
    weights of even and uneven grids, exact, each bent in turn and all
    random; (b) on tables that no weight vector produces, held against a
    check of every cell of the same table."""
    rng = random.Random(3301)
    # every even N = 2..40 once, then small grids, so that each weight can
    # be bent in turn within the time of a unit test
    sizes = [*range(2, 41), *(2 + t % 7 for t in range(961)), *(-1 - t % 12 for t in range(1000))]
    grids, raised, turned, kinks = [], 0, 0, 0
    for n in sizes:
        if n < 0:  # an uneven grid of -n points
            n = -n
            den = rng.choice((1, 2, 3, 7))
            x = tuple(F(v, den) for v in accumulate(rng.randint(1, 9) for _ in range(n)))
            grid = grid_of(x, tuple(accumulate(random_pmf(rng, n))))
            transform._grid_mu(grid)
        else:
            inst = random_instance(rng, n, n)
            mu_coefficients(inst)
            grid = inst._grid
        assert _raised(_reference_mu_check, grid) is None
        grids.append(grid)
        wscale, up, rows = grid.weights
        bends = [(wscale, tuple(rng.randint(-9, 9) for _ in up), tuple(
            rng.randint(-9, 9) for _ in rows
        ))]
        for i in range(len(up) + len(rows)):
            bent = [*up, *rows]
            bent[i] += rng.choice((-1, 1)) * rng.randint(1, 3)
            bends.append((wscale, tuple(bent[:len(up)]), tuple(bent[len(up):])))
        trial = dataclasses.replace(grid)
        for weights in bends:
            trial.__dict__["weights"] = weights
            want = _raised(_reference_mu_check, trial)
            assert _raised(transform._check_mu_identity, trial) == want
            raised += want is not None
    # (b) crafted tables on the same grids
    for grid in grids[::3]:
        n = len(grid.xs)
        unit, big_a, big_b, g = transform._mu_table(grid)
        assert _raised(_all_cells_scan, grid, unit, big_a, big_b, g) is None
        crafted = [(big_a, big_b, g)]
        i, k = rng.randrange(n), rng.randrange(n)
        delta = rng.choice((-1, 1)) * rng.randint(1, unit)
        # line i turned about its own point keeps cell (i, i)
        crafted.append((
            [*big_a[:i], big_a[i] + delta, *big_a[i + 1:]],
            [*big_b[:i], big_b[i] + grid.xs[i] * delta, *big_b[i + 1:]],
            g,
        ))
        # line i moved off its own point, parallel to itself
        crafted.append((big_a, [*big_b[:i], big_b[i] + delta, *big_b[i + 1:]], g))
        # the points kinked at point k - 1 onto another slope, and the lines
        # from k - 1 on turned with them, so only column 0 sees the kink
        if k > 1:
            x0, pmf = grid.xs[k - 1], grid.pmf
            crafted.append((
                [v + pmf[j] * delta if j >= k - 1 else v for j, v in enumerate(big_a)],
                [v + pmf[j] * delta * x0 if j >= k - 1 else v for j, v in enumerate(big_b)],
                [v + delta * max(x - x0, 0) for v, x in zip(g, grid.xs)],
            ))
            kinks += 1
        crafted.append((big_a, big_b, [*g[:k], g[k] + delta, *g[k + 1:]]))
        for a, b, rows in crafted:
            want = _raised(_all_cells_scan, grid, unit, a, b, rows)
            assert _raised(transform._scan_mu_rows, grid, unit, a, b, rows) == want
        turned += i < n - 1
    assert raised > 20000 and turned > 400 and kinks > 300, (raised, turned, kinks)


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


def test_grid_weights_are_built_once_per_grid(monkeypatch):
    """The decomposition, the mu check and the LP's IC prices read one copy
    of the weights, kept on the grid: a trial instance at another agent
    mass shares it, and a new instance builds its own."""
    from lotbench import lpsolve, solve_designer
    from lotbench.instance import _with_mass

    calls = []

    def counted(grid):
        calls.append(grid)
        return _grid_weights(grid)

    monkeypatch.setattr(instance, "_grid_weights", counted)
    rng = random.Random(61)
    inst = random_convex_instance(rng, n_min=4, n_max=7)
    mech = expand_common_lottery(inst, CommonLottery(c=random_feasible_lottery(rng, inst.n)))
    assert verify_decomposition(inst, mech).residual == 0
    mu_coefficients(inst)
    lpsolve._ic_prices(inst, F(1))
    solve_designer(_with_mass(inst, inst.d * 2), Fill())
    assert calls == [inst._grid]
    twin = new_instance(inst.n, list(inst.f), list(inst.g), inst.d)
    mu_coefficients(twin)
    assert calls == [inst._grid, twin._grid] and calls[1] is not calls[0]
    wscale, up, rows = inst._grid.weights
    local_up, row_weights = _grid_weights(inst._grid)
    assert [F(v, wscale) for v in up] == list(local_up)
    assert [F(v, wscale) for v in rows] == list(row_weights)
