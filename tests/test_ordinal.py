import random
from fractions import Fraction

import pytest

from lotbench import (
    CommonLottery,
    ConvexityHypothesisFailed,
    Fill,
    Instance,
    Linear,
    LotbenchError,
    OrdinalInstance,
    UnevenGridView,
    aggregate_per_gamma,
    auto_improve,
    convexity_report,
    lottery_from_masses,
    masses_over_qualities,
    normalize_gamma,
    optimal_common_lottery_ordinal,
    optimal_lottery_fill,
    optimal_masses,
    uneven_mu_coefficients,
    uniform_instance,
)

from util import (
    grid_of,
    random_convex_instance,
    random_feasible_lottery,
    random_instance,
    random_pmf,
)

F = Fraction


def make_ordinal(qualities, labels, h_gamma, h_q, utility, g, d):
    return OrdinalInstance(
        qualities=tuple(F(q) for q in qualities),
        gamma_labels=tuple(labels),
        gamma_pmf=tuple(F(h) for h in h_gamma),
        outside_pmf=tuple(F(h) for h in h_q),
        utility=tuple(tuple(F(u) for u in row) for row in utility),
        g=tuple(F(gk) for gk in g),
        d=F(d),
    )


def one_taste(x, cdf):
    """The view of `normalize_gamma` on the grid x (N >= 2 points) with cdf
    F, through a one-taste ordinal instance."""
    n = len(x)
    pmf = [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])]
    return normalize_gamma(make_ordinal(range(n), ["t"], [1], pmf, [x], [F(1, n)] * n, 1), "t")


LINEAR4 = make_ordinal(
    qualities=[0, F(1, 3), F(2, 3), 1],
    labels=["lin"],
    h_gamma=[1],
    h_q=[F(1, 4)] * 4,
    utility=[[0, F(1, 3), F(2, 3), 1]],
    g=[F(1, 4)] * 4,
    d=1,
)


def test_validation():
    with pytest.raises(LotbenchError, match="qualities must be strictly increasing"):
        make_ordinal([0, 0], ["a"], [1], [F(1, 2)] * 2, [[0, 1]], [F(1, 2)] * 2, 1)
    with pytest.raises(LotbenchError, match="taste labels must be distinct"):
        make_ordinal([0, 1], ["a", "a"], [F(1, 2)] * 2, [F(1, 2)] * 2,
                     [[0, 1], [0, 2]], [F(1, 2)] * 2, 1)
    with pytest.raises(LotbenchError, match="utility rows must be strictly increasing"):
        # utility row not strictly increasing
        make_ordinal([0, 1], ["a"], [1], [F(1, 2)] * 2, [[1, 0]], [F(1, 2)] * 2, 1)
    with pytest.raises(LotbenchError, match="taste labels and pmf must align"):
        make_ordinal([0, 1], ["a", "b"], [1], [F(1, 2)] * 2, [[0, 1]] * 2, [F(1, 2)] * 2, 1)
    with pytest.raises(LotbenchError, match="taste labels and pmf must align and be nonempty"):
        make_ordinal([0, 1], [], [], [F(1, 2)] * 2, [], [F(1, 2)] * 2, 1)
    for h_gamma in ([F(1, 2), F(1, 4)], [F(3, 2), F(-1, 2)]):
        with pytest.raises(LotbenchError, match="taste pmf must be nonnegative and sum to 1"):
            make_ordinal([0, 1], ["a", "b"], h_gamma, [F(1, 2)] * 2, [[0, 1]] * 2,
                         [F(1, 2)] * 2, 1)
    with pytest.raises(LotbenchError, match="one utility row per taste is required"):
        make_ordinal([0, 1], ["a", "b"], [F(1, 2)] * 2, [F(1, 2)] * 2, [[0, 1]],
                     [F(1, 2)] * 2, 1)
    with pytest.raises(LotbenchError, match="utility rows must have length N"):
        make_ordinal([0, 1], ["a"], [1], [F(1, 2)] * 2, [[0, 1, 2]], [F(1, 2)] * 2, 1)


def test_json_round_trip():
    # the document that benchmarks/gen.py digests reads back to the instance
    doc = LINEAR4.to_json_dict()
    assert doc == {
        "Q": ["0", "1/3", "2/3", "1"], "Gamma": ["lin"], "hGamma": ["1"], "hQ": ["1/4"] * 4,
        "u": [["0", "1/3", "2/3", "1"]], "g": ["1/4"] * 4, "D": "1",
    }
    keys = ("Q", "Gamma", "hGamma", "hQ", "u", "g", "D")
    assert make_ordinal(*(doc[key] for key in keys)) == LINEAR4


def test_even_grid_view_matches_baseline():
    inst = uniform_instance(4)
    view = one_taste(tuple(inst.x(k) for k in range(4)), tuple(inst.cdf(k) for k in range(4)))
    base = convexity_report(inst)
    uneven = convexity_report(view)
    assert uneven.is_convex == base.is_convex
    # spacing 1/(N-1) scales every second difference by (N-1)
    assert uneven.second_differences == tuple(
        d / (inst.n - 1) for d in base.second_differences
    )


def test_uneven_mu_closed_forms():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 7)
        pts = sorted(rng.sample(range(0, 60), n))
        x = tuple(F(p, 7) for p in pts)
        pmf = random_pmf(rng, n)
        cdf = []
        run = F(0)
        for p in pmf:
            run += p
            cdf.append(run)
        uneven_mu_coefficients(one_taste(x, tuple(cdf)))


def test_monotone_rescaling_preserves_convexity():
    # squaring the grid (0, 1, 2) -> (0, 1, 4) keeps 1/F convex under a
    # uniform outside-option distribution
    h = (F(1, 3), F(1, 3), F(1, 3))
    cdf = (F(1, 3), F(2, 3), F(1))
    before = one_taste((F(0), F(1), F(2)), cdf)
    after = one_taste((F(0), F(1), F(4)), cdf)
    assert convexity_report(before).is_convex
    assert convexity_report(after).is_convex


def test_normalize_gamma():
    view = normalize_gamma(LINEAR4, "lin")
    assert view.x == LINEAR4.utility[0]
    assert view.F == tuple(LINEAR4.cdf(k) for k in range(4))
    with pytest.raises(LotbenchError, match="unknown taste label 'nope'"):
        normalize_gamma(LINEAR4, "nope")


def test_singleton_gamma_matches_baseline():
    inst = uniform_instance(4)
    cl = optimal_lottery_fill(inst).lottery
    ordinal_cl = optimal_common_lottery(LINEAR4)
    assert ordinal_cl.c == cl.c


def optimal_common_lottery(oi):
    from lotbench import optimal_common_lottery_ordinal

    return optimal_common_lottery_ordinal(oi, Fill())


def test_two_tastes_share_one_lottery():
    oi = make_ordinal(
        qualities=[0, F(1, 3), F(2, 3), 1],
        labels=["lin", "convex"],
        h_gamma=[F(1, 2), F(1, 2)],
        h_q=[F(1, 4)] * 4,
        utility=[
            [0, F(1, 3), F(2, 3), 1],
            [0, F(1, 9), F(4, 9), 1],
        ],
        g=[F(1, 4)] * 4,
        d=1,
    )
    cl = optimal_common_lottery(oi)
    # the solution only uses the shared cdf, so it matches the baseline
    assert cl.c == (F(0), F(5, 12), F(1, 3), F(1, 4))


def test_convexity_hypothesis_failure_names_labels():
    oi = make_ordinal(
        qualities=[0, 1, 2],
        labels=["ok", "bad"],
        h_gamma=[F(1, 2), F(1, 2)],
        h_q=[F(1, 3), F(1, 12), F(7, 12)],
        utility=[
            [0, 1, 100],  # huge last gap keeps the bracket positive
            [0, 1, 2],
        ],
        g=[F(1, 3)] * 3,
        d=1,
    )
    with pytest.raises(ConvexityHypothesisFailed) as exc:
        optimal_common_lottery(oi)
    assert "bad" in exc.value.failing
    assert "ok" not in exc.value.failing
    # a malformed objective is refused before any taste's verdict is read
    with pytest.raises(LotbenchError, match="objective has 2 weights, instance has N=3"):
        optimal_common_lottery_ordinal(oi, Linear(weights=(F(1), F(1))))


def test_aggregate_per_gamma():
    oi = make_ordinal(
        qualities=[0, F(1, 2), 1],
        labels=["a", "b"],
        h_gamma=[F(1, 4), F(3, 4)],
        h_q=[F(1, 3)] * 3,
        utility=[[0, F(1, 2), 1], [0, F(1, 4), 1]],
        g=[F(1, 3)] * 3,
        d=1,
    )
    la = CommonLottery.from_values(["0", "1/2", "1/2"])
    lb = CommonLottery.from_values(["1/3", "1/3", "1/3"])
    mix = aggregate_per_gamma(oi, {"a": la, "b": lb})
    assert mix.c == (F(1, 4), F(3, 8), F(3, 8))
    # masses mix the same way
    ma, mb = masses_over_qualities(oi, la), masses_over_qualities(oi, lb)
    mm = masses_over_qualities(oi, mix)
    assert mm.s == tuple(
        F(1, 4) * sa + F(3, 4) * sb for sa, sb in zip(ma.s, mb.s)
    )
    with pytest.raises(LotbenchError, match="missing lottery for taste 'b'"):
        aggregate_per_gamma(oi, {"a": la})
    with pytest.raises(LotbenchError, match="lottery for taste 'b' has length 2, need 3"):
        aggregate_per_gamma(oi, {"a": la, "b": CommonLottery.from_values(["1", "1"])})


def test_aggregation_mass_preservation_randomized():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_convex_instance(rng, n_min=2, n_max=6)
        n = inst.n
        labels = ["g0", "g1", "g2"]
        oi = OrdinalInstance(
            qualities=tuple(F(k) for k in range(n)),
            gamma_labels=tuple(labels),
            gamma_pmf=random_pmf(rng, 3),
            outside_pmf=inst.f,
            utility=tuple(
                tuple(F(k) * scale for k in range(n))
                for scale in (F(rng.randint(1, 5)) for _ in labels)
            ),
            g=inst.g,
            d=inst.d,
        )
        per = {
            lab: CommonLottery(c=random_feasible_lottery(rng, n))
            for lab in labels
        }
        mix = aggregate_per_gamma(oi, per)
        assert mix.total() <= 1
        mm = masses_over_qualities(oi, mix)
        expected = [F(0)] * n
        for lab, w in zip(oi.gamma_labels, oi.gamma_pmf):
            s = masses_over_qualities(oi, per[lab]).s
            for k in range(n):
                expected[k] += w * s[k]
        assert mm.s == tuple(expected)


def _random_ordinal(rng):
    """1-4 tastes with random increasing utility rows over a random pmf,
    so that some tastes' grids are convex and some are not."""
    n = rng.randint(2, 8)
    labels = tuple(f"t{k}" for k in range(rng.randint(1, 4)))
    rows = []
    for _ in labels:
        steps = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n - 1)]
        rows.append(tuple(F(sum(steps[:k])) for k in range(n)))
    return OrdinalInstance(
        qualities=tuple(F(k) for k in range(n)),
        gamma_labels=labels,
        gamma_pmf=random_pmf(rng, len(labels)),
        outside_pmf=random_pmf(rng, n),
        utility=tuple(rows),
        g=random_pmf(rng, n, full_support=False),
        d=F(rng.randint(1, 8), rng.randint(1, 4)),
    )


def _convex_along(x, cdf):
    """1/F convex along the grid x: its slopes never fall."""
    slopes = [(1 / cdf[i + 1] - 1 / cdf[i]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
    return all(a <= b for a, b in zip(slopes, slopes[1:]))


def test_views_share_the_cached_grid_of_each_taste():
    rng = random.Random(47)
    for _ in range(150):
        oi = _random_ordinal(rng)
        before = (repr(oi), hash(oi))
        for index, label in enumerate(oi.gamma_labels):
            view = normalize_gamma(oi, label)
            x, cdf = oi.utility[index], tuple(oi.cdf(k) for k in range(oi.n))
            reference = UnevenGridView(x=x, F=cdf, _grid=grid_of(x, cdf))
            assert view == reference and hash(view) == hash(reference)
            assert repr(view) == repr(reference)
            assert view._grid is oi._grids[index] and view._grid == reference._grid
            assert convexity_report(view) == convexity_report(reference)
            assert uneven_mu_coefficients(view) == uneven_mu_coefficients(reference)
        assert (repr(oi), hash(oi)) == before


def test_failing_tastes_are_the_non_convex_grids():
    rng = random.Random(59)
    seen = {"all convex": 0, "some fail": 0}
    for _ in range(300):
        oi = _random_ordinal(rng)
        cdf = [oi.cdf(k) for k in range(oi.n)]
        failing = [
            label for label, row in zip(oi.gamma_labels, oi.utility)
            if not _convex_along(row, cdf)
        ]
        if failing:
            with pytest.raises(ConvexityHypothesisFailed) as exc:
                optimal_common_lottery(oi)
            assert exc.value.failing == failing
            seen["some fail"] += 1
        else:
            base = Instance(n=oi.n, f=oi.outside_pmf, g=oi.g, d=oi.d)
            assert optimal_common_lottery(oi) == optimal_lottery_fill(base).lottery
            seen["all convex"] += 1
    assert min(seen.values()) >= 60, seen


def test_empty_grid_rejected():
    # a taste's grid comes from a checked ordinal instance, which needs
    # N >= 2: neither an empty nor a one-point grid has a view
    for points in ([], [0]):
        with pytest.raises(LotbenchError, match=f"need N >= 2, got {len(points)}"):
            make_ordinal(points, ["a"], [1], [1] * len(points), [points], [1] * len(points), 1)


def test_every_taste_grid_shares_the_baseline_cdf_ints():
    rng = random.Random(29)
    for _ in range(100):
        oi = _random_ordinal(rng)
        base = oi._baseline._grid
        for grid in oi._grids:
            assert grid.ps is base.ps and grid.fscale == base.fscale
            assert grid.pmf == base.pmf
        assert tuple(F(p, base.fscale) for p in base.pmf) == oi.outside_pmf


def test_one_convexity_verdict_everywhere():
    # the report, the optimum's warning, the improvement search and the
    # ordinal optimum on the even grid all read the one verdict of the grid
    rng = random.Random(2029)
    seen = {"convex": 0, "non-convex": 0}
    for _ in range(200):
        inst = random_instance(rng, n_min=3, n_max=9)
        violations = convexity_report(inst).violation_indices
        best = optimal_masses(inst, Fill())
        assert best.convexity_warning == bool(violations)
        assert (auto_improve(inst, search_d=False)[1] == "convex") == (not violations)
        oi = OrdinalInstance(
            qualities=tuple(F(k) for k in range(inst.n)),
            gamma_labels=("even",),
            gamma_pmf=(F(1),),
            outside_pmf=inst.f,
            utility=(tuple(F(k, inst.n - 1) for k in range(inst.n)),),
            g=inst.g,
            d=inst.d,
        )
        if violations:
            with pytest.raises(ConvexityHypothesisFailed) as exc:
                optimal_common_lottery_ordinal(oi, Fill())
            assert exc.value.failing == ["even"]
            seen["non-convex"] += 1
        else:
            lottery = optimal_common_lottery_ordinal(oi, Fill())
            assert lottery == lottery_from_masses(inst, best.masses)
            seen["convex"] += 1
    assert min(seen.values()) >= 20, seen
