import random
import re
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, strategies as st

from lotbench import (
    Instance,
    Linear,
    LotbenchError,
    OrdinalInstance,
    SeparableConcave,
    UnevenGridView,
    convexity_report,
    new_instance,
    uniform_instance,
)


def test_grid_points_are_exact():
    inst = uniform_instance(4)
    assert [inst.x(k) for k in range(4)] == [
        Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1),
    ]
    # x_k is also theta_k, the outside option of type k
    assert inst.x(2) == Fraction(2, 3)


def test_cdf_values():
    inst = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)
    assert [inst.cdf(i) for i in range(3)] == [
        Fraction(1, 3), Fraction(5, 12), Fraction(1),
    ]


def test_cdf_matches_the_fraction_sums():
    rng = random.Random(2030)
    for trial in range(400):
        n = rng.randint(2, 24)
        weights = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 7, 10**20))) for _ in range(n)]
        f = tuple(w / sum(weights) for w in weights)
        g = [0] * n
        g[rng.randrange(n)] = 1  # int entries are exact too
        inst = Instance(n=n, f=f, g=tuple(g), d=Fraction(1))
        expected, run = [], Fraction(0)
        for fi in f:
            run += fi
            expected.append(run)
        assert inst._cdf == tuple(expected)
        assert all(type(v) is Fraction for v in inst._cdf)
        # off by the smallest step from a sum of 1, in f or in g
        bent = f[:-1] + (f[-1] + Fraction(1, 10**30),)
        with pytest.raises(LotbenchError, match="f and g must each sum to 1"):
            Instance(n=n, f=bent, g=tuple(g), d=Fraction(1))
        with pytest.raises(LotbenchError, match="f and g must each sum to 1"):
            Instance(n=n, f=f, g=tuple(g[:-1]) + (g[-1] + Fraction(1, 10**30),), d=Fraction(1))


def test_index_bounds():
    inst = uniform_instance(3)
    with pytest.raises(LotbenchError, match="index 3 out of range for N=3"):
        inst.x(3)
    with pytest.raises(LotbenchError, match="index -1 out of range for N=3"):
        inst.cdf(-1)


def test_validation_errors():
    q = Fraction(1, 4)
    with pytest.raises(LotbenchError, match="need N >= 2, got 1"):
        Instance(n=1, f=(Fraction(1),), g=(Fraction(1),), d=Fraction(1))
    with pytest.raises(LotbenchError, match="type pmf must have full support"):
        Instance(n=2, f=(Fraction(0), Fraction(1)), g=(q * 2, q * 2), d=Fraction(1))
    with pytest.raises(LotbenchError, match="f and g must each sum to 1"):
        Instance(n=2, f=(q, q), g=(q * 2, q * 2), d=Fraction(1))
    with pytest.raises(LotbenchError, match="position capacities must be >= 0"):
        Instance(n=2, f=(q * 2, q * 2), g=(Fraction(-1, 2), Fraction(3, 2)), d=Fraction(1))
    with pytest.raises(LotbenchError, match="agent mass must be positive, got 0"):
        uniform_instance(3, 0)
    with pytest.raises(LotbenchError, match="f and g must have length 3, got 2 and 3"):
        new_instance(3, ["1/2", "1/2"], ["1/2", "1/2", "0"], 1)


def test_floats_rejected():
    with pytest.raises(ValueError):
        new_instance(2, [0.5, 0.5], ["1/2", "1/2"], 1)


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("f", (0.25, 0.25, 0.5), "f entries must be Fraction or int, got 0.25"),
        ("g", (Fraction(1, 2), numpy.float64(0.25), Fraction(1, 4)), "g entries must be"),
        ("d", 1.5, "D entries must be Fraction or int, got 1.5"),
        ("d", True, "D entries must be Fraction or int, got True"),
    ],
    ids=["f", "g", "d", "bool-d"],
)
def test_inexact_entries_rejected(field, value, shown):
    exact = dict(
        n=3,
        f=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        g=(Fraction(1, 3),) * 3,
        d=Fraction(3, 2),
    )
    Instance(**exact)
    with pytest.raises(LotbenchError, match=shown):
        Instance(**{**exact, field: value})


HALF = Fraction(1, 2)
# exact arguments of the other constructors that take rationals; one
# entry of the named field is replaced by an inexact value
EXACT_INPUTS = {
    Linear: dict(weights=(Fraction(1), Fraction(0), Fraction(2))),
    SeparableConcave: dict(weights=(Fraction(1), Fraction(2)), rho=HALF),
    OrdinalInstance: dict(
        qualities=(Fraction(0), Fraction(1)),
        gamma_labels=("a",),
        gamma_pmf=(Fraction(1),),
        outside_pmf=(HALF, HALF),
        utility=((Fraction(0), Fraction(1)),),
        g=(HALF, HALF),
        d=Fraction(1),
    ),
    UnevenGridView: dict(x=(Fraction(0), Fraction(1)), F=(HALF, Fraction(1))),
}


@pytest.mark.parametrize(
    "make, field",
    [
        (Linear, "weights"),
        (SeparableConcave, "weights"),
        (SeparableConcave, "rho"),
        (OrdinalInstance, "qualities"),
        (OrdinalInstance, "gamma_pmf"),
        (OrdinalInstance, "utility"),
        (UnevenGridView, "x"),
        (UnevenGridView, "F"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
@pytest.mark.parametrize(
    "bad",
    [0.5, True, numpy.float64(0.5), "1/2"],
    ids=["float", "bool", "numpy-float64", "str"],
)
def test_inexact_inputs_of_other_constructors_rejected(make, field, bad):
    exact = EXACT_INPUTS[make]
    make(**exact)
    if field == "utility":
        value = ((exact["utility"][0][0], bad),)
    elif field == "rho":
        value = bad
    else:
        value = (*exact[field][:-1], bad)
    shown = f"{field} entries must be Fraction or int, got {re.escape(repr(bad))}$"
    with pytest.raises(LotbenchError, match=shown):
        make(**{**exact, field: value})


@pytest.mark.parametrize("n", [2.9, True, "2"])
def test_non_integer_n_rejected(n):
    with pytest.raises(LotbenchError, match="n must be an integer"):
        new_instance(n, ["1/2", "1/2"], ["1/2", "1/2"], 1)


def test_json_round_trip():
    inst = new_instance(3, ["1/3", "1/12", "7/12"], ["0", "1/2", "1/2"], "3/2")
    assert Instance.from_json_dict(inst.to_json_dict()) == inst


def test_convexity_uniform():
    report = convexity_report(uniform_instance(4))
    assert report.is_convex and report.is_strictly_convex
    assert report.violation_indices == ()
    # F = (1/4, 1/2, 3/4, 1) gives second differences (4/3, 1/3)
    assert report.second_differences == (Fraction(4, 3), Fraction(1, 3))


def test_convexity_violation():
    inst = new_instance(3, ["1/3", "1/12", "7/12"], ["1/3", "1/3", "1/3"], 1)
    report = convexity_report(inst)
    assert report.second_differences == (Fraction(-4, 5),)
    assert not report.is_convex
    assert report.violation_indices == (1,)


def test_convexity_vacuous_for_two_types():
    report = convexity_report(uniform_instance(2))
    assert report.is_convex and report.second_differences == ()


@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=3, max_size=9)
)
def test_non_increasing_pmf_is_convex(weights):
    weights = sorted(weights, reverse=True)
    total = sum(weights)
    f = tuple(Fraction(w, total) for w in weights)
    n = len(weights)
    inst = Instance(n=n, f=f, g=(Fraction(1, n),) * n, d=Fraction(1))
    assert convexity_report(inst).is_convex
