"""Shared randomized-instance builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from lotbench import DirectMechanism, Instance, build_designer_lp, simplex_solve


def random_pmf(rng: random.Random, n: int, full_support: bool = True):
    lo = 1 if full_support else 0
    weights = [rng.randint(lo, 9) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_convex_instance(rng: random.Random, n_min=3, n_max=8) -> Instance:
    """Non-increasing type pmf, which makes 1/F discretely convex."""
    n = rng.randint(n_min, n_max)
    weights = sorted((rng.randint(1, 9) for _ in range(n)), reverse=True)
    total = sum(weights)
    f = tuple(Fraction(w, total) for w in weights)
    g = random_pmf(rng, n, full_support=False)
    d = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return Instance(n=n, f=f, g=g, d=d)


def random_instance(rng: random.Random, n_min=2, n_max=8) -> Instance:
    n = rng.randint(n_min, n_max)
    return Instance(
        n=n,
        f=random_pmf(rng, n),
        g=random_pmf(rng, n, full_support=False),
        d=Fraction(rng.randint(1, 8), rng.randint(1, 4)),
    )


def random_supported_matrix(rng: random.Random, n: int) -> DirectMechanism:
    """Arbitrary cell values in [0, 1] on the acceptable support."""
    rows = tuple(
        tuple(
            Fraction(rng.randint(0, 24), 24) if i <= k else Fraction(0)
            for i in range(n)
        )
        for k in range(n)
    )
    return DirectMechanism(a=rows)


def random_raw_matrix(rng: random.Random, n: int) -> DirectMechanism:
    """Cells in [-1, 1] everywhere, above the diagonal included, over
    denominators chosen per cell, so that their common denominator is
    large."""
    dens = (1, 2, 3, 7, 12, 25, 97, 101, 128, 1009)
    return DirectMechanism(a=tuple(
        tuple(Fraction(rng.randint(-d, d), d) for d in (rng.choice(dens) for _ in range(n)))
        for _ in range(n)
    ))


def reference_second_differences(x, cdf):
    """The spacing-weighted second differences of 1/F, three divisions each."""
    return tuple(
        (x[i + 1] - x[i]) / cdf[i - 1]
        - (x[i + 1] - x[i - 1]) / cdf[i]
        + (x[i] - x[i - 1]) / cdf[i + 1]
        for i in range(1, len(x) - 1)
    )


def reference_weights(x, cdf):
    """The decomposition's multipliers from their closed forms, on an
    increasing grid x with cdf F: (up, down) with
    up[i] = f_{i+1} / (F_{i+1} (x_{i+1} - x_i)) and, for j < i,
    down[i][j] = f_j d2_i / ((x_{i+1} - x_i)(x_i - x_{i-1})), d2 the
    second differences of 1/F; the rows of i = 0 and i = N-1 are zero."""
    n = len(x)
    f = [cdf[0]] + [cdf[i] - cdf[i - 1] for i in range(1, n)]
    up = tuple(f[i + 1] / (cdf[i + 1] * (x[i + 1] - x[i])) for i in range(n - 1))
    rows = [Fraction(0)] * n
    for i, d2 in enumerate(reference_second_differences(x, cdf), start=1):
        rows[i] = d2 / ((x[i + 1] - x[i]) * (x[i] - x[i - 1]))
    down = tuple(tuple(f[j] * rows[i] for j in range(i)) for i in range(n))
    return up, down


def random_feasible_lottery(rng: random.Random, n: int):
    """Nonnegative offer vector with total at most one."""
    raw = [Fraction(rng.randint(0, 9)) for _ in range(n)]
    total = sum(raw)
    denom = rng.randint(max(1, int(total)), int(total) + 9) if total else 1
    return tuple(v / denom for v in raw)


def simplex_vertex(inst: Instance, obj):
    """The simplex's optimal vertex of the designer LP, as a mechanism, and
    its value: an LP answer found without the closed form (where the common
    lottery certifies, `solve_designer` returns that lottery instead)."""
    sol = simplex_solve(build_designer_lp(inst, obj))
    assert sol.status == "optimal"
    mech = DirectMechanism(a=tuple(
        tuple(sol.primal.get(f"a[{k}][{i}]", Fraction(0)) for i in range(inst.n))
        for k in range(inst.n)
    ))
    return mech, sol.objective
