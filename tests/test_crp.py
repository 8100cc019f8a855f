import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lotbench import (
    CommonLottery,
    Instance,
    LotbenchError,
    PositionMasses,
    caps_from_lottery,
    continuum_crp,
    expand_common_lottery,
    new_instance,
    optimal_lottery_fill,
    simulate_finite,
    uniform_instance,
)

from lotbench import crp
from lotbench.crp import _guide_table, _lookup_types
from util import random_convex_instance, random_feasible_lottery, random_instance, random_pmf

F = Fraction
U4 = uniform_instance(4)
OPT = CommonLottery.from_values(["0", "5/12", "1/3", "1/4"])


def test_continuum_thresholds_uniform():
    result = continuum_crp(U4, caps_from_lottery(U4, OPT))
    cutoffs = [t.cutoff for t in result.thresholds]
    assert cutoffs == [F(1, 4), F(7, 12), F(1)]
    assert [t.position for t in result.thresholds] == [3, 2, 1]
    assert all(t.position_exhausted for t in result.thresholds)


def test_continuum_reproduces_lottery():
    result = continuum_crp(U4, caps_from_lottery(U4, OPT))
    assert result.allocation.a == expand_common_lottery(U4, OPT).a


def test_round_trip_randomized():
    rng = random.Random(31)
    for _ in range(100):
        inst = random_convex_instance(rng, n_min=2, n_max=7)
        fill = optimal_lottery_fill(inst).lottery
        caps = caps_from_lottery(inst, fill)
        result = continuum_crp(inst, caps)
        assert result.allocation.a == expand_common_lottery(inst, fill).a


def test_agents_run_out_mid_position():
    inst = new_instance(3, ["1/3", "1/3", "1/3"], ["0", "1/2", "1/2"], "1/4")
    caps = PositionMasses.from_values(["0", "1/2", "1/2"])
    result = continuum_crp(inst, caps)
    # the top position alone needs 1/2 of agent mass but only 1/4 exists
    assert len(result.thresholds) == 1
    top = result.thresholds[0]
    assert top.position == 2 and not top.position_exhausted
    assert result.allocation.a[2] == (F(1), F(1), F(1))
    assert result.allocation.a[1] == (F(0), F(0), F(0))


def test_exact_tie_counts_as_exhausted():
    inst = new_instance(2, ["1/2", "1/2"], ["1/2", "1/2"], "1/2")
    result = continuum_crp(inst, PositionMasses.from_values(["0", "1/2"]))
    assert result.thresholds[0].position_exhausted


def test_caps_validation():
    with pytest.raises(LotbenchError, match="caps length must equal N"):
        continuum_crp(U4, PositionMasses.from_values(["0", "0", "0"]))
    with pytest.raises(LotbenchError, match="cap at position 1 is negative"):
        continuum_crp(U4, PositionMasses.from_values(["0", "-1/8", "0", "0"]))
    with pytest.raises(LotbenchError, match="cap 1/2 at position 1 exceeds capacity 1/4"):
        continuum_crp(U4, PositionMasses.from_values(["0", "1/2", "0", "0"]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: continuum_crp(U4, PositionMasses(s=(F(0), 0.125, F(0), F(0)))), "caps"),
        (lambda: simulate_finite(U4, PositionMasses(s=(F(0), 0.125, F(0), F(0))), 10, 1, 1), "caps"),
        (lambda: caps_from_lottery(U4, CommonLottery(c=(F(0), F(5, 12), 0.125, F(1, 4)))), "lottery"),
    ],
    ids=["continuum_crp", "simulate_finite", "caps_from_lottery"],
)
def test_caps_and_lotteries_reject_float_entries(call, message):
    with pytest.raises(LotbenchError, match=f"{message} entries must be Fraction or int, got 0.125"):
        call()


def test_simulation_validation():
    caps = caps_from_lottery(U4, OPT)
    with pytest.raises(LotbenchError, match="need at least one agent, got 0"):
        simulate_finite(U4, caps, 0, 5, 1)
    with pytest.raises(LotbenchError, match="need at least one replication, got 0"):
        simulate_finite(U4, caps, 100, 0, 1)
    # bounded before any array or seed stream is built
    with pytest.raises(LotbenchError, match="need at most 1000000 agents"):
        simulate_finite(U4, caps, 10**15, 1, 1)
    with pytest.raises(LotbenchError, match="need at most 10000 replications"):
        simulate_finite(U4, caps, 1, 10**4 + 1, 1)
    # a seed numpy would refuse, or one that is no int, is named before any
    # stream is built
    for seed in (-1, -(2**70), 1.0, True, "1"):
        with pytest.raises(LotbenchError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            simulate_finite(U4, caps, 10, 1, seed)
    # so is a size that is no int, or a bool, which numpy would take as 1
    for size in (4000.0, True, False, "10", None, np.int64(10)):
        with pytest.raises(LotbenchError, match=f"n_agents must be an integer, got {re.escape(repr(size))}"):
            simulate_finite(U4, caps, size, 1, 1)
        with pytest.raises(LotbenchError, match=f"replications must be an integer, got {re.escape(repr(size))}"):
            simulate_finite(U4, caps, 10, size, 1)


@pytest.mark.parametrize(
    "caps, message",
    [
        (["0", "1/8", "1/8"], "caps length must equal N"),
        (["0", "1/8", "1/8", "1/8", "1/8"], "caps length must equal N"),
        (["0", "1/2", "0", "0"], "cap 1/2 at position 1 exceeds capacity 1/4"),
    ],
    ids=["short", "long", "above-capacity"],
)
def test_simulation_checks_caps_like_the_scan(caps, message):
    caps = PositionMasses.from_values(caps)
    with pytest.raises(LotbenchError, match=message):
        continuum_crp(U4, caps)
    with pytest.raises(LotbenchError, match=message):
        simulate_finite(U4, caps, 100, 1, 1)


def test_simulation_reproducible_and_close():
    caps = caps_from_lottery(U4, OPT)
    sim = simulate_finite(U4, caps, n_agents=20000, replications=10, seed=7)
    again = simulate_finite(U4, caps, n_agents=20000, replications=10, seed=7)
    assert np.array_equal(sim.counts, again.counts)
    assert sim.quotas == (0, 4166, 5000, 5000)
    expected = expand_common_lottery(U4, OPT)
    for k in range(4):
        for i in range(4):
            target = float(expected.a[k][i])
            se = max(sim.stderr[k][i], 1e-9)
            assert abs(sim.empirical[k][i] - target) < 5 * se or (
                abs(sim.empirical[k][i] - target) < 2e-3
            )


def test_simulation_error_shrinks_with_market_size():
    caps = caps_from_lottery(U4, OPT)
    expected = np.array([[float(v) for v in row] for row in expand_common_lottery(U4, OPT).a])

    def max_err(n):
        sim = simulate_finite(U4, caps, n_agents=n, replications=20, seed=3)
        return float(np.max(np.abs(sim.empirical - expected)))

    errs = [max_err(n) for n in (1000, 10000, 100000)]
    assert errs[2] < errs[0]


def test_random_lotteries_round_trip():
    rng = random.Random(37)
    for _ in range(40):
        inst = random_convex_instance(rng, n_min=2, n_max=6)
        fill = optimal_lottery_fill(inst).lottery
        # scale down so caps stay within capacity for any instance
        cl = CommonLottery(c=tuple(ck / 2 for ck in fill.c))
        caps = caps_from_lottery(inst, cl)
        result = continuum_crp(inst, caps)
        assert result.allocation.a == expand_common_lottery(inst, cl).a


def _reference_scan(inst, caps):
    """The priority scan written cell by cell: each position with a cap
    takes the next cap/F of agent mass, or what is left of it."""
    n = inst.n
    rows = [[F(0)] * n for _ in range(n)]
    thresholds = []
    consumed = F(0)
    step = 0
    for k in range(n - 1, -1, -1):
        if caps.s[k] == 0:
            continue
        step += 1
        need = caps.s[k] / inst.cdf(k)
        remaining = inst.d - consumed
        if need <= remaining:
            prob = caps.s[k] / (inst.d * inst.cdf(k))
            consumed += need
            exhausted = True
        else:
            prob = remaining / inst.d
            consumed = inst.d
            exhausted = False
        for i in range(k + 1):
            rows[k][i] = prob
        thresholds.append((step, k, consumed, exhausted))
        if consumed == inst.d:
            break
    return thresholds, tuple(tuple(r) for r in rows)


def test_scan_matches_the_cell_by_cell_reference():
    rng = random.Random(41)
    kinds = {"mid-position": 0, "tie": 0, "zero": 0}
    for trial in range(360):
        inst = random_instance(rng, n_min=2, n_max=8)
        caps = []
        for gk in inst.g:
            r = rng.random()
            caps.append(F(0) if r < 0.25 else gk if r < 0.5 else gk * F(rng.randint(0, 6), 6))
        caps = PositionMasses(s=tuple(caps))
        scan = [k for k in range(inst.n - 1, -1, -1) if caps.s[k] != 0]
        if scan and trial % 3 == 0:
            # an agent mass that runs out exactly at the end of a position
            stop = rng.randrange(len(scan))
            d = sum(caps.s[k] / inst.cdf(k) for k in scan[: stop + 1])
            inst = Instance(n=inst.n, f=inst.f, g=inst.g, d=d)
        expected_thresholds, expected_rows = _reference_scan(inst, caps)
        result = continuum_crp(inst, caps)
        got = [(t.step, t.position, t.cutoff, t.position_exhausted) for t in result.thresholds]
        assert got == expected_thresholds
        assert result.allocation.a == expected_rows
        kinds["mid-position"] += any(not t.position_exhausted for t in result.thresholds)
        kinds["tie"] += bool(got) and got[-1][3] and got[-1][2] == inst.d
        kinds["zero"] += len(scan) < inst.n
    assert min(kinds.values()) >= 30, kinds


def _reference_simulation(inst, caps, n_agents, replications, seed):
    """The Monte Carlo as a masked scan over all agents, with quotas and
    cdf from Fractions: (counts, type_totals, quotas)."""
    n = inst.n
    quotas = tuple(int(n_agents * sk / inst.d) for sk in caps.s)
    cdf = np.array([float(inst.cdf(i)) for i in range(n)])
    counts = np.zeros((n, n), dtype=np.int64)
    type_totals = np.zeros(n, dtype=np.int64)
    for stream in np.random.SeedSequence(seed).spawn(replications):
        rng = np.random.default_rng(stream)
        types = np.searchsorted(cdf, rng.random(n_agents), side="right")
        type_totals += np.bincount(types, minlength=n)
        unassigned = np.ones(n_agents, dtype=bool)
        for k in range(n - 1, -1, -1):
            if quotas[k] == 0:
                continue
            eligible = np.flatnonzero(unassigned & (types <= k))
            winners = eligible[: quotas[k]]
            if winners.size:
                unassigned[winners] = False
                counts[k] += np.bincount(types[winners], minlength=n)
    return counts, type_totals, quotas


def test_simulation_line_matches_the_masked_scan():
    """The shrinking line is the serial dictatorship of the masked scan,
    on the same random stream: identical counts, totals and quotas."""
    rng = random.Random(53)
    sizes = (1, 2, 7, 50, 4000)
    seen = {"zero quota": 0, "runs out": 0, "fills": 0}
    for trial in range(250):
        inst = random_instance(rng, n_min=2, n_max=10)
        d = inst.d if trial % 2 else F(rng.randint(1, 6), rng.randint(4, 12))
        inst = Instance(n=inst.n, f=inst.f, g=inst.g, d=d)
        caps = PositionMasses(s=tuple(
            F(0) if r < 0.2 else gk if r < 0.6 else gk * F(rng.randint(0, 5), 5)
            for gk, r in zip(inst.g, (rng.random() for _ in inst.g))
        ))
        n_agents, reps = sizes[trial % len(sizes)], rng.randint(1, 3)
        seed = rng.randrange(2**32)
        counts, totals, quotas = _reference_simulation(inst, caps, n_agents, reps, seed)
        sim = simulate_finite(inst, caps, n_agents, reps, seed)
        assert sim.quotas == quotas
        assert np.array_equal(sim.counts, counts) and sim.counts.dtype == counts.dtype
        assert np.array_equal(sim.type_totals, totals)
        filled = counts.sum(axis=1)
        seen["zero quota"] += 0 in quotas
        seen["runs out"] += any(0 < f < reps * q for f, q in zip(filled, quotas))
        seen["fills"] += any(f == reps * q > 0 for f, q in zip(filled, quotas))
    assert min(seen.values()) >= 30, seen


def test_simulation_cutoff_scan_branches_match_the_masked_scan(monkeypatch):
    """Each branch of the cutoff scan gives the masked scan's counts,
    totals and quotas: a first window of one agent, too short for its
    quota; a line that runs out in the middle of a position; quotas that
    sum to M (caps = g, D = 1); M = 1 at N = 2; and an F_k whose float is
    0.0, whose window is sized from the grid's ints."""
    rng = random.Random(67)
    first_window = crp._first_window
    seen = {"short window": 0, "runs out": 0, "quotas sum to M": 0, "M = 1, N = 2": 0, "F_k float 0.0": 0}
    for trial in range(200):
        case = trial % 4
        if case == 0:
            inst = random_instance(rng, n_min=2, n_max=10)
            caps = PositionMasses(s=tuple(gk * F(rng.randint(0, 5), 5) for gk in inst.g))
            n_agents = rng.choice((2, 7, 50, 400))
        elif case == 1:
            n = rng.randint(2, 10)
            weights = [rng.randint(0, 3) for _ in range(n - 1)] + [rng.randint(1, 3)]
            inst = Instance(n=n, f=random_pmf(rng, n), g=tuple(F(w, sum(weights)) for w in weights), d=F(1))
            caps = PositionMasses(s=inst.g)
            n_agents = sum(weights) * rng.randint(1, 50)
        elif case == 2:
            inst = Instance(n=2, f=random_pmf(rng, 2), g=random_pmf(rng, 2, full_support=False),
                            d=F(1, rng.randint(1, 4)))
            caps = PositionMasses(s=tuple(gk * F(rng.randint(0, 2), 2) for gk in inst.g))
            n_agents = 1
        else:
            n = rng.randint(2, 6)
            tiny = F(1, 10 ** rng.randint(330, 400))
            f = (tiny, *(w * (1 - tiny) for w in random_pmf(rng, n - 1)))
            inst = Instance(n=n, f=f, g=random_pmf(rng, n, full_support=False), d=F(rng.randint(1, 4), 4))
            caps = PositionMasses(s=tuple(gk * F(rng.randint(0, 4), 4) for gk in inst.g))
            n_agents = rng.choice((1, 50, 400))
        reps, seed = rng.randint(1, 3), rng.randrange(2**32)
        short = trial % 3 == 0
        monkeypatch.setattr(crp, "_first_window", (lambda *args: 1) if short else first_window)
        counts, totals, quotas = _reference_simulation(inst, caps, n_agents, reps, seed)
        sim = simulate_finite(inst, caps, n_agents, reps, seed)
        assert sim.quotas == quotas
        assert np.array_equal(sim.counts, counts)
        assert np.array_equal(sim.type_totals, totals)
        filled = counts.sum(axis=1)
        seen["short window"] += short and max(quotas) > 1
        seen["runs out"] += any(0 < f < reps * q for f, q in zip(filled, quotas))
        seen["quotas sum to M"] += case == 1 and sum(quotas) == n_agents
        seen["M = 1, N = 2"] += case == 2 and any(quotas)
        seen["F_k float 0.0"] += bool(inst._grid.float_cdf[0] == 0.0) and quotas[0] > 0
    assert min(seen.values()) >= 20, seen


def _dyadic_pmf(rng, n, bits):
    """A full-support pmf over 2**bits >= n, so every F_k is k' / 2**bits."""
    cuts = sorted(rng.sample(range(1, 2**bits), n - 1))
    ps = [0, *cuts, 2**bits]
    return tuple(F(b - a, 2**bits) for a, b in zip(ps, ps[1:]))


def test_simulation_line_matches_the_masked_scan_at_larger_n():
    """N = 20-80 with dyadic cdfs, whose F_k lie on the guide table's
    bucket edges: identical counts, totals and quotas to the masked scan."""
    rng = random.Random(59)
    sizes = (1, 3, 64, 4000)
    for trial in range(200):
        n = rng.randint(20, 80)
        f = _dyadic_pmf(rng, n, rng.randint(n.bit_length(), 12))
        d = F(rng.randint(1, 6), rng.randint(1, 12))
        inst = Instance(n=n, f=f, g=random_pmf(rng, n, full_support=False), d=d)
        caps = PositionMasses(s=tuple(
            F(0) if r < 0.2 else gk if r < 0.6 else gk * F(rng.randint(0, 5), 5)
            for gk, r in zip(inst.g, (rng.random() for _ in inst.g))
        ))
        n_agents, reps = sizes[trial % len(sizes)], rng.randint(1, 2)
        seed = rng.randrange(2**32)
        counts, totals, quotas = _reference_simulation(inst, caps, n_agents, reps, seed)
        sim = simulate_finite(inst, caps, n_agents, reps, seed)
        assert sim.quotas == quotas
        assert np.array_equal(sim.counts, counts)
        assert np.array_equal(sim.type_totals, totals)


def _edge_draws(cdf, buckets):
    """0.0, each F_k and its two float neighbours, and the bucket edges b/B
    around each F_k with their lower neighbours: every such u below 1."""
    points = [0.0]
    for fk in cdf:
        b = math.floor(fk * buckets)
        edges = (b / buckets, (b + 1) / buckets)
        points += [fk, np.nextafter(fk, 0), np.nextafter(fk, 2)]
        points += [*edges, *(np.nextafter(e, 0) for e in edges)]
    return np.array([u for u in points if 0 <= u < 1])


def test_guide_table_lookup_is_exact_at_its_edges():
    """The lookup is searchsorted(cdf, u, "right") at every draw where the
    two could part: at and next to each F_k and each bucket edge, on
    dyadic cdfs whose F_k are bucket edges, and on cdfs up to N = 200
    where one bucket holds several F_k."""
    rng = random.Random(61)
    seen = {"dyadic": 0, "crowded bucket": 0, "split": 0, "table": 0}
    for trial in range(120):
        n = rng.choice((2, 3, 5, 16, 24, 64, 200))
        if trial % 3 == 0:
            f = _dyadic_pmf(rng, n, rng.randint(n.bit_length(), 16))
        else:
            weights = [rng.randint(1, 10 ** rng.randint(0, 8)) for _ in range(n)]
            f = tuple(F(w, sum(weights)) for w in weights)
        cdf = Instance(n=n, f=f, g=f, d=F(1))._grid.float_cdf
        table = _guide_table(cdf)
        buckets = len(table)
        assert buckets & (buckets - 1) == 0 and 64 * n <= buckets < 128 * n
        lo = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
        assert np.array_equal(table, np.where(lo[1:] == lo[:-1], lo[:-1], n))
        u = np.concatenate([_edge_draws(cdf, buckets), np.random.default_rng(trial).random(500)])
        expected = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(_lookup_types(cdf, table, u.copy()), expected)
        split = table[np.floor(u * buckets).astype(np.intp)] == n
        seen["dyadic"] += trial % 3 == 0
        seen["crowded bucket"] += len(set(np.floor(cdf * buckets).tolist())) < n
        seen["split"] += bool(split.any())
        seen["table"] += bool((~split).any())
    assert min(seen.values()) >= 30, seen


def test_simulation_memory_stays_linear_in_the_agents():
    """At N = 200 and 2 * 10^5 agents the call's traced peak stays under
    40 bytes an agent: an N x M bool matrix alone would add 200."""
    inst = uniform_instance(200)
    caps = PositionMasses(s=inst.g)
    n_agents = 2 * 10**5
    tracemalloc.start()
    try:
        simulate_finite(inst, caps, n_agents, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n_agents, peak / n_agents


def test_simulation_memory_does_not_grow_with_the_replications():
    """At N = 200 and 10^5 agents the traced peak at 16 replications stays
    within 10% of the peak at one: the replications share no buffer, so
    memory is O(n_agents) whatever R is."""
    inst = uniform_instance(200)
    caps = PositionMasses(s=inst.g)
    n_agents = 10**5
    simulate_finite(inst, caps, 100, 1, 1)  # first-use allocations
    peaks = []
    for reps in (1, 16):
        tracemalloc.start()
        try:
            simulate_finite(inst, caps, n_agents, reps, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], [peak / n_agents for peak in peaks]
