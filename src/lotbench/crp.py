"""Capped random priority: serve agents in uniform-priority order against
per-position caps, from the best position down.

In the continuum, the top position is taken by the first caps/F slice of
agents, the next position by the following slice, and so on; each slice's
agents whose outside option exceeds the position's quality exit unmatched.
The induced conditional allocation probabilities form exactly the
expansion of a common lottery, which is the equivalence this module makes
testable, both analytically and by finite-market Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import LotbenchError
from .instance import Instance
from .mechanism import (
    CommonLottery,
    DirectMechanism,
    PositionMasses,
    _check_lottery,
    expand_common_lottery,
)
from .optimizer import _scan, lottery_from_masses, masses_from_lottery


@dataclass(frozen=True)
class Threshold:
    """One step of the priority scan."""

    step: int
    position: int
    cutoff: Fraction  # cumulative agent mass consumed after this step
    position_exhausted: bool  # False when the agents ran out first


@dataclass(frozen=True)
class CrpResult:
    thresholds: tuple[Threshold, ...]
    allocation: DirectMechanism
    caps: PositionMasses


def _check_caps(inst: Instance, caps: PositionMasses):
    """One cap per position, each within 0 <= s_k <= g_k, compared as int
    cross products: the denominators are positive."""
    if len(caps.s) != inst.n:
        raise LotbenchError("caps length must equal N")
    for k, (sk, gk) in enumerate(zip(caps.s, inst.g)):
        if sk.numerator < 0:
            raise LotbenchError(f"cap at position {k} is negative")
        if sk.numerator * gk.denominator > gk.numerator * sk.denominator:
            raise LotbenchError(f"cap {sk} at position {k} exceeds capacity {gk}")


def continuum_crp(inst: Instance, caps: PositionMasses) -> CrpResult:
    """Exact limit allocation of capped random priority.

    Positions are consumed from the top; a position with cap s_k occupies
    the next s_k / F(x_k) of agent mass.  If the agent mass runs out
    mid-position, every remaining agent with an acceptable type gets that
    position and the scan stops.  An exact tie counts as the position
    being exhausted.  This is the optimizer's budget greedy with the caps
    as capacities, so the allocation expands the lottery of its masses.
    """
    _check_caps(inst, caps)
    scan = [k for k in range(inst.n - 1, -1, -1) if caps.s[k] != 0]
    # used[j]: the agent mass consumed after step j + 1, over scale
    taken, scale, used = _scan(inst, scan, caps.s)
    thresholds = tuple(
        Threshold(step, k, Fraction(u, scale), taken[k] == caps.s[k])
        for step, (k, u) in enumerate(zip(scan, used), 1)
    )
    return CrpResult(
        thresholds=thresholds,
        allocation=expand_common_lottery(
            inst, lottery_from_masses(inst, PositionMasses(s=taken))
        ),
        caps=caps,
    )


def caps_from_lottery(inst: Instance, cl: CommonLottery) -> PositionMasses:
    """Caps under which the priority scan reproduces the lottery exactly."""
    _check_lottery(cl, inst.n)
    return masses_from_lottery(inst, cl)


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated finite-market draws.

    empirical[k][i] is the fraction of type-i agents assigned position k
    across all replications; stderr holds the matching binomial standard
    errors (0 where a type was never drawn).
    """

    empirical: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    type_totals: np.ndarray
    quotas: tuple[int, ...]
    n_agents: int
    replications: int
    seed: int


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """The guide table of an increasing cdf that ends at 1, over B buckets,
    B = 2**e the least power of two >= 64 N.  Entry b is the one type of
    every u in [b/B, (b+1)/B), lo[b] = searchsorted(cdf, b/B, "right"),
    or N where lo[b+1] != lo[b], a bucket that some F_k may split.  At
    most N of the B buckets are split, so at most 1/64 of uniform draws
    fall back to the search.  Entries take the least int type that holds
    N, which keeps the line of waiting agents small."""
    n = len(cdf)
    buckets = 1 << (64 * n - 1).bit_length()
    # F_k B is exact and F_k <= b/B iff b >= ceil(F_k B): first[b] counts
    # the F_k that b/B is the first edge at or above, so lo is its running sum
    first = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
    table = np.cumsum(first[:-1], dtype=np.min_scalar_type(n))
    table[first[1:] > 0] = n
    return table


def _lookup_types(cdf: np.ndarray, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right") for draws 0 <= u < 1, read from
    the guide table of cdf; u is scaled in place.  B is a power of two, so
    u * B is exact, floor(u * B) is u's bucket, and (u * B) / B is u."""
    buckets = len(table)
    u *= buckets
    types = table[u.astype(np.intp)]
    split = (types == len(cdf)).nonzero()[0]
    types[split] = cdf.searchsorted(u[split] / buckets, side="right")
    return types


def _first_window(quota: int, p: int, scale: int, n_agents: int) -> int:
    """A first window for a quota of agents of type <= k, F_k = p / scale:
    the mean number of agents read to find them, quota / F_k, plus two
    standard deviations of that count and 16, in ints, so that an F_k too
    small for a float still sizes a window; n_agents where the mean alone
    reaches it."""
    mean = quota * scale // p
    if mean >= n_agents:
        return n_agents
    return mean + 2 * isqrt(mean * (scale - p) // p) + 16


def _serve_line(
    types: np.ndarray, positions: list[int], quotas: list[int], windows: list[int]
) -> list[int]:
    """The serial dictatorship of one line of types, in arrival order, by
    cutoffs: the positions in `positions`, from the top, each with its
    quota q > 0 and a first window size w > 0.  Position k takes the first
    q agents of type <= k at or after the previous cutoff t, and its
    window ends just after the last of them, or at the end of the line.
    Returns the widths of the windows, one per position served; they tile
    the line from its start, and the list stops at the window that
    reaches the end of the line.

    The scan reads types[t:t + w] and, while that holds fewer than q such
    agents, reads on past it with a window twice as wide, so a short
    window is not read again.
    """
    m = len(types)
    t = 0
    widths = []
    for k, q, w in zip(positions, quotas, windows):
        start = t
        while True:
            hits = (types[t : t + w] <= k).nonzero()[0]
            if len(hits) >= q:
                t += int(hits[q - 1]) + 1
                break
            q -= len(hits)
            t += w
            if t >= m:
                t = m
                break
            w *= 2
        widths.append(t - start)
        if t == m:
            break
    return widths


def simulate_finite(
    inst: Instance,
    caps: PositionMasses,
    n_agents: int,
    replications: int,
    seed: int,
) -> SimulationResult:
    """Monte Carlo of the finite market: i.i.d. types, uniform priorities,
    integer quotas floor(n_agents * s_k / D), serial dictatorship where an
    agent takes the best open position at or above its outside option.
    Sizes are ints, bounded before anything is allocated: at most 10^6
    agents and 10^4 replications; the seed is an int >= 0.

    Each draw's type is read from a guide table (`_guide_table`) and is
    the type that `np.searchsorted(cdf, u, side="right")` gives: a draw u
    lies in one bucket of width 1/B, and only the draws in a bucket that
    some F_k splits fall back to the binary search.  The table is built
    per call, with O(N) entries.

    Each replication serves its line of agents by cutoffs
    (`_serve_line`), from the top position down.  An agent of type above
    k whom position k passes over accepts no lower position either, so it
    leaves the line, and every agent after position k's cutoff is still
    waiting.  So position k's winners are the first q_k agents of type
    <= k after the previous cutoff, exactly the serial dictatorship's,
    and the line is read about once, one window per position: a first
    window of q_k / F_k agents and some slack, sized from the grid's
    ints, usually holds the quota.  One `bincount` over the codes
    k * N + type, k the position whose window holds the agent, then
    counts the replication; the codes with type above k are the agents
    passed over, and are dropped from the counts.  The scan draws nothing
    from the random stream, and memory stays O(n_agents) whatever the
    replications.
    """
    for name, size in (("n_agents", n_agents), ("replications", replications)):
        if isinstance(size, bool) or not isinstance(size, int):
            raise LotbenchError(f"{name} must be an integer, got {size!r}")
    if n_agents < 1:
        raise LotbenchError(f"need at least one agent, got {n_agents}")
    if n_agents > 10**6:
        raise LotbenchError(f"need at most {10**6} agents, got {n_agents}")
    if replications < 1:
        raise LotbenchError(f"need at least one replication, got {replications}")
    if replications > 10**4:
        raise LotbenchError(f"need at most {10**4} replications, got {replications}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise LotbenchError(f"seed must be a nonnegative integer, got {seed!r}")
    _check_caps(inst, caps)
    n, d, grid = inst.n, inst.d, inst._grid
    # floor(n_agents * s_k / D) in ints; the caps are nonnegative
    quotas = tuple(
        n_agents * sk.numerator * d.denominator // (sk.denominator * d.numerator)
        for sk in caps.s
    )
    cdf = grid.float_cdf
    table = _guide_table(cdf)
    positions = [k for k in range(n - 1, -1, -1) if quotas[k]]
    open_quotas = [quotas[k] for k in positions]
    windows = [
        _first_window(q, grid.ps[k], grid.fscale, n_agents)
        for k, q in zip(positions, open_quotas)
    ]
    labels = np.array([k * n for k in positions], dtype=np.min_scalar_type(n * n))

    flat_counts = np.zeros(n * n, dtype=np.int64)
    type_totals = np.zeros(n, dtype=np.int64)
    streams = np.random.SeedSequence(seed).spawn(replications)
    for stream in streams:
        rng = np.random.default_rng(stream)
        # i.i.d. types in arrival order; arrival order is the priority order
        types = _lookup_types(cdf, table, rng.random(n_agents))
        type_totals += np.bincount(types, minlength=n)
        widths = _serve_line(types, positions, open_quotas, windows)
        if widths:
            # unnamed, so that the codes do not outlive their replication
            flat_counts += np.bincount(
                labels[: len(widths)].repeat(widths) + types[: sum(widths)],
                minlength=n * n,
            )
    # the codes k * N + i with i > k are the agents position k passed over
    counts = np.tril(flat_counts.reshape(n, n))
    # a type never drawn has no agent in any position: 0 / 1 = 0
    drawn = np.maximum(type_totals, 1)
    empirical = counts / drawn
    stderr = np.sqrt(empirical * (1 - empirical) / drawn)
    return SimulationResult(
        empirical=empirical,
        stderr=stderr,
        counts=counts,
        type_totals=type_totals,
        quotas=quotas,
        n_agents=n_agents,
        replications=replications,
        seed=seed,
    )
