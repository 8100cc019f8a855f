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
from .rationals import require_exact


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
    """One exact cap per position, each within 0 <= s_k <= g_k."""
    require_exact(("caps", caps.s))
    if len(caps.s) != inst.n:
        raise LotbenchError("caps length must equal N")
    for k, sk in enumerate(caps.s):
        if sk < 0:
            raise LotbenchError(f"cap at position {k} is negative")
        if sk > inst.g[k]:
            raise LotbenchError(
                f"cap {sk} at position {k} exceeds capacity {inst.g[k]}"
            )


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
            inst, lottery_from_masses(inst, PositionMasses(s=tuple(taken)))
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
    Sizes are bounded before anything is allocated: at most 10^6 agents
    and 10^4 replications.

    Each replication keeps a line of the agents still waiting, in arrival
    order, which shrinks as positions fill from the top, and stops when it
    is empty.  Every agent left on the line accepts the position at hand,
    so this is the serial dictatorship, and the line draws nothing from
    the random stream.
    """
    if n_agents < 1:
        raise LotbenchError(f"need at least one agent, got {n_agents}")
    if n_agents > 10**6:
        raise LotbenchError(f"need at most {10**6} agents, got {n_agents}")
    if replications < 1:
        raise LotbenchError(f"need at least one replication, got {replications}")
    if replications > 10**4:
        raise LotbenchError(f"need at most {10**4} replications, got {replications}")
    _check_caps(inst, caps)
    n, d, grid = inst.n, inst.d, inst._grid
    # floor(n_agents * s_k / D) in ints; the caps are nonnegative
    quotas = tuple(
        n_agents * sk.numerator * d.denominator // (sk.denominator * d.numerator)
        for sk in caps.s
    )
    # F_k = P_k / Q, each correctly rounded, as float(F_k) is
    cdf = np.array([p / grid.fscale for p in grid.ps])
    open_positions = [k for k in range(n - 1, -1, -1) if quotas[k]]

    counts = np.zeros((n, n), dtype=np.int64)
    type_totals = np.zeros(n, dtype=np.int64)
    streams = np.random.SeedSequence(seed).spawn(replications)
    for stream in streams:
        rng = np.random.default_rng(stream)
        # i.i.d. types in arrival order; arrival order is the priority order
        types = np.searchsorted(cdf, rng.random(n_agents), side="right")
        type_totals += np.bincount(types, minlength=n)
        # the types of the agents still waiting, in arrival order: from the
        # top, a position drops the types above it, which no lower position
        # accepts either, and its quota goes to the first agents left
        line = types
        for k in open_positions:
            line = line[line <= k]
            if not line.size:
                break
            counts[k] += np.bincount(line[: quotas[k]], minlength=n)
            line = line[quotas[k]:]

    with np.errstate(divide="ignore", invalid="ignore"):
        empirical = np.where(type_totals > 0, counts / type_totals, 0.0)
        stderr = np.where(
            type_totals > 0,
            np.sqrt(empirical * (1 - empirical) / np.maximum(type_totals, 1)),
            0.0,
        )
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
