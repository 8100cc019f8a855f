"""Seeded inputs for the benchmark workloads, and their canonical digest.

The generator belongs to the benchmark: it imports nothing from the test
suite, so editing the tests cannot change what the benchmark runs.  Every
input is a pure function of (workload, seed); the library only ever sees
the generated objects.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from lotbench import (
    CommonLottery,
    DirectMechanism,
    Fill,
    Instance,
    Linear,
    OrdinalInstance,
    PositionMasses,
    SeparableConcave,
)

WORKLOADS = ("exact-lp", "certify", "explore")
REPRODUCE_TARGETS = ("fig1", "fig2", "fig3", "fig4", "appendixA1")

# Task mixes, one cycle each.  Task time clusters by kind and N, so every
# cycle has the same composition and order, and the seed only chooses the
# instances.  Each percentile then sits inside one stratum of a single
# kind and N on every seed: on exact-lp the median falls among the N=5
# designer LPs and the 90th percentile among the N=6 ones; on certify the
# median falls at N=19 and the 90th percentile at N=26.  Sizes are weighted
# to the small end so that a 35-second run completes well over 100 tasks,
# which the 90th percentile needs, even when the machine runs slow.  For
# the same reason exact-lp stops at N=7: one N=8 designer LP takes 1.6-4 s.
EXACT_LP_CYCLE = (
    [("min_mass", 4)] * 4
    + [("designer", 5)] * 25
    + [("min_mass", 5)] * 4
    + [("designer", 6)] * 6
    + [("designer", 7)]
)
CERTIFY_CYCLE = [
    ("certify", n)
    for n in (16, 16, 16, 16, 17, 17, 18, 18, 19, 19, 19, 19, 20, 22, 23, 24, 26, 26, 26, 40)
]
EXPLORE_CYCLE = [("explore", n) for n in range(8, 25)]

CYCLES = {"exact-lp": EXACT_LP_CYCLE, "certify": CERTIFY_CYCLE, "explore": EXPLORE_CYCLE}
# Enough cycles that a run on the current code never wraps around the pool.
POOL_CYCLES = {"exact-lp": 8, "certify": 16, "explore": 48}

# Small fixed task sets, independent of --seed.  They warm the interpreter
# during set-up, and their output digest is compared with the checked-in
# value, so a change of any output between two commits fails the run.
GOLDEN_SLOTS = {
    "exact-lp": [("designer", 5), ("designer", 5), ("designer", 5), ("min_mass", 4)],
    "certify": [("certify", 16), ("certify", 20)],
    "explore": [("explore", n) for n in (8, 9, 10, 11, 12)],
}


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work; args holds only generated values."""

    idx: int
    kind: str
    n: int
    args: dict


def _pmf(rng: random.Random, n: int, full_support: bool) -> tuple[Fraction, ...]:
    weights = [rng.randint(1 if full_support else 0, 9) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _mass(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), rng.randint(1, 4))


def convex_instance(rng: random.Random, n: int) -> Instance:
    """A non-increasing type pmf, which makes 1/F discretely convex."""
    weights = sorted((rng.randint(1, 9) for _ in range(n)), reverse=True)
    total = sum(weights)
    f = tuple(Fraction(w, total) for w in weights)
    return Instance(n=n, f=f, g=_pmf(rng, n, full_support=False), d=_mass(rng))


def random_instance(rng: random.Random, n: int) -> Instance:
    return Instance(n=n, f=_pmf(rng, n, True), g=_pmf(rng, n, False), d=_mass(rng))


def supported_matrix(rng: random.Random, n: int) -> DirectMechanism:
    """Arbitrary cell values in [0, 1] on the cells with k >= i."""
    return DirectMechanism(
        a=tuple(
            tuple(Fraction(rng.randint(0, 24), 24) if i <= k else Fraction(0) for i in range(n))
            for k in range(n)
        )
    )


def _weights(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n))


def _ordinal_instance(rng: random.Random) -> OrdinalInstance:
    """2-4 tastes with affine utility scales over a convex outside pmf."""
    base = convex_instance(rng, rng.randint(4, 8))
    labels = tuple(f"g{t}" for t in range(rng.randint(2, 4)))
    rows = []
    for _ in labels:
        slope, shift = rng.randint(1, 6), rng.randint(0, 3)
        rows.append(tuple(Fraction(slope * k + shift) for k in range(base.n)))
    return OrdinalInstance(
        qualities=tuple(Fraction(k) for k in range(base.n)),
        gamma_labels=labels,
        gamma_pmf=_pmf(rng, len(labels), True),
        outside_pmf=base.f,
        utility=tuple(rows),
        g=base.g,
        d=base.d,
    )


def _make_task(rng: random.Random, idx: int, kind: str, n: int, nth: int) -> Task:
    """nth counts earlier tasks of the same kind, to alternate variants."""
    if kind == "designer":
        inst = convex_instance(rng, n)
        obj = Fill() if nth % 2 == 0 else Linear(weights=_weights(rng, n))
        # a quarter of the designer LPs go through the in-process CLI
        return Task(idx, kind, n, {"inst": inst, "obj": obj, "via_cli": nth % 8 in (2, 3)})
    if kind == "min_mass":
        inst = convex_instance(rng, n)
        targets = PositionMasses(s=tuple(gk * Fraction(rng.randint(1, 3), 4) for gk in inst.g))
        return Task(idx, kind, n, {"inst": inst, "targets": targets})
    if kind == "certify":
        inst = convex_instance(rng, n)
        return Task(idx, kind, n, {"inst": inst, "matrix": supported_matrix(rng, n)})
    if kind == "explore":
        # one instance in five is convex; random pmfs at N >= 8 almost never are
        inst = convex_instance(rng, n) if nth % 5 == 4 else random_instance(rng, n)
        concave = SeparableConcave(
            weights=tuple(Fraction(rng.randint(1, 7)) for _ in range(n)),
            rho=Fraction(1, rng.choice((2, 4))),
        )
        ordinal = _ordinal_instance(rng)
        ordinal_obj = Fill() if nth % 2 == 0 else Linear(weights=_weights(rng, ordinal.n))
        return Task(idx, kind, n, {
            "inst": inst,
            "linear": Linear(weights=_weights(rng, n)),
            "concave": concave,
            "crp_scale": Fraction(rng.randint(1, 8), 8),
            "mc_seed": rng.randrange(2**32),
            "ordinal": ordinal,
            "ordinal_obj": ordinal_obj,
            "reproduce": REPRODUCE_TARGETS[nth % len(REPRODUCE_TARGETS)],
        })
    raise ValueError(f"unknown task kind {kind!r}")


def _build(rng: random.Random, slots) -> list[Task]:
    seen: dict[str, int] = {}
    tasks = []
    for idx, (kind, n) in enumerate(slots):
        nth = seen.get(kind, 0)
        seen[kind] = nth + 1
        tasks.append(_make_task(rng, idx, kind, n, nth))
    return tasks


def spread(cycle: list) -> list:
    """Order a cycle so that each slot's repeats are evenly spaced, so any
    stretch of a run holds close to the cycle's mix."""
    counts = Counter(cycle)
    seen: Counter = Counter()
    keyed = []
    for pos, slot in enumerate(cycle):
        keyed.append(((seen[slot] + 0.5) / counts[slot], pos, slot))
        seen[slot] += 1
    return [slot for _key, _pos, slot in sorted(keyed)]


def make_pool(workload: str, seed: int) -> list[Task]:
    """The seeded task pool: whole cycles; the seed picks the instances."""
    slots = spread(CYCLES[workload]) * POOL_CYCLES[workload]
    return _build(random.Random(f"{workload}/{seed}"), slots)


def golden_tasks(workload: str) -> list[Task]:
    return _build(random.Random(f"{workload}/golden"), GOLDEN_SLOTS[workload])


# --- canonical text and digests ------------------------------------------------


def pq(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def canon(x) -> str:
    """Canonical text of an input or output: rationals as p/q, nothing float."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return pq(x)
    if isinstance(x, (int, str)):
        return str(x)
    if isinstance(x, (tuple, list)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{canon(x[k])}" for k in sorted(x)) + "}"
    if isinstance(x, Fill):
        return "fill"
    if isinstance(x, Linear):
        return "linear" + canon(x.weights)
    if isinstance(x, SeparableConcave):
        return "concave" + canon(x.weights) + "^" + pq(x.rho)
    if isinstance(x, CommonLottery):
        return canon(x.c)
    if isinstance(x, PositionMasses):
        return canon(x.s)
    if isinstance(x, (Instance, OrdinalInstance, DirectMechanism)):
        return canon(x.to_json_dict())
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(canon(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def input_digest(tasks: list[Task]) -> str:
    return digest((t.idx, t.kind, t.n, t.args) for t in tasks)
