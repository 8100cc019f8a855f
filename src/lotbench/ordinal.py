"""Common ordinal ranking with heterogeneous cardinal utilities.

Agents share the ranking of position qualities but differ in a taste
parameter gamma that bends the utility scale.  Because an agent's outside
option is drawn independently of gamma, working in each gamma's utility
space turns the problem into the baseline one on an unevenly spaced grid:
the cdf over grid points is the same for every gamma, only the spacing
changes.  Prices per unit of position mass depend on the cdf alone, so
one common lottery over qualities is optimal for all tastes at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import ConvexityHypothesisFailed, LotbenchError
from .instance import Instance, _grid_ints, _GridInts
from .mechanism import CommonLottery, Fill, Linear, PositionMasses, _check_lottery, _check_weights
from .optimizer import _budget_masses, lottery_from_masses, masses_from_lottery
from .rationals import format_rational, require_exact, to_common_denominator
from .transform import _grid_mu

ZERO = Fraction(0)


@dataclass(frozen=True)
class OrdinalInstance:
    """Qualities, a taste distribution, and per-taste utility rows.

    The joint distribution of (outside option, taste) is the product of
    outside_pmf and gamma_pmf; that independence is what makes the
    per-taste grid views share one cdf.
    """

    qualities: tuple[Fraction, ...]
    gamma_labels: tuple[str, ...]
    gamma_pmf: tuple[Fraction, ...]
    outside_pmf: tuple[Fraction, ...]
    utility: tuple[tuple[Fraction, ...], ...]  # rows indexed like gamma_labels
    g: tuple[Fraction, ...]
    d: Fraction
    # the baseline instance on the outside-option pmf; building it checks
    # N >= 2, the outside-option and capacity pmfs and the agent mass
    _baseline: Instance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # fixed as tuples, so that a value built from lists cannot change
        for name in ("qualities", "gamma_labels", "gamma_pmf", "outside_pmf", "g"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "utility", tuple(map(tuple, self.utility)))
        n = len(self.qualities)
        baseline = Instance(n=n, f=self.outside_pmf, g=self.g, d=self.d)
        require_exact(
            ("qualities", self.qualities),
            ("gamma_pmf", self.gamma_pmf),
            *(("utility", row) for row in self.utility),
        )
        if any(self.qualities[k] >= self.qualities[k + 1] for k in range(n - 1)):
            raise LotbenchError("qualities must be strictly increasing")
        if len(self.gamma_labels) != len(self.gamma_pmf) or not self.gamma_labels:
            raise LotbenchError("taste labels and pmf must align and be nonempty")
        if len(set(self.gamma_labels)) != len(self.gamma_labels):
            raise LotbenchError("taste labels must be distinct")
        if sum(self.gamma_pmf) != 1 or any(h < 0 for h in self.gamma_pmf):
            raise LotbenchError("taste pmf must be nonnegative and sum to 1")
        if len(self.utility) != len(self.gamma_labels):
            raise LotbenchError("one utility row per taste is required")
        for row in self.utility:
            if len(row) != n:
                raise LotbenchError("utility rows must have length N")
            if any(row[k] >= row[k + 1] for k in range(n - 1)):
                raise LotbenchError("utility rows must be strictly increasing")
        object.__setattr__(self, "_baseline", baseline)

    @property
    def n(self) -> int:
        return len(self.qualities)

    def cdf(self, k: int) -> Fraction:
        return self._baseline.cdf(k)

    @cached_property
    def _grids(self) -> tuple[_GridInts, ...]:
        """Each taste's utility grid, the row over its own common
        denominator, with the baseline's cdf (Q, P and F), in the ints of
        `_grid_ints`, in the order of gamma_labels; built on first read and
        kept.  It is not a field, so `==`, `hash` and `repr` ignore it.
        Callers must not mutate it."""
        grid = self._baseline._grid
        rows = (to_common_denominator([row]) for row in self.utility)
        return tuple(_grid_ints(scale, xs, grid.fscale, grid.ps, grid.F) for scale, (xs,) in rows)

    def to_json_dict(self) -> dict:
        return {
            "Q": [format_rational(v) for v in self.qualities],
            "Gamma": list(self.gamma_labels),
            "hGamma": [format_rational(v) for v in self.gamma_pmf],
            "hQ": [format_rational(v) for v in self.outside_pmf],
            "u": [[format_rational(v) for v in row] for row in self.utility],
            "g": [format_rational(v) for v in self.g],
            "D": format_rational(self.d),
        }


@dataclass(frozen=True)
class UnevenGridView:
    """One taste's utility grid with the shared outside-option cdf, as
    `normalize_gamma` builds it from a checked `OrdinalInstance`."""

    x: tuple[Fraction, ...]
    F: tuple[Fraction, ...]
    # the taste's grid ints, kept on the instance (`OrdinalInstance._grids`)
    _grid: _GridInts = field(repr=False, compare=False, kw_only=True)

    @property
    def n(self) -> int:
        return len(self.x)

    def pmf(self, i: int) -> Fraction:
        return self.F[i] - (self.F[i - 1] if i > 0 else ZERO)


def normalize_gamma(oi: OrdinalInstance, gamma: str) -> UnevenGridView:
    """Utility-space view for one taste: grid u(q; gamma), cdf H(q).

    The row and the cdf were checked when oi was built, and the view
    shares the taste's grid ints kept on oi."""
    if gamma not in oi.gamma_labels:
        raise LotbenchError(f"unknown taste label {gamma!r}")
    index = oi.gamma_labels.index(gamma)
    return UnevenGridView(x=oi.utility[index], F=oi._baseline._grid.F, _grid=oi._grids[index])


def uneven_mu_coefficients(view: UnevenGridView) -> tuple[tuple[Fraction, ...], ...]:
    """Cell coefficients of the multiplier-weighted constraint sum on an
    uneven grid, checked against the same closed forms as the baseline."""
    return _grid_mu(view._grid)


def optimal_common_lottery_ordinal(oi: OrdinalInstance, obj) -> CommonLottery:
    """One lottery over qualities, optimal simultaneously for every taste.

    Requires every taste's utility grid to pass the convexity test; the
    budget problem itself only involves the shared outside-option cdf, so
    the solution does not depend on the taste at all.  The test reads each
    taste's grid violations (`OrdinalInstance._grids`), once the objective
    is checked against N.
    """
    if not isinstance(obj, (Fill, Linear)):
        raise TypeError("ordinal optimum is defined for Fill/Linear objectives")
    _check_weights(obj, oi.n)
    failing = [label for label, grid in zip(oi.gamma_labels, oi._grids) if grid.violations]
    if failing:
        raise ConvexityHypothesisFailed(failing)
    return lottery_from_masses(oi._baseline, _budget_masses(oi._baseline, obj))


def aggregate_per_gamma(oi: OrdinalInstance, per_gamma: dict) -> CommonLottery:
    """Taste-pmf mixture of per-taste lotteries over the shared qualities.

    Because position masses are linear in the offer probabilities and the
    outside-option cdf is taste-independent, the mixture's masses are the
    mixture of the per-taste masses.
    """
    c = [ZERO] * oi.n
    for label, weight in zip(oi.gamma_labels, oi.gamma_pmf):
        if label not in per_gamma:
            raise LotbenchError(f"missing lottery for taste {label!r}")
        lot = per_gamma[label]
        _check_lottery(lot, oi.n, f"lottery for taste {label!r}")
        for k in range(oi.n):
            c[k] += weight * lot.c[k]
    return CommonLottery(c=c)


def masses_over_qualities(oi: OrdinalInstance, cl: CommonLottery) -> PositionMasses:
    """Position masses a lottery induces given the shared cdf."""
    return masses_from_lottery(oi._baseline, cl)
