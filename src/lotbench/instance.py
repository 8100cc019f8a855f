"""Problem instances on the evenly spaced quality grid.

An instance bundles the grid size N, the outside-option pmf f (with cdf F),
the position-capacity pmf g, and the agent mass D.  Grid points
x_k = theta_k = k/(N-1) are implicit functions of the index and are never
stored, so they stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .errors import LotbenchError
from .rationals import (
    exact_sum,
    format_rational,
    parse_rational,
    parse_rational_vector,
    require_exact,
    to_common_denominator,
)

if TYPE_CHECKING:
    from .ordinal import UnevenGridView


@dataclass(frozen=True)
class Instance:
    """A finite assignment environment on the even grid {0, 1/(N-1), ..., 1}.

    Attributes:
        n: grid size N (number of types = number of position qualities).
        f: outside-option pmf over types, full support.
        g: position-capacity pmf over qualities (zero entries allowed).
        d: total agent mass D; position mass is normalized to 1.
    """

    n: int
    f: tuple[Fraction, ...]
    g: tuple[Fraction, ...]
    d: Fraction
    _cdf: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    # (Q, (P_0, ..., P_{N-1})): F_k = P_k / Q, the prefix sums of f over Q
    _prefix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise LotbenchError(f"n must be an integer, got {self.n!r}")
        require_exact(("f", self.f), ("g", self.g), ("D", (self.d,)))
        if self.n < 2:
            raise LotbenchError(f"need N >= 2, got {self.n}")
        if len(self.f) != self.n or len(self.g) != self.n:
            raise LotbenchError(
                f"f and g must have length {self.n}, got {len(self.f)} and {len(self.g)}"
            )
        if any(fi <= 0 for fi in self.f):
            raise LotbenchError("type pmf must have full support")
        if any(gk < 0 for gk in self.g):
            raise LotbenchError("position capacities must be >= 0")
        # F_k = P_k / Q from the int prefix sums of f over one denominator Q
        scale, (ints,) = to_common_denominator([self.f])
        prefix = list(accumulate(ints))
        if prefix[-1] != scale or exact_sum(self.g) != 1:
            raise LotbenchError("f and g must each sum to 1")
        if self.d <= 0:
            raise LotbenchError(f"agent mass must be positive, got {self.d}")
        object.__setattr__(self, "_cdf", tuple(Fraction(p, scale) for p in prefix))
        object.__setattr__(self, "_prefix", (scale, tuple(prefix)))

    @cached_property
    def _grid(self) -> "_GridInts":
        """The even grid scaled by (N-1), points 0..N-1, with the type cdf's
        prefix sums, in the ints of `_grid_ints`; built on first read and kept.

        Every even-grid formula is its grid formula evaluated here, which
        turns the utility gaps (x_k - theta_i) into the integers (k - i).
        The view is not a field, so `==`, `hash` and `repr` ignore it, and
        `dataclasses.replace` builds a new one.  Callers must not mutate it.
        """
        return _grid_ints(range(self.n), *self._prefix)

    # -- grid geometry ------------------------------------------------

    def x(self, k: int) -> Fraction:
        """Quality of position k (also the outside option of type k)."""
        self._check_index(k)
        return Fraction(k, self.n - 1)

    def cdf(self, i: int) -> Fraction:
        """F(theta_i) = sum of f over types 0..i."""
        self._check_index(i)
        return self._cdf[i]

    def _check_index(self, i: int):
        if not 0 <= i < self.n:
            raise LotbenchError(f"index {i} out of range for N={self.n}")

    # -- serialization ------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        return cls(
            n=data["n"],
            f=parse_rational_vector(data["f"]),
            g=parse_rational_vector(data["g"]),
            d=parse_rational(data["D"]),
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "f": [format_rational(v) for v in self.f],
            "g": [format_rational(v) for v in self.g],
            "D": format_rational(self.d),
        }


def _with_mass(inst: Instance, d) -> Instance:
    """inst at agent mass d.  Only d is checked (exact and positive): f and
    g were checked when inst was built, and the cdf and its grid ints,
    which depend on f alone, are shared with inst."""
    require_exact(("D", (d,)))
    if d <= 0:
        raise LotbenchError(f"agent mass must be positive, got {d}")
    trial = object.__new__(Instance)
    trial.__dict__.update(inst.__dict__, d=d, _grid=inst._grid)
    return trial


def new_instance(n, f, g, d) -> Instance:
    """Validated constructor accepting any rational-like entries."""
    return Instance(
        n=n,
        f=parse_rational_vector(f),
        g=parse_rational_vector(g),
        d=parse_rational(d),
    )


def uniform_instance(n: int, d=1) -> Instance:
    """Uniform type and position pmfs on an N-point grid."""
    w = Fraction(1, n)
    return Instance(n=n, f=(w,) * n, g=(w,) * n, d=parse_rational(d))


@dataclass(frozen=True)
class ConvexityReport:
    """Discrete second differences of 1/F at the interior grid points.

    Entry i-1 belongs to interior index i (i = 1..N-2).  On the integer
    grid it is 1/F(theta_i-1) - 2/F(theta_i) + 1/F(theta_i+1); on any
    other grid it is the same second difference multiplied by the two
    spacings around theta_i.
    """

    second_differences: tuple[Fraction, ...]
    is_convex: bool
    is_strictly_convex: bool
    violation_indices: tuple[int, ...]


def convexity_report(inst: Instance | UnevenGridView) -> ConvexityReport:
    """Test discrete convexity of 1/F along the grid of an instance or of
    one taste's view (`ordinal.normalize_gamma`), read from its `_grid`.

    For N=2 there is no interior point and the report is vacuously convex.
    """
    grid = inst._grid
    return ConvexityReport(
        second_differences=tuple(_second_difference(grid, i) for i in range(1, len(grid.xs) - 1)),
        is_convex=not grid.violations,
        is_strictly_convex=all(num > 0 for num in grid.d2),
        violation_indices=grid.violations,
    )


@dataclass(frozen=True)
class _GridInts:
    """An increasing grid x with cdf F in ints: x = xs/xscale, F = ps/fscale,
    and d2[i-1] the int numerator of the second difference of 1/F at
    interior i, over the positive xscale P_{i-1} P_i P_{i+1} / fscale.

    `pmf`, `float_cdf` and `violations` are read from these ints on first
    use and kept.
    Values that depend on the grid alone may be kept in its `__dict__`
    (`transform._kept_weights` keeps the decomposition's weights there);
    they are not fields, so `==` and `repr` ignore them."""

    xscale: int
    xs: tuple[int, ...]
    fscale: int
    ps: tuple[int, ...]
    d2: tuple[int, ...]

    @cached_property
    def pmf(self) -> tuple[int, ...]:
        """The pmf f_i = (P_i - P_{i-1}) / fscale, as its ints over fscale."""
        ps = self.ps
        return (ps[0], *(b - a for a, b in zip(ps, ps[1:])))

    @cached_property
    def float_cdf(self) -> np.ndarray:
        """F_k = P_k / fscale as a read-only float array, each entry
        correctly rounded, as float(F_k) is."""
        cdf = np.array([p / self.fscale for p in self.ps])
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def violations(self) -> tuple[int, ...]:
        """The interior indices i where 1/F is not convex: d2[i-1] < 0."""
        return tuple(i for i, num in enumerate(self.d2, start=1) if num < 0)


def _grid_ints(x, fscale: int, ps: tuple[int, ...]) -> _GridInts:
    """The grid x over one common denominator, the cdf already in ints
    (F = ps/fscale, kept as given), and the second differences' int
    numerators: with x = X/S, the second difference at i is fscale/S times
        ((X_{i+1} - X_i) P_i P_{i+1} - (X_{i+1} - X_{i-1}) P_{i-1} P_{i+1}
         + (X_i - X_{i-1}) P_{i-1} P_i) / (P_{i-1} P_i P_{i+1}).
    """
    xscale, (xs,) = to_common_denominator([x])
    d2 = tuple(
        (xs[i + 1] - xs[i]) * ps[i] * ps[i + 1]
        - (xs[i + 1] - xs[i - 1]) * ps[i - 1] * ps[i + 1]
        + (xs[i] - xs[i - 1]) * ps[i - 1] * ps[i]
        for i in range(1, len(xs) - 1)
    )
    return _GridInts(xscale, tuple(xs), fscale, ps, d2)


def _second_difference(grid: _GridInts, i: int) -> Fraction:
    """The second difference of 1/F at interior index i, from its int
    numerator d2[i-1]."""
    ps = grid.ps
    return Fraction(grid.fscale * grid.d2[i - 1], grid.xscale * ps[i - 1] * ps[i] * ps[i + 1])
