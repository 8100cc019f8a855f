"""Problem instances on the evenly spaced quality grid.

An instance bundles the grid size N, the outside-option pmf f (with cdf F),
the position-capacity pmf g, and the agent mass D.  Grid points
x_k = theta_k = k/(N-1) are implicit functions of the index and are never
stored, so they stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .errors import LotbenchError
from .rationals import exact_type, format_rational, parse_rational, parse_rational_vector


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

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise LotbenchError(f"n must be an integer, got {self.n!r}")
        # a float would round the cdf and every identity checked downstream;
        # the types are checked as a set, the entries searched only for the
        # message
        named = (("f", self.f), ("g", self.g), ("D", (self.d,)))
        if not all(map(exact_type, {type(v) for _, vs in named for v in vs})):
            name, bad = next(
                (name, v) for name, vs in named for v in vs if not exact_type(type(v))
            )
            raise LotbenchError(f"{name} entries must be Fraction or int, got {bad!r}")
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
        cdf = tuple(accumulate(self.f))
        if cdf[-1] != 1 or sum(self.g) != 1:
            raise LotbenchError("f and g must each sum to 1")
        if self.d <= 0:
            raise LotbenchError(f"agent mass must be positive, got {self.d}")
        object.__setattr__(self, "_cdf", cdf)

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


def convexity_report(inst: Instance) -> ConvexityReport:
    """Test discrete convexity of 1/F on the type grid.

    For N=2 there is no interior point and the report is vacuously convex.
    """
    return _grid_convexity(*_integer_grid(inst))


def _integer_grid(inst: Instance):
    """The even grid scaled by (N-1): points 0..N-1 with the type cdf.

    Every even-grid formula is its grid formula evaluated here, which
    turns the utility gaps (x_k - theta_i) into the integers (k - i).
    """
    return tuple(range(inst.n)), inst._cdf


def _grid_convexity(x, F) -> ConvexityReport:
    """Convexity of 1/F along an increasing grid x with cdf F."""
    diffs = tuple(
        (x[i + 1] - x[i]) / F[i - 1]
        - (x[i + 1] - x[i - 1]) / F[i]
        + (x[i] - x[i - 1]) / F[i + 1]
        for i in range(1, len(x) - 1)
    )
    violations = tuple(i for i, d2 in enumerate(diffs, start=1) if d2 < 0)
    return ConvexityReport(
        second_differences=diffs,
        is_convex=not violations,
        is_strictly_convex=all(d > 0 for d in diffs),
        violation_indices=violations,
    )
