"""p-adic Newton polygons (lower convex hulls) and the Newton index.

The polygon of f = sum a_j x^j at a prime p is the lower convex hull of the
points (j, ord_p(a_j)); zero coefficients are simply omitted since a point at
height +infinity can never lie on a lower hull.  The Newton index is the lcm
of the slope denominators over the finite set of primes dividing a_0 * a_n of
the primitive part of f.

`polygon_from_points` and `index_report` are the only hull and index
builders: `newton_index` feeds them the valuations of f's coefficients, and
`glp` the heights of the GLP polygons, which it computes without building
the coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import DomainError
from .polys import Poly, primitive_scale
from .primes import _multiplicity, candidate_primes, is_prime

Point = tuple[int, int]


class Segment(Record):
    __slots__ = ("slope", "length", "start", "end")

    def __init__(self, slope: Fraction, length: int, start: Point, end: Point) -> None:
        self._set("slope", slope)
        self._set("length", length)
        self._set("start", start)
        self._set("end", end)


class NewtonPolygon(Record):
    __slots__ = ("prime", "points", "vertices", "segments")

    def __init__(
        self,
        prime: int,
        points: tuple[Point, ...],
        vertices: tuple[Point, ...],
        segments: tuple[Segment, ...],
    ) -> None:
        self._set("prime", prime)
        self._set("points", points)
        self._set("vertices", vertices)
        self._set("segments", segments)
        # Convexity and endpoint invariants; an explicit raise survives `python -O`.
        slopes = self.slopes
        if not (
            all(a < b for a, b in zip(slopes, slopes[1:]))
            and self.vertices[0] == self.points[0]
            and self.vertices[-1] == self.points[-1]
            and sum(s.length for s in self.segments) == self.points[-1][0] - self.points[0][0]
        ):
            raise DomainError("Newton polygon is not a convex hull of its points")

    @property
    def slopes(self) -> list[Fraction]:
        return [s.slope for s in self.segments]


class NewtonIndexReport(Record):
    __slots__ = ("index", "witnesses", "polygons")

    def __init__(
        self,
        index: int,
        witnesses: dict[int, list[Fraction]],  # prime -> slopes with denominator > 1
        polygons: dict[int, NewtonPolygon],  # every candidate prime -> its polygon
    ) -> None:
        self._set("index", index)
        self._set("witnesses", witnesses)
        self._set("polygons", polygons)

    @property
    def single_slope(self) -> bool:
        """Some polygon is one segment whose slope denominator is its length."""
        segments = [np.segments for np in self.polygons.values()]
        return any(len(s) == 1 and s[0].slope.denominator == s[0].length for s in segments)


def strip_x_powers(f: Poly) -> tuple[int, Poly]:
    """Write f = x^k * h with h(0) != 0; returns (k, h)."""
    if f.is_zero():
        raise DomainError("zero polynomial")
    k = 0
    while f.coeffs[k] == 0:
        k += 1
    return k, Poly(f.coeffs[k:])


def _lower_hull(points: list[Point]) -> list[Point]:
    hull: list[Point] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the middle point only on a strict left turn
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) > 0:
                break
            hull.pop()
        hull.append(pt)
    return hull


def polygon_from_points(p: int, points: list[Point]) -> NewtonPolygon:
    """The Newton polygon at p of the points (j, height), ascending in j: their
    lower convex hull, checked by the NewtonPolygon record."""
    vertices = _lower_hull(points)
    segments = tuple(
        Segment(
            slope=Fraction(b[1] - a[1], b[0] - a[0]),
            length=b[0] - a[0],
            start=a,
            end=b,
        )
        for a, b in zip(vertices, vertices[1:])
    )
    return NewtonPolygon(prime=p, points=tuple(points), vertices=tuple(vertices), segments=segments)


def index_report(polygons: dict[int, NewtonPolygon]) -> NewtonIndexReport:
    """The Newton index of an atlas {prime: polygon}: the lcm of the slope
    denominators, with the slopes of denominator > 1 as each prime's witnesses."""
    index = 1
    witnesses: dict[int, list[Fraction]] = {}
    for p, np in polygons.items():
        ramified = [s for s in np.slopes if s.denominator > 1]
        if ramified:
            witnesses[p] = ramified
            index = math.lcm(index, *(s.denominator for s in ramified))
    return NewtonIndexReport(index=index, witnesses=witnesses, polygons=polygons)


def newton_polygon(f: Poly, p: int) -> NewtonPolygon:
    if f.is_zero() or f[0] == 0:
        raise DomainError("Newton polygon requires a_0 != 0; strip x-powers first")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    # ord_p of each nonzero coefficient, with p checked once above
    points = [
        (j, _multiplicity(c.numerator, p) - _multiplicity(c.denominator, p))
        for j, c in enumerate(f.coeffs)
        if c
    ]
    return polygon_from_points(p, points)


def newton_index(f: Poly) -> NewtonIndexReport:
    """lcm of the slope denominators over all contributing primes.

    Scaling f by a nonzero rational only translates each polygon vertically,
    so the index is computed on the primitive part after stripping x-powers.
    """
    if f.is_zero():
        raise DomainError("zero polynomial")
    _, h = strip_x_powers(f)
    g, _ = primitive_scale(h)
    primes = sorted(candidate_primes(g)) if g.degree >= 1 else []
    return index_report({p: newton_polygon(g, p) for p in primes})


def single_slope_irreducibility_evidence(f: Poly) -> bool:
    """True iff some prime gives a one-segment polygon whose slope denominator
    equals deg f; a sufficient (Eisenstein-like) condition for irreducibility."""
    if f.is_zero() or f[0] == 0:
        raise DomainError("requires a_0 != 0")
    return newton_index(f).single_slope


def polygon_to_dict(np: NewtonPolygon) -> dict:
    return {
        "prime": np.prime,
        "points": [list(pt) for pt in np.points],
        "vertices": [list(pt) for pt in np.vertices],
        "segments": [
            {
                "slope": str(s.slope),
                "length": s.length,
                "from": list(s.start),
                "to": list(s.end),
            }
            for s in np.segments
        ],
    }
