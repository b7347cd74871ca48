"""p-adic Newton polygons (lower convex hulls) and the Newton index.

The polygon of f = sum a_j x^j at a prime p is the lower convex hull of the
points (j, ord_p(a_j)); zero coefficients are simply omitted since a point at
height +infinity can never lie on a lower hull.  The Newton index is the lcm
of the slope denominators over the finite set of primes dividing a_0 * a_n of
the primitive part of f.

A polygon is fixed by its hull vertices, and the index, its witness slopes
and the single-slope test need only each segment's integer (rise, run).  So
a `NewtonIndexReport` holds the vertices at every candidate prime, and
`index_report` is the one index builder: `newton_index` feeds it the hulls
of f's coefficient valuations, and `glp` hulls it builds from the small
factors of the GLP coefficients.  The `NewtonPolygon` and `Segment` records,
with every point and a `Fraction` slope per segment, are built only by
`newton_polygon`.  Both check convexity by the same integer walk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

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
        # the hull check shared with index_report, then the endpoints and the
        # segments; explicit raises, which survive `python -O`
        _ramified_slopes(prime, vertices)
        if not (
            vertices[0] == points[0] and vertices[-1] == points[-1]
            and segments == _segments(vertices)
        ):
            raise DomainError("Newton polygon is not a convex hull of its points")

    @property
    def slopes(self) -> list[Fraction]:
        return [s.slope for s in self.segments]


class NewtonIndexReport(Record):
    __slots__ = ("index", "witnesses", "vertices")

    def __init__(
        self,
        index: int,
        witnesses: dict[int, list[Fraction]],  # prime -> slopes with denominator > 1
        vertices: dict[int, tuple[Point, ...]],  # every candidate prime -> its hull vertices
    ) -> None:
        self._set("index", index)
        self._set("witnesses", witnesses)
        self._set("vertices", vertices)

    @property
    def single_slope(self) -> bool:
        """Some polygon is one segment whose slope denominator is its length:
        its rise and run are coprime."""
        return any(
            len(hull) == 2 and math.gcd(hull[1][1] - hull[0][1], hull[1][0] - hull[0][0]) == 1
            for hull in self.vertices.values()
        )


def strip_x_powers(f: Poly) -> tuple[int, Poly]:
    """Write f = x^k * h with h(0) != 0; returns (k, h)."""
    if f.is_zero():
        raise DomainError("zero polynomial")
    k = 0
    while f.coeffs[k] == 0:
        k += 1
    return k, Poly(f.coeffs[k:])


def _lower_hull(points: list[Point]) -> list[Point]:
    """The lower hull's vertices, left to right.  A point inside a run of equal
    heights lies on the segment between its neighbours, so it is never a
    vertex: only the first and last points and the ends of each run are tried."""
    hull: list[Point] = []
    before = None  # the height of the previous point
    for pt, after in zip(points, points[1:] + [(None, None)]):
        if before == pt[1] == after[1]:
            continue
        before = pt[1]
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
    vertices = tuple(_lower_hull(points))
    return NewtonPolygon(p, tuple(points), vertices, _segments(vertices))


def _segments(vertices: Sequence[Point]) -> tuple[Segment, ...]:
    return tuple(
        Segment(slope=Fraction(b[1] - a[1], b[0] - a[0]), length=b[0] - a[0], start=a, end=b)
        for a, b in zip(vertices, vertices[1:])
    )


def _ramified_slopes(p: int, hull: Sequence[Point]) -> list[Fraction]:
    """The slopes of denominator > 1 along a hull, from each segment's integer
    (rise, run); a denominator is run / gcd(rise, run), and only these slopes
    become a `Fraction`.  Raises DomainError unless x and the slopes strictly
    increase from left to right, checked on integer cross products."""
    (x0, y0), ramified = hull[0], []
    rise, run = -1, 0  # before the first segment: any slope is larger
    for x1, y1 in hull[1:]:
        dy, dx = y1 - y0, x1 - x0
        if dx <= 0 or dy * run <= rise * dx:
            raise DomainError(f"hull at {p} is not convex from left to right")
        rise, run, x0, y0 = dy, dx, x1, y1
        if run // math.gcd(rise, run) > 1:
            ramified.append(Fraction(rise, run))
    return ramified


def index_report(hulls: dict[int, Sequence[Point]]) -> NewtonIndexReport:
    """The Newton index of an atlas {prime: hull vertices}: the lcm of the slope
    denominators, with the slopes of denominator > 1 as each prime's witnesses.
    Every hull must run from x = 0 to the same last x with strictly
    increasing slopes."""
    index = 1
    witnesses: dict[int, list[Fraction]] = {}
    vertices: dict[int, tuple[Point, ...]] = {}
    end = None
    for p, hull in hulls.items():
        if len(hull) < 2 or hull[0][0] != 0:
            raise DomainError(f"hull at {p} does not start a segment at x = 0")
        ramified = _ramified_slopes(p, hull)
        x = hull[-1][0]
        end = x if end is None else end
        if x != end:
            raise DomainError(f"hull at {p} ends at x = {x}, not at {end}")
        if ramified:
            witnesses[p] = ramified
            for slope in ramified:
                index = math.lcm(index, slope.denominator)
        vertices[p] = tuple(hull)
    return NewtonIndexReport(index=index, witnesses=witnesses, vertices=vertices)


def _valuation_points(f: Poly, p: int) -> list[Point]:
    """(j, ord_p(a_j)) for the nonzero coefficients a_j of f, for a prime p."""
    return [
        (j, _multiplicity(c.numerator, p) - _multiplicity(c.denominator, p))
        for j, c in enumerate(f.coeffs)
        if c
    ]


def newton_polygon(f: Poly, p: int) -> NewtonPolygon:
    if f.is_zero() or f[0] == 0:
        raise DomainError("Newton polygon requires a_0 != 0; strip x-powers first")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return polygon_from_points(p, _valuation_points(f, p))


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
    return index_report({p: _lower_hull(_valuation_points(g, p)) for p in primes})


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
