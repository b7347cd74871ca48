"""p-adic Newton polygons (lower convex hulls) and the Newton index.

The polygon of f = sum a_j x^j at a prime p is the lower convex hull of the
points (j, ord_p(a_j)); zero coefficients are simply omitted since a point at
height +infinity can never lie on a lower hull.  The Newton index is the lcm
of the slope denominators over the finite set of primes dividing a_0 * a_n of
the primitive part of f.

A polygon is fixed by its hull vertices, and the index, its witness slopes
and the single-slope test need only each segment's integer (rise, run): a
slope's denominator is run // gcd(rise, run).  So a `NewtonIndexReport`
holds the index and the vertices at every candidate prime, and a slope
becomes a `Fraction` only when it is read: `witnesses` builds the slopes of
denominator > 1, `witness(q)` only the one it returns.  `index_report` is
the one index builder.  `newton_index` feeds it the hulls of f's primitive
integer part g: its candidate primes are those of g_0 and those of g_n,
each end factored alone, and at each the hull is flat at height 0 between
the first and the last coefficient prime to p, so only the points outside
that run get a valuation.  `glp` feeds it hulls it builds from the small
factors of the GLP coefficients.  Both push one candidate vertex at a time
with `_hull_push`, the monotone-chain step of `_lower_hull`.  `glp` also
hands it the GLP hulls that need no walk, at primes p with p^2 > n, as the
parameters of a staircase; `_staircase` writes down their vertices and
reads their slope denominators off the parameters.  A `NewtonPolygon`
record, built only by `newton_polygon`, keeps f's own points and the hull
vertices; its `Segment`s, each with a `Fraction` slope, are built from the
vertices when read.  The record and `index_report` check the convexity of a
walked hull by the same integer walk; `_staircase` checks the parameters
that make a staircase convex.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._record import Record
from .errors import DomainError
from .polys import Poly, primitive_scale
from .primes import _balanced, _multiplicity, is_prime, prime_factors

Point = tuple[int, int]


class Segment(Record):
    __slots__ = ("slope", "length", "start", "end")

    def __init__(self, slope: Fraction, length: int, start: Point, end: Point) -> None:
        self._set("slope", slope)
        self._set("length", length)
        self._set("start", start)
        self._set("end", end)


class NewtonPolygon(Record):
    __slots__ = ("prime", "points", "vertices")

    def __init__(self, prime: int, points: tuple[Point, ...], vertices: tuple[Point, ...]) -> None:
        self._set("prime", prime)
        self._set("points", points)
        self._set("vertices", vertices)
        # the hull check shared with index_report, then the endpoints;
        # explicit raises, which survive `python -O`
        _hull_denominators(prime, vertices, set())
        if not (vertices[0] == points[0] and vertices[-1] == points[-1]):
            raise DomainError("Newton polygon is not a convex hull of its points")

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The hull's segments, left to right, built from the vertices on each read."""
        v = self.vertices
        return tuple(
            Segment(slope=Fraction(b[1] - a[1], b[0] - a[0]), length=b[0] - a[0], start=a, end=b)
            for a, b in zip(v, v[1:])
        )

    @property
    def slopes(self) -> list[Fraction]:
        return [s.slope for s in self.segments]


class NewtonIndexReport(Record):
    __slots__ = ("index", "vertices")

    def __init__(
        self,
        index: int,
        vertices: dict[int, tuple[Point, ...]],  # every candidate prime -> its hull vertices
    ) -> None:
        self._set("index", index)
        self._set("vertices", vertices)

    @property
    def witnesses(self) -> dict[int, list[Fraction]]:
        """prime -> its slopes of denominator > 1 (run does not divide rise),
        left to right, for each prime of `vertices` that has one."""
        out = {}
        for p, hull in self.vertices.items():
            pairs = ((y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:]))
            if slopes := [Fraction(rise, run) for rise, run in pairs if rise % run]:
                out[p] = slopes
        return out

    def witness(self, q: int) -> tuple[int, Fraction]:
        """The first (prime, slope) with q dividing the slope's denominator, which
        divides the run (tested first); primes ascending, segments left to right."""
        vertices = self.vertices
        for p in sorted(vertices):
            points = iter(vertices[p])  # each vertex is unpacked once
            x0, y0 = next(points, (0, 0))  # an empty hull has no segment
            for x1, y1 in points:
                if not (x1 - x0) % q:
                    rise, run = y1 - y0, x1 - x0
                    if not run // math.gcd(rise, run) % q:
                        return p, Fraction(rise, run)
                x0, y0 = x1, y1
        raise DomainError(f"no witness slope for window prime {q}")

    @property
    def single_slope(self) -> bool:
        """Some polygon is one segment whose slope denominator is its length:
        its rise and run are coprime."""
        return any(
            len(hull) == 2 and math.gcd(hull[1][1] - hull[0][1], hull[1][0] - hull[0][0]) == 1
            for hull in self.vertices.values()
        )


def _lower_hull(points: list[Point]) -> list[Point]:
    """The lower hull's vertices, left to right, of points ascending in x
    (monotone chain); a point on a segment is never a vertex."""
    hull: list[Point] = []
    for x, y in points:
        _hull_push(hull, x, y)
    return hull


def _hull_push(hull: list[Point], x: int, y: int) -> None:
    """One monotone-chain step: append (x, y), right of every vertex, after
    popping the vertices that it leaves on or above the hull."""
    while len(hull) >= 2:
        (x1, y1), (x2, y2) = hull[-2], hull[-1]
        if (x2 - x1) * (y - y1) > (y2 - y1) * (x - x1):
            break
        hull.pop()
    hull.append((x, y))


def _hull_denominators(p: int, hull: Sequence[Point], dens: set[int]) -> None:
    """Add the slope denominators > 1 along a hull to dens.  Raises
    DomainError unless x and the slopes strictly increase from left to
    right, checked on integer cross products."""
    x0, y0 = hull[0]
    rise, run = -1, 0  # before the first segment: any slope is larger
    for x1, y1 in hull[1:]:
        dy, dx = y1 - y0, x1 - x0
        if dx <= 0 or dy * run <= rise * dx:
            raise DomainError(f"hull at {p} is not convex from left to right")
        if dy % dx:
            dens.add(dx // math.gcd(dy, dx))
        rise, run = dy, dx
        x0, y0 = x1, y1


def index_report(hulls: dict[int, Sequence], n: Optional[int] = None) -> NewtonIndexReport:
    """The Newton index of an atlas {prime: hull}: the lcm of the slope
    denominators, in integers.  A hull is its vertices, walked: they must run
    from x = 0 to the same last x (n, when given) with strictly increasing
    slopes, checked on cross products.  Or it is written down as the integer
    parameters (H, s, e) of a staircase that ends at x = n (see
    `_staircase`), which are checked in place of cross products.  The distinct
    denominators are collected first and their lcm taken once, in a balanced
    tree, as folding them into the index one by one is quadratic in its size
    (about lcm(1..n) for a GLP).  The tree's leaves are runs of 64
    denominators, each one `math.lcm` call, so that the few of a small atlas
    take one call."""
    end = n
    dens: set[int] = set()
    vertices: dict[int, tuple[Point, ...]] = {}
    for p, hull in hulls.items():
        if len(hull) < 2:
            raise DomainError(f"hull at {p} does not start a segment at x = 0")
        if isinstance(hull[0], int):  # written down as (H, s, e)
            if n is None:
                raise DomainError(f"hull at {p} is written down, but n is not given")
            vertices[p] = _staircase(p, n, *hull, dens)
            continue
        if hull[0][0] != 0:
            raise DomainError(f"hull at {p} does not start a segment at x = 0")
        _hull_denominators(p, hull, dens)
        if hull[-1][0] != end:  # the first hull sets the end, unless n does
            if end is not None:
                raise DomainError(f"hull at {p} ends at x = {hull[-1][0]}, not at {end}")
            end = hull[-1][0]
        vertices[p] = tuple(hull)
    terms = list(dens)
    index = _balanced(math.lcm, [math.lcm(*terms[i : i + 64]) for i in range(0, len(terms), 64)])
    return NewtonIndexReport(index=index, vertices=vertices)


def _staircase(p: int, n: int, H: int, s: int, e: int, dens: set[int]) -> tuple[Point, ...]:
    """The vertices, from x = 0 to n, of a staircase hull at p, with the
    denominators of its sloped segments added to dens.  The staircase has H
    drops of e = 1 each, one per block [mp, mp + p), at offset s = k mod p;
    or H = 1 drop of any e.  With r = n mod p: when 0 < s <= r, the vertices
    are (0, H), (s, H - 1), ((H - 1)p + s, 0), (n, 0) (slopes -1/s, -1/p,
    0), or (0, e), (s, 0), (n, 0) when H = 1 (slope -e/s); otherwise they
    are (0, H + e - 1), (Hp, 0), (n, 0).  A last (n, 0) that repeats the
    vertex before it is left out.  Raises DomainError unless H >= 1,
    0 <= s < p, e >= 1, e = 1 when H > 1 and the bend is at x <= n: then x
    and the slopes strictly increase from left to right."""
    if H < 1:
        raise DomainError(f"staircase at {p} has H = {H} drops, not at least 1")
    if not 0 <= s < p:
        raise DomainError(f"staircase at {p} has its drops at offset {s}, not in [0, {p})")
    if e < 1 or (e > 1 and H > 1):
        raise DomainError(f"staircase at {p} has H = {H} drops of e = {e}: e >= 1, and e = 1 if H > 1")
    if 0 < s <= n % p:
        x = (H - 1) * p + s
        hull = [(0, H), (s, H - 1), (x, 0)] if H > 1 else [(0, e), (s, 0)]
        dens.add(s // math.gcd(e, s))
        if H > 1:
            dens.add(p)
    else:
        x = H * p
        hull = [(0, H + e - 1), (x, 0)]
        dens.add(p // math.gcd(e, p))
    if x > n:
        raise DomainError(f"staircase at {p} bends at x = {x}, past n = {n}")
    if x < n:
        hull.append((n, 0))
    return tuple(hull)


def _valuation_points(f: Poly, p: int) -> list[Point]:
    """(j, ord_p(a_j)) for the nonzero coefficients a_j of f, for a prime p."""
    return [
        (j, _multiplicity(c.numerator, p) - _multiplicity(c.denominator, p))
        for j, c in enumerate(f.coeffs)
        if c
    ]


def newton_polygon(f: Poly, p: int) -> NewtonPolygon:
    """The Newton polygon of f at p: the lower convex hull of f's own points
    (j, ord_p(a_j)), checked by the NewtonPolygon record."""
    if f.is_zero() or f[0] == 0:
        raise DomainError("Newton polygon requires a_0 != 0; strip x-powers first")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    points = _valuation_points(f, p)
    return NewtonPolygon(p, tuple(points), tuple(_lower_hull(points)))


def newton_index(f: Poly) -> NewtonIndexReport:
    """lcm of the slope denominators over all contributing primes.

    Scaling f by a nonzero rational only translates each polygon vertically,
    and a factor x^k only moves it sideways, so the index is read off the
    integer coefficients g of the primitive part with its x-powers dropped:
    outside the primes of g_0 * g_n each polygon is one slope-0 segment.
    """
    if f.is_zero():
        raise DomainError("zero polynomial")
    g, _ = primitive_scale(f)
    g = g[next(j for j, c in enumerate(g) if c):]  # x^k * h -> h
    # the primes of g_0 * g_n, each end factored alone: trial division of an
    # end stops at p^2 > m long before it would on their product
    primes = sorted(prime_factors(g[0]) | prime_factors(g[-1])) if len(g) > 1 else []
    return index_report({p: _hull_from_the_ends(g, p) for p in primes})


def _hull_from_the_ends(g: list[int], p: int) -> list[Point]:
    """The lower hull of the points (j, ord_p g_j), g_j != 0, of a primitive
    integer g at a prime p.  Some g_j is a unit at p, so the hull is flat at
    height 0 from the first unit lo to the last hi; the points between lie
    on or above it, so only those outside [lo, hi] get a valuation."""
    lo, hi = 0, len(g) - 1
    while g[lo] % p == 0:
        lo += 1
    while g[hi] % p == 0:
        hi -= 1
    hull: list[Point] = []
    for j in range(lo):
        if g[j]:
            _hull_push(hull, j, _multiplicity(g[j], p))
    _hull_push(hull, lo, 0)
    if hi > lo:
        _hull_push(hull, hi, 0)
    for j in range(hi + 1, len(g)):
        if g[j]:
            _hull_push(hull, j, _multiplicity(g[j], p))
    return hull


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
