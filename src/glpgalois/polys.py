"""Dense univariate polynomials over Q with exact rational coefficients.

A polynomial is a tuple of `fractions.Fraction` coefficients in ascending
degree order, so ``Poly.from_coeffs([2, -4, 1])`` is x^2 - 4x + 2.  The zero
polynomial has an empty coefficient tuple and degree -1.  All operations are
exact; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from ._record import Record
from .errors import DomainError, ZeroPolynomialError

Rational = Union[int, Fraction]


class Poly(Record):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        self._set("coeffs", coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[Rational]) -> "Poly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        if not isinstance(other, Poly):
            return Poly.from_coeffs([c * Fraction(other) for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.from_coeffs(out)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly.from_coeffs([j * c for j, c in enumerate(self.coeffs)][1:])

    def shift(self, mu: Rational) -> "Poly":
        """Return g with g(x) = f(x - mu), by repeated synthetic division."""
        if self.is_zero():
            raise ZeroPolynomialError("cannot shift the zero polynomial")
        t = -Fraction(mu)  # g(x) = f(x + t)
        b = list(self.coeffs)
        n = len(b)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                b[j] += t * b[j + 1]
        return Poly.from_coeffs(b)

    def scale_x(self, c: Rational) -> "Poly":
        """Return f(c*x)."""
        c = Fraction(c)
        return Poly.from_coeffs([a * c**j for j, a in enumerate(self.coeffs)])

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)!r})"


def poly_from_coeffs(coeffs: Iterable[Rational]) -> Poly:
    return Poly.from_coeffs(coeffs)


def parse_poly(text: str) -> Poly:
    """Parse comma-separated ascending coefficients, e.g. "2,-4,1" or "1/2,0,3"."""
    text = text.strip()
    if not text:
        return Poly(())
    try:
        return Poly.from_coeffs(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse polynomial {text!r}: {exc}") from None


def render_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def primitive_scale(f: Poly) -> tuple[Poly, Fraction]:
    """Write f = c * g with g a primitive integer polynomial (content 1,
    positive leading coefficient); returns (g, c)."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no primitive part")
    den_lcm = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den_lcm) for c in f.coeffs]
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    g = Poly.from_coeffs([a // content for a in ints])
    return g, Fraction(content, den_lcm)


def _sylvester(fd: Sequence[int], gd: Sequence[int]) -> list[list[int]]:
    # fd, gd: descending integer coefficients; sizes n+1, m+1 with n,m >= 1
    n = len(fd) - 1
    m = len(gd) - 1
    rows = []
    for i in range(m):
        rows.append([0] * i + list(fd) + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + list(gd) + [0] * (n - 1 - i))
    return rows


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    size = len(m)
    if size == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) via the Sylvester determinant, computed fraction-free on the
    primitive integer parts with the rational contents reapplied."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("resultant of the zero polynomial is undefined")
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    fp, cf = primitive_scale(f)
    gp, cg = primitive_scale(g)
    fd = [int(c) for c in reversed(fp.coeffs)]
    gd = [int(c) for c in reversed(gp.coeffs)]
    det = _bareiss_det(_sylvester(fd, gd))
    return cf**m * cg**n * det


def discriminant(f: Poly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise DomainError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading
