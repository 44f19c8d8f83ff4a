"""Exact integer univariate polynomials: gcd, resultants, squarefree parts, heights.

Coefficients are Python big ints, dense ascending (coeffs[k] multiplies x**k),
normalized so the leading coefficient is nonzero; the zero polynomial is the
empty list.  Rational functions over Q(t) are numerator/denominator pairs of
IntPoly.

gcd runs the subresultant polynomial remainder sequence on primitive parts,
which keeps intermediate coefficient growth polynomial.  The resultant is the
Sylvester determinant (rows of p first) computed by fraction-free Bareiss
elimination, so the sign convention is fixed by the matrix layout:
res(x - a, x - b) = a - b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

import mpmath as mp

from .analytic import PrecisionContext, polyroots
from .errors import DegenerateInput, DomainError


class IntPoly:
    """Dense integer polynomial, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return f"IntPoly({self.coeffs})"

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = IntPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation; x may be int, Fraction, mpf or mpc."""
        if isinstance(x, int):
            acc = 0
        elif isinstance(x, Fraction):
            acc = Fraction(0)
        else:
            acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- content / division -------------------------------------------------

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = int_gcd(g, abs(c))
            if g == 1:
                break
        return g

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient; zero stays zero."""
        if self.is_zero():
            return IntPoly([])
        g = self.content()
        sign = 1 if self.lead > 0 else -1
        return IntPoly([sign * c // g for c in self.coeffs])

    def exact_div(self, other: "IntPoly") -> "IntPoly | None":
        """Quotient self/other when the division is exact over Z, else None."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return IntPoly([])
        if self.degree < other.degree:
            return None
        rem = [Fraction(c) for c in self.coeffs]
        dn = other.degree
        dlead = Fraction(other.lead)
        q = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(q) - 1, -1, -1):
            c = rem[dn + k] / dlead
            q[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[i + k] -= c * oc
        if any(rem) or any(c.denominator != 1 for c in q):
            return None
        return IntPoly([int(c) for c in q])

    def divides(self, other: "IntPoly") -> bool:
        """Whether self divides other exactly over Q (content-insensitive)."""
        if self.is_zero():
            return other.is_zero()
        _, rem = _pseudo_divmod(other.coeffs, self.coeffs)
        return not any(rem)


def _pseudo_divmod(num, den):
    """Strict pseudo-division: quotient and remainder of lead(den)**(delta+1) * num by den."""
    dn = len(den) - 1
    delta = (len(num) - 1) - dn
    lead = den[-1]
    r = list(num)
    q = [0] * (delta + 1)
    for k in range(delta, -1, -1):
        c = r[dn + k]
        r = [x * lead for x in r]
        q = [x * lead for x in q]
        q[k] += c
        for i, dc in enumerate(den):
            r[i + k] -= c * dc
    return q, r


def gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive positive-leading gcd via the subresultant remainder sequence.

    The integer content is deliberately dropped: the result is the primitive
    gcd, which is what divisibility bookkeeping downstream wants.
    """
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()
    a = p.primitive().coeffs
    b = q.primitive().coeffs
    if len(a) < len(b):
        a, b = b, a
    g, h = 1, 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        _, rem = _pseudo_divmod(a, b)
        rem = IntPoly(rem)
        if rem.is_zero():
            return IntPoly(b).primitive()
        if rem.degree == 0:
            return IntPoly([1])
        divisor = g * h ** delta
        a = b
        b = []
        for c in rem.coeffs:
            cq, cr = divmod(c, divisor)
            assert cr == 0, "subresultant divisor failed to divide exactly"
            b.append(cq)
        g = a[-1]
        if delta >= 1:
            h = g ** delta // h ** (delta - 1)
        # delta == 0 keeps h


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Sylvester determinant with p-rows first, by fraction-free Bareiss elimination."""
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        return 0
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return p.lead ** n
    if n == 0:
        return q.lead ** m
    size = m + n
    mat = [[0] * size for _ in range(size)]
    pc = list(reversed(p.coeffs))  # descending
    qc = list(reversed(q.coeffs))
    for i in range(n):
        for j, c in enumerate(pc):
            mat[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(qc):
            mat[n + i][i + j] = c
    # Bareiss: exact integer elimination
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, size) if mat[r][k] != 0), None)
            if pivot_row is None:
                return 0
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def squarefree(p: IntPoly) -> IntPoly:
    """Product of the distinct irreducible factors of p, primitive, positive lead."""
    if p.is_zero():
        raise DomainError("squarefree part of the zero polynomial is undefined")
    if p.degree == 0:
        return IntPoly([1])
    g = gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    qq, rr = _pseudo_divmod(p.primitive().coeffs, g.coeffs)
    assert not any(rr), "gcd(p, p') does not divide p"
    return IntPoly(qq).primitive()


def mahler_height(p: IntPoly, ctx: PrecisionContext = None) -> mp.mpf:
    """(1/deg) * (log|lead| + sum log max(1, |root|)) of the primitive part.

    Content is removed first, making the height invariant under integer
    scaling (heights of algebraic numbers are read off primitive minimal
    polynomials).  Roots are counted with multiplicity.
    """
    ctx = ctx or PrecisionContext()
    if p.is_zero() or p.degree < 1:
        raise DomainError("mahler_height requires degree >= 1")
    p = p.primitive()
    return _mahler_height_of_roots(p.lead, polyroots(p.coeffs, ctx), ctx)


def _mahler_height_of_roots(lead: int, roots, ctx: PrecisionContext) -> mp.mpf:
    """(1/deg) * (log|lead| + sum log max(1, |root|)) for a primitive polynomial's roots."""
    with ctx.workprec():
        acc = mp.log(abs(mp.mpf(lead)))
        for r in roots:
            m = abs(r)
            if m > 1:
                acc += mp.log(m)
        return +(acc / len(roots))


@dataclass(frozen=True)
class AlgebraicPointSet:
    """Squarefree defining polynomial with isolated roots and a degree bound.

    degree_bound is the degree of the squarefree factor, an upper bound for
    the degree of each individual root: irreducibility is not tested.
    """

    defining: IntPoly
    degree_bound: int
    roots: tuple

    @classmethod
    def from_poly(cls, p: IntPoly, ctx: PrecisionContext = None) -> "AlgebraicPointSet":
        ctx = ctx or PrecisionContext()
        sf = squarefree(p)
        if sf.degree < 1:
            return cls(defining=sf, degree_bound=0, roots=())
        roots = polyroots(sf.coeffs, ctx)
        return cls(defining=sf, degree_bound=sf.degree, roots=tuple(roots))


@dataclass(frozen=True)
class RatFunc:
    """Rational function num/den over Q(t) with integer-polynomial parts."""

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise DegenerateInput("rational function with zero denominator")

    @classmethod
    def from_coeffs(cls, num, den=(1,)) -> "RatFunc":
        return cls(IntPoly(num), IntPoly(den))

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0 or self.num.is_zero()

    def same_map(self, other: "RatFunc") -> bool:
        """Equality as rational functions (cross-multiplied)."""
        return (self.num * other.den) == (other.num * self.den)
