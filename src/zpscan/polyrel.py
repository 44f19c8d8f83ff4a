"""Sparse multivariate polynomials in the value-matrix variables X[i,j,k].

Variables are (i, j, k) triples: matrix position (i, j) in {1,2}^2 of the
value matrix of coordinate k.  Coefficients are exact (int / Fraction) where
the inputs are exact, and mpmath mpc otherwise; the two kinds mix by coercing
to mpc, and two mpc are added or multiplied as they are.  MultiPoly.evaluate
coerces each variable's value once per evaluation and computes each power
once; its operation order is fixed (each term c * v1**e1 * v2**e2 * ...
multiplied left to right, the terms summed in insertion order), so a value is
the same bits however often a variable recurs.

Every H-form is h_entries: a cofactor row of one coordinate's matrix m,
pushed through the triangular isogeny matrix [[a, 0], [b, c]] and paired with
the two columns of another coordinate's matrix h.  relations computes its
scalar H-entries with the same function on mp.matrix data, so an identity and
its relation polynomial cannot drift apart.  Sign convention: the rows are
(m22, -m12) ("top") and (-m21, m11) ("bottom"); these are the signs for which
the forms vanish on consistent data (taking both products positively cuts a
different hypersurface).  The relation polynomials built here:

* degenerate branch (degree 2): one collapsed H-entry of a singular/CM pair,
  the bottom row of the singular coordinate paired with the CM coordinate.
* paired product (degree 4): r2*s2*H1^(1)*H2^(1) - r1*s1*H1^(2)*H2^(2).
* double-CM product (degree 8): H1*H2*H3*H4 - p*q*r*s*det(X_k3)^2*det(X_k2)^2,
  with (H1, H2) from the bottom and (H3, H4) from the top row of the target
  coordinate, homogenized by the squared determinant quadrics, which evaluate
  to 1 on the determinant-one locus.

Non-membership in the ideal generated by the smooth-coordinate determinant
quadrics is certified by a witness point: a random rational point of the
det = 1 locus where the polynomial does not vanish.  Exhausting the sampling
budget raises Inconclusive and never claims membership.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .analytic import PrecisionContext, to_complex
from .errors import DegenerateInput, DomainError, Inconclusive, MissingAssignment

Var = tuple  # (i, j, k)


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


def _to_mpc(c) -> mp.mpc:
    if isinstance(c, Fraction):
        return mp.mpc(c.numerator) / c.denominator
    return to_complex(c)


def _is_zero(c) -> bool:
    # by truthiness: `mpc == 0` would convert the 0 first
    return not (c if _is_exact(c) else _to_mpc(c))


def _same_kind(x, y) -> bool:
    """Both mpc or both exact: then + and * need no coercion."""
    return (type(x) is mp.mpc and type(y) is mp.mpc) or (_is_exact(x) and _is_exact(y))


def _cadd(x, y):
    if _same_kind(x, y):
        return x + y
    return _to_mpc(x) + _to_mpc(y)


def _cmul(x, y):
    if _same_kind(x, y):
        return x * y
    # mpc * int (mpc_mul_int) rounds the exact product once, as the coercion does
    # for an int that fits the working precision
    if type(x) is mp.mpc and type(y) is int:
        return x * y
    if type(x) is int and type(y) is mp.mpc:
        return y * x
    return _to_mpc(x) * _to_mpc(y)


class MultiPoly:
    """Sparse polynomial: monomial (sorted ((i,j,k), exp) pairs) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                self._accumulate(mono, c)

    def _accumulate(self, mono, c):
        cur = self.terms.get(mono)
        new = c if cur is None else _cadd(cur, c)
        if not new:
            self.terms.pop(mono, None)
            return
        self.terms[mono] = new

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        p = cls()
        p._accumulate((), c)
        return p

    @classmethod
    def variable(cls, i: int, j: int, k: int, coeff=1) -> "MultiPoly":
        p = cls()
        p._accumulate((((i, j, k), 1),), coeff)
        return p

    @classmethod
    def linear(cls, pairs) -> "MultiPoly":
        """Linear form from (coeff, (i, j, k)) pairs."""
        p = cls()
        for coeff, var in pairs:
            p._accumulate(((tuple(var), 1),), coeff)
        return p

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = MultiPoly()
        out.terms = dict(self.terms)
        for mono, c in other.terms.items():
            out._accumulate(mono, c)
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly()
        out.terms = {
            m: -c if type(c) is mp.mpc or _is_exact(c) else _cmul(c, -1)
            for m, c in self.terms.items()
        }
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scaled(other)
        out = MultiPoly()
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = dict(m1)
                for var, e in m2:
                    merged[var] = merged.get(var, 0) + e
                mono = tuple(sorted(merged.items()))
                out._accumulate(mono, _cmul(c1, c2))
        return out

    __rmul__ = __mul__

    def scaled(self, c) -> "MultiPoly":
        out = MultiPoly()
        if _is_zero(c):
            return out
        out.terms = {m: _cmul(cc, c) for m, cc in self.terms.items()}
        return out

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for var, _ in mono:
                out.add(var)
        return out

    def monomial_degrees(self) -> set:
        return {sum(e for _, e in mono) for mono in self.terms}

    def degree(self) -> int:
        degs = self.monomial_degrees()
        return max(degs) if degs else -1

    def is_homogeneous(self) -> bool:
        return len(self.monomial_degrees()) <= 1

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.terms.values())

    def coeff_norm(self) -> mp.mpf:
        if not self.terms:
            return mp.mpf(0)
        return max(abs(_to_mpc(c)) for c in self.terms.values())

    def evaluate(self, assignment: dict, exact: bool = None):
        """Value at assignment {(i,j,k): value}; exact when inputs permit it.

        Each variable's value is coerced (to mpc on the numeric path) once,
        and each power value**e is computed once, on its first use.  Each
        term is c * v1**e1 * v2**e2 * ... multiplied left to right, and the
        terms are summed in insertion order.
        """
        needed = self.variables()
        missing = [v for v in needed if v not in assignment]
        if missing:
            raise MissingAssignment(f"unassigned variables: {sorted(missing)}")
        if exact is None:
            exact = self.is_exact() and all(
                _is_exact(assignment[v]) for v in needed
            )
        values = assignment if exact else {v: _to_mpc(assignment[v]) for v in needed}
        total = Fraction(0) if exact else mp.mpc(0)
        powers = {}
        for mono, c in self.terms.items():
            term = c if exact else _to_mpc(c)
            for factor in mono:
                power = powers.get(factor)
                if power is None:
                    var, e = factor
                    power = powers[factor] = values[var] ** e
                term = term * power
            total = total + term
        return total

    def __repr__(self):
        def vname(var):
            i, j, k = var
            return f"X{i}{j}_{k}"

        parts = []
        for mono, c in sorted(self.terms.items()):
            mono_s = "*".join(
                vname(v) + (f"^{e}" if e > 1 else "") for v, e in mono
            ) or "1"
            parts.append(f"({c})*{mono_s}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class IdealI0:
    """Ideal generated by det(X[.,.,k]) - 1 over the smooth coordinates k."""

    smooth_coords: frozenset

    def generators(self) -> list[MultiPoly]:
        return [det_poly(k) + MultiPoly.constant(-1) for k in sorted(self.smooth_coords)]


def det_poly(k: int) -> MultiPoly:
    """The determinant quadric X11*X22 - X12*X21 of coordinate k."""
    return MultiPoly.variable(1, 1, k) * MultiPoly.variable(2, 2, k) - MultiPoly.variable(
        1, 2, k
    ) * MultiPoly.variable(2, 1, k)


def matrix_polys(pi, k: int) -> dict:
    """Entries of Pi * X_k as linear forms keyed (i, j); pi is a 2x2 of scalars (or None = identity)."""
    if pi is None:
        return {(i, j): MultiPoly.variable(i + 1, j + 1, k) for i in range(2) for j in range(2)}
    return {
        (i, j): MultiPoly.linear(
            [(_entry(pi, i, 0), (1, j + 1, k)), (_entry(pi, i, 1), (2, j + 1, k))]
        )
        for i in range(2)
        for j in range(2)
    }


def _entry(pi, i, j):
    if isinstance(pi, mp.matrix):
        return pi[i, j]
    return pi[i][j]


def h_entries(m, a, b, c, h, variant: str):
    """(g . h[:, 0], g . h[:, 1]) for the cofactor row g of m pushed through [[a, 0], [b, c]].

    "top" pushes (m22, -m12), which kills m's second column, to
    g = (a*m22 - b*m12, -c*m12); "bottom" pushes (-m21, m11), which kills the
    first, to g = (-a*m21 + b*m11, c*m11).  m and h are 2x2 arrays indexed
    [i, j] (mp.matrix, or matrix_polys dicts) of numbers or MultiPoly.
    """
    # entries on the left: mpc * MultiPoly reaches MultiPoly.__rmul__ only
    # after mpmath has failed to convert the polynomial, formatting its repr
    if variant == "top":
        g1, g2 = m[1, 1] * a - m[0, 1] * b, m[0, 1] * -c
    elif variant == "bottom":
        g1, g2 = m[1, 0] * -a + m[0, 0] * b, m[0, 0] * c
    else:
        raise DomainError(f"unknown h_entries variant {variant!r}")
    return g1 * h[0, 0] + g2 * h[1, 0], g1 * h[0, 1] + g2 * h[1, 1]


def pair_h_polys(
    a, b, c, pi_sing, pi_cm, k_sing: int, k_cm: int, ctx: PrecisionContext = None
) -> tuple[MultiPoly, MultiPoly]:
    """(H1, H2) of a singular/CM pair: bilinear in X_k_sing's first column and X_k_cm.

    Like every builder below, its coefficients are multiplied at ctx's
    working precision, whatever the caller's.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        return h_entries(
            matrix_polys(pi_sing, k_sing), a, b, c, matrix_polys(pi_cm, k_cm), "bottom"
        )


def build_R_degenerate(
    vanishing: int,
    a,
    b,
    c,
    pi_sing,
    pi_cm,
    k_sing: int = 1,
    k_cm: int = 3,
    ctx: PrecisionContext = None,
) -> MultiPoly:
    """Degree-2 relation polynomial for a collapsed H-entry of a singular/CM pair.

    vanishing = 1 encodes H1 = 0 (the r = 0 branch, pairing with the first
    column of the smooth coordinate), vanishing = 2 encodes H2 = 0 (s = 0,
    second column).  Monomial support is contained in
    {X[i,1,k_sing] * X[m,col,k_cm]}.
    """
    if _is_zero(a) or _is_zero(c):
        raise DegenerateInput("isogeny matrix must have a, c nonzero")
    if vanishing not in (1, 2):
        raise DegenerateInput("vanishing index must be 1 or 2")
    return pair_h_polys(a, b, c, pi_sing, pi_cm, k_sing, k_cm, ctx)[vanishing - 1]


@dataclass(frozen=True)
class PairConfig:
    """One singular/CM isogenous pair, as needed by the polynomial builders."""

    a: object
    b: object
    c: object
    pi_sing: object
    pi_cm: object
    k_sing: int
    k_cm: int
    r: int
    s: int


def build_R_pair_product(
    pair1: PairConfig, pair2: PairConfig, ctx: PrecisionContext = None
) -> MultiPoly:
    """Degree-4 combined relation r2*s2*H1^(1)*H2^(1) - r1*s1*H1^(2)*H2^(2)."""
    if pair1.r * pair1.s == 0 or pair2.r * pair2.s == 0:
        raise DegenerateInput(
            "combined product requires nonzero homology integers; "
            "use build_R_degenerate for the collapsed branch"
        )
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        (H1a, H2a), (H1b, H2b) = (
            pair_h_polys(p.a, p.b, p.c, p.pi_sing, p.pi_cm, p.k_sing, p.k_cm, ctx)
            for p in (pair1, pair2)
        )
        lhs = (H1a * H2a).scaled(pair2.r * pair2.s)
        rhs = (H1b * H2b).scaled(pair1.r * pair1.s)
        return lhs - rhs


@dataclass(frozen=True)
class SecondWayConfig:
    """Double-CM pair data for the degree-8 relation polynomial."""

    a: object
    b: object
    c: object
    pi_source: object  # gauge of the source CM coordinate (k2)
    pi_target: object  # gauge of the target CM coordinate (k3)
    k_source: int
    k_target: int
    p: int
    q: int
    r: int
    s: int


def second_way_h_polys(cfg: SecondWayConfig, ctx: PrecisionContext = None):
    """The four H polynomials (bilinear in the two coordinate matrices)."""
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        h3 = matrix_polys(cfg.pi_target, cfg.k_target)
        h2 = matrix_polys(cfg.pi_source, cfg.k_source)
        bottom = h_entries(h3, cfg.a, cfg.b, cfg.c, h2, "bottom")
        return bottom + h_entries(h3, cfg.a, cfg.b, cfg.c, h2, "top")


def build_R_second_way(cfg: SecondWayConfig, ctx: PrecisionContext = None) -> MultiPoly:
    """Degree-8 relation H1*H2*H3*H4 - p*q*r*s*det(X_target)^2*det(X_source)^2."""
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        H1, H2, H3, H4 = second_way_h_polys(cfg, ctx)
        lhs = H1 * H2 * H3 * H4
        dt = det_poly(cfg.k_target)
        ds = det_poly(cfg.k_source)
        rhs = (dt * dt * ds * ds).scaled(cfg.p * cfg.q * cfg.r * cfg.s)
        return lhs - rhs


@dataclass(frozen=True)
class NonMembershipCertificate:
    """Witness point on the det = 1 locus where the polynomial does not vanish."""

    point: dict
    value: object
    attempts_used: int


def not_in_I0(
    R: MultiPoly,
    ideal: IdealI0,
    attempts: int = 5,
    ctx: PrecisionContext = None,
    seed: int = 0,
) -> NonMembershipCertificate:
    """Certify R not in the determinant ideal by a rational witness point.

    Samples points with det(X_k) = 1 for every smooth k (three free rational
    entries, the fourth solved) and unconstrained rational entries elsewhere.
    A point where |R| exceeds sqrt(tol) * max-coefficient certifies
    non-membership, since every element of the ideal vanishes there.  Raises
    Inconclusive when the budget is exhausted; that is not a membership claim.
    """
    ctx = ctx or PrecisionContext()
    if attempts < 1:
        raise DomainError(f"attempts must be at least 1, got {attempts}")
    if R.is_zero():
        raise DegenerateInput("the zero polynomial is in every ideal")
    rng = random.Random(seed)
    needed = R.variables()
    coords = sorted({k for (_, _, k) in needed})
    exact = R.is_exact()
    norm = R.coeff_norm()
    threshold = ctx.sqrt_tol * max(norm, mp.mpf(1))
    for attempt in range(1, attempts + 1):
        assignment = {}
        for k in coords:
            if k in ideal.smooth_coords:
                x11 = _nonzero_rational(rng)
                x12 = _rational(rng)
                x21 = _rational(rng)
                x22 = (1 + x12 * x21) / x11
                full = {(1, 1, k): x11, (1, 2, k): x12, (2, 1, k): x21, (2, 2, k): x22}
                for var in needed:
                    if var[2] == k:
                        assignment[var] = full[var]
            else:
                for var in needed:
                    if var[2] == k:
                        assignment[var] = _rational(rng)
        if exact:
            value = R.evaluate(assignment, exact=True)
            if value != 0:
                return NonMembershipCertificate(
                    point=assignment, value=value, attempts_used=attempt
                )
        else:
            with ctx.workprec():
                value = R.evaluate(assignment, exact=False)
                if abs(value) > threshold:
                    return NonMembershipCertificate(
                        point=assignment, value=+value, attempts_used=attempt
                    )
    raise Inconclusive(
        f"no witness point found in {attempts} attempts; membership NOT certified"
    )


def evaluate(R: MultiPoly, assignment: dict, ctx: PrecisionContext = None):
    """Module-level evaluation helper (workprec-managed for numeric inputs)."""
    ctx = ctx or PrecisionContext()
    if R.is_exact() and all(_is_exact(v) for v in assignment.values()):
        return R.evaluate(assignment, exact=True)
    with ctx.workprec():
        return +R.evaluate(assignment, exact=False)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        f = _rational(rng)
        if f != 0:
            return f
