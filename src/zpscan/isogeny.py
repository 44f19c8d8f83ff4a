"""Cyclic sublattices, homology/de Rham matrices of an isogeny, identity check.

A cyclic degree-M isogeny is realized on lattices: for a primitive
Hermite-form triple (a, b, d) with a*d = M the sublattice

        L' = Z*(a*w1 + b*w2) + Z*(d*w2)   of index M in L = Z*w1 + Z*w2

has cyclic quotient L/L', and z -> M*z descends to a cyclic degree-M isogeny
C/L -> C/L'.  Its homology pushforward sends the basis cycle gamma_j (the
generator w_j) to M*w_j, expressed in the reduced target basis by the integer
matrix adj(H) * Ginv where H = [[a, b], [0, d]] and G is the SL2(Z) reduction
of the target basis.  Pullback of differentials is lower triangular on the
(first kind, second kind) basis because the first-kind line is preserved;
numerically it is recovered as P_target * B * P_source^-1, and the vanishing
of its (1,2) entry is the structural check.

The matrix identity verified throughout:

        A * P_source = P_target * B,   det A = det B = M,

with A = [[a, 0], [b, c]] lower triangular and B = [[p, q], [r, s]] integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import mpmath as mp

from .analytic import PrecisionContext
from .errors import DomainError, StructureViolation
from .periods import (
    FullPeriodMatrix,
    Lattice,
    _quadratic_rows,
    full_period_matrix,
    inv2,
    reduce_tau,
)


@dataclass(frozen=True)
class CyclicSublattice:
    """Primitive Hermite triple (a, b, d): a*d = M, 0 <= b < d, gcd(a, b, d) = 1."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        if self.a < 1 or self.d < 1 or not (0 <= self.b < max(self.d, 1)):
            raise DomainError(f"invalid Hermite triple ({self.a}, {self.b}, {self.d})")
        if gcd(gcd(self.a, self.b), self.d) != 1:
            raise DomainError("sublattice triple must be primitive (cyclic quotient)")

    @property
    def degree(self) -> int:
        return self.a * self.d


@dataclass(frozen=True)
class IsogenyWitness:
    """Verified data of one cyclic isogeny between two period matrices."""

    degree: int
    de_rham: tuple[mp.mpc, mp.mpc, mp.mpc]  # (a, b, c) with matrix [[a,0],[b,c]]
    homology: tuple[int, int, int, int]  # (p, q, r, s)
    residual: mp.mpf

    @property
    def homology_matrix(self) -> mp.matrix:
        p, q, r, s = self.homology
        return mp.matrix([[p, q], [r, s]])

    @property
    def de_rham_matrix(self) -> mp.matrix:
        a, b, c = self.de_rham
        return mp.matrix([[a, 0], [b, c]])


def psi(M: int) -> int:
    """Dedekind psi: the count M * prod_{p | M} (1 + 1/p) of cyclic index-M sublattices."""
    if M < 1:
        raise DomainError("psi requires M >= 1")
    result = M
    n = M
    p = 2
    while p * p <= n:
        if n % p == 0:
            result += result // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        result += result // n
    return result


def cyclic_sublattices(M: int) -> list[CyclicSublattice]:
    """All psi(M) primitive Hermite triples of index M, ordered by (a, b)."""
    if M < 1:
        raise DomainError("cyclic_sublattices requires M >= 1")
    out = []
    for a in range(1, M + 1):
        if M % a:
            continue
        d = M // a
        for b in range(d):
            if gcd(gcd(a, b), d) == 1:
                out.append(CyclicSublattice(a, b, d))
    return out


def isogeny_pair(
    lat: Lattice, sub: CyclicSublattice, ctx: PrecisionContext = None
) -> tuple[Lattice, tuple[int, int, int, int]]:
    """Target lattice (reduced basis) and homology matrix of z -> M*z.

    The homology entries (p, q, r, s) satisfy p*s - q*r = M exactly; the
    pushforward of the source cycles is (p, r) and (q, s) in target
    coordinates.
    """
    ctx = ctx or PrecisionContext()
    a, b, d = sub.a, sub.b, sub.d
    with ctx.workprec():
        u1 = a * lat.omega1 + b * lat.omega2
        u2 = d * lat.omega2
        tau_sub = u2 / u1
        _, (ga, gb, gc, gd) = reduce_tau(tau_sub, ctx)
        t1 = gd * u1 + gc * u2
        t2 = gb * u1 + ga * u2
        target = Lattice(+t1, +t2)
    # integer side, exact: M*(w1; w2) = adj(H) * Ginv * (t1; t2)
    # adj(H) = [[d, -b], [0, a]], Ginv = [[ga, -gc], [-gb, gd]]
    c11 = d * ga + b * gb
    c12 = -d * gc - b * gd
    c21 = -a * gb
    c22 = a * gd
    p, r = c11, c12
    q, s = c21, c22
    assert p * s - q * r == sub.degree
    return target, (p, q, r, s)


def solve_de_rham(
    P1: FullPeriodMatrix,
    P2: FullPeriodMatrix,
    homology: tuple[int, int, int, int],
    ctx: PrecisionContext = None,
) -> tuple[mp.mpc, mp.mpc, mp.mpc]:
    """Solve A = P2 * B * P1^-1 and return its triangular entries (a, b, c).

    Raises StructureViolation when the (1,2) entry of A exceeds tolerance:
    pullback must preserve the first-kind line, so a non-triangular solution
    means the homology matrix does not belong to these period matrices.
    """
    ctx = ctx or PrecisionContext()
    p, q, r, s = homology
    with ctx.workprec():
        B = mp.matrix([[p, q], [r, s]])
        A = P2.p * B * inv2(P1.p)
        scale = max(abs(A[i, j]) for i in range(2) for j in range(2))
        if abs(A[0, 1]) > ctx.tol * max(scale, mp.mpf(1)):
            raise StructureViolation(
                "de Rham matrix is not lower triangular: homology matrix "
                "inconsistent with the given period matrices "
                f"(|A12| = {mp.nstr(abs(A[0, 1]), 8)})"
            )
        return +A[0, 0], +A[1, 0], +A[1, 1]


def verify_isogeny_identity(
    w: IsogenyWitness,
    P1: FullPeriodMatrix,
    P2: FullPeriodMatrix,
    ctx: PrecisionContext = None,
) -> mp.mpf:
    """Residual max-norm of A*P1 - P2*B, plus the two determinant checks.

    Asserts p*s - q*r = M exactly on the integer side and |a*c - M| < tol on
    the de Rham side; the returned residual is the caller's to threshold.
    """
    ctx = ctx or PrecisionContext()
    p, q, r, s = w.homology
    if p * s - q * r != w.degree:
        raise StructureViolation(
            f"homology determinant {p * s - q * r} differs from the degree {w.degree}"
        )
    with ctx.workprec():
        a, b, c = w.de_rham
        if abs(a * c - w.degree) > ctx.tol * max(1, w.degree):
            raise StructureViolation("de Rham determinant a*c does not match the degree")
        A = w.de_rham_matrix
        B = w.homology_matrix
        diff = A * P1.p - P2.p * B
        return +max(abs(diff[i, j]) for i in range(2) for j in range(2))


def make_witness(
    lat: Lattice,
    sub: CyclicSublattice,
    ctx: PrecisionContext = None,
    P1: FullPeriodMatrix = None,
) -> tuple[IsogenyWitness, Lattice, FullPeriodMatrix, FullPeriodMatrix]:
    """Full pipeline: sublattice -> target, homology, de Rham entries, residual.

    P1, when given, must be full_period_matrix(lat, ctx): callers that run every
    sublattice of one lattice compute the source matrix once and pass it in.
    When omitted it is computed here.
    """
    ctx = ctx or PrecisionContext()
    target, homology = isogeny_pair(lat, sub, ctx)
    if P1 is None:
        P1 = full_period_matrix(lat, ctx)
    P2 = full_period_matrix(target, ctx)
    a, b, c = solve_de_rham(P1, P2, homology, ctx)
    witness = IsogenyWitness(
        degree=sub.degree, de_rham=(a, b, c), homology=homology, residual=mp.mpf(0)
    )
    residual = verify_isogeny_identity(witness, P1, P2, ctx)
    witness = IsogenyWitness(
        degree=sub.degree, de_rham=(a, b, c), homology=homology, residual=residual
    )
    return witness, target, P1, P2


def recognize_quadratic(z, bound: int, ctx: PrecisionContext = None):
    """Advisory probe: smallest integer quadratic A*z^2 + B*z + C ~ 0, |A|,|B|,|C| <= bound.

    Unlike CM detection this allows A = 0 (degree-1 relations, i.e. rational
    or integer z) and any sign of the discriminant.  Returns (A, B, C) or None.

    The scan is periods._quadratic_rows: a float screen, then mpmath
    confirmation at working precision.  The answer is the least (A, |B|, |C|,
    residual); A leads that key, so the scan stops after the first row A that
    accepts a relation, with the answer of the full O(bound^2) scan.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        z = mp.mpc(z)
        for hits in _quadratic_rows(z, z * z, bound, ctx.sqrt_tol, 0):
            A, B, C, _, _ = min(hits, key=lambda h: (abs(h[1]), abs(h[2]), h[4]))
            return (A, B, C)
    return None
