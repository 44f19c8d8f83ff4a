"""Lattices, full period/quasi-period matrices, CM detection and CM-normalized splitting.

Period matrix convention
------------------------
For a lattice L = Z*w1 + Z*w2 with Im(w2/w1) > 0, the full period matrix is

        P = [ w1   w2  ]
            [ r1   r2  ]

where row 1 integrates the first-kind differential dz over the two basis
cycles (giving the generators back) and row 2 integrates the second-kind
differential x dx/y = wp(z) dz.  With eta_i the classical Weierstrass-zeta
quasi-periods, r_i = -eta_i, which flips the classical Legendre relation
eta1*w2 - eta2*w1 = 2*pi*i into

        det P = w1*r2 - w2*r1 = 2*pi*i.

The weight-2 Eisenstein series fixes the quasi-periods: on Z + Z*tau,
eta(1) = (pi^2/3) E_2(tau) and eta(tau) = tau*eta(1) - 2*pi*i; both scale by
1/mu on mu*(Z + Z*tau), and quasi-periods are additive on the lattice, which
transports them through any SL2(Z) change of basis.

Normalized splitting
--------------------
The CM-normalized form divides the global 2*pi*i out first:
P_norm := P/(2*pi*i) = h * diag(vp/(2*pi*i), 1/vp) with vp := P[0,0] and
det h = 1, h[0,0] = 1 by construction.  That gauge (vp = first-kind period
over the first cycle) is one of the det-1 family; a fixed one keeps tests
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite

import mpmath as mp

from .analytic import PrecisionContext, eisenstein, to_complex
from .errors import DegenerateInput, DomainError

#: largest acceptable |A*tau^2 + B*tau + C| relative to the coefficient size,
#: as a multiple of sqrt(tol); CM detection is heuristic and this is the knob.
CM_RESIDUAL_FACTOR = 1


def det2(m) -> mp.mpc:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m):
    d = det2(m)
    if d == 0:
        raise DegenerateInput("singular 2x2 matrix")
    return mp.matrix([[m[1, 1] / d, -m[0, 1] / d], [-m[1, 0] / d, m[0, 0] / d]])


@dataclass(frozen=True)
class Lattice:
    """Oriented rank-2 lattice Z*omega1 + Z*omega2, Im(omega2/omega1) > 0."""

    omega1: mp.mpc
    omega2: mp.mpc

    def __post_init__(self):
        w1 = to_complex(self.omega1)
        w2 = to_complex(self.omega2)
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)
        if w1 == 0:
            raise DomainError("omega1 must be nonzero")
        if not mp.im(w2 / w1) > 0:
            raise DomainError("lattice basis must satisfy Im(omega2/omega1) > 0")

    @property
    def tau(self) -> mp.mpc:
        return self.omega2 / self.omega1

    @classmethod
    def from_tau(cls, tau) -> "Lattice":
        return cls(mp.mpc(1), to_complex(tau))

    @classmethod
    def oriented(cls, w1, w2) -> "Lattice":
        """Build a lattice from any basis, negating w2 if needed to orient it."""
        w1 = to_complex(w1)
        w2 = to_complex(w2)
        if w1 == 0:
            w1, w2 = w2, w1
        if mp.im(w2 / w1) < 0:
            w2 = -w2
        return cls(w1, w2)

    def scaled(self, factor) -> "Lattice":
        factor = to_complex(factor)
        return Lattice(self.omega1 * factor, self.omega2 * factor)


@dataclass(frozen=True)
class FullPeriodMatrix:
    """2x2 period/quasi-period matrix with its recorded Legendre residual."""

    p: mp.matrix
    legendre_residual: mp.mpf

    @property
    def omega(self) -> tuple[mp.mpc, mp.mpc]:
        return self.p[0, 0], self.p[0, 1]

    @property
    def eta(self) -> tuple[mp.mpc, mp.mpc]:
        return self.p[1, 0], self.p[1, 1]


@dataclass(frozen=True)
class CmCertificate:
    """Integer quadratic A*tau^2 + B*tau + C ~ 0 with discriminant D < 0."""

    disc: int
    coeffs: tuple[int, int, int]
    residual: mp.mpf


@dataclass(frozen=True)
class StructuredPeriod:
    """A value matrix h together with the structural factor peeled off it.

    kind "cm":       factor diag(varpi/(2*pi*i), 1/varpi); det h = 1.
    kind "singular": factor [[d, e0], [dprime, e0prime]] (log-structure with
                     the unipotent absorbed into e0 = d*N*log(x) + e); h is the
                     value matrix left of it, with no determinant constraint —
                     the det-1 relation only binds smooth coordinates.
    kind "generic":  no factor peeled.
    """

    h: mp.matrix
    kind: str
    varpi: mp.mpc = None
    d: mp.mpc = None
    dprime: mp.mpc = None
    e0: mp.mpc = None
    e0prime: mp.mpc = None

    @classmethod
    def cm(cls, h, varpi) -> "StructuredPeriod":
        return cls(h=h, kind="cm", varpi=to_complex(varpi))

    @classmethod
    def singular(cls, h, d, dprime, e0, e0prime) -> "StructuredPeriod":
        return cls(
            h=h,
            kind="singular",
            d=to_complex(d),
            dprime=to_complex(dprime),
            e0=to_complex(e0),
            e0prime=to_complex(e0prime),
        )

    @classmethod
    def generic(cls, h) -> "StructuredPeriod":
        return cls(h=h, kind="generic")

    def structural_matrix(self, ctx: PrecisionContext = None) -> mp.matrix:
        ctx = ctx or PrecisionContext()
        if self.kind == "cm":
            return mp.matrix(
                [[self.varpi / ctx.two_pi_i, 0], [0, 1 / self.varpi]]
            )
        if self.kind == "singular":
            return mp.matrix([[self.d, self.e0], [self.dprime, self.e0prime]])
        return mp.eye(2)

    def reassemble(self, ctx: PrecisionContext = None) -> mp.matrix:
        """h times the structural factor (the normalized period matrix)."""
        return self.h * self.structural_matrix(ctx)


def reduce_tau(tau, ctx: PrecisionContext = None):
    """Reduce tau to the SL2(Z) fundamental domain.

    Returns (tau_reduced, gamma) with gamma = (a, b, c, d), det +1, and
    tau_reduced = (a*tau + b)/(c*tau + d) satisfying |Re| <= 1/2 + tol and
    |tau_reduced| >= 1 - tol.
    """
    ctx = ctx or PrecisionContext()
    tau = to_complex(tau)
    if not mp.im(tau) > 0:
        raise DomainError("reduce_tau requires Im(tau) > 0")
    with ctx.workprec():
        a, b, c, d = 1, 0, 0, 1
        t = +tau
        one_minus = 1 - ctx.tol
        for _ in range(8 * ctx.bits):
            n = int(mp.nint(mp.re(t)))
            if n != 0:
                t -= n
                a, b = a - n * c, b - n * d
            if abs(t) < one_minus:
                t = -1 / t
                a, b, c, d = -c, -d, a, b
            else:
                return +t, (a, b, c, d)
    raise DomainError("tau reduction did not terminate; input too close to the real axis")


def full_period_matrix(lat: Lattice, ctx: PrecisionContext = None) -> FullPeriodMatrix:
    """Periods and quasi-periods of a lattice, det = 2*pi*i up to the recorded residual."""
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        tau = lat.tau
        tr, (a, b, c, d) = reduce_tau(tau, ctx)
        # reduced basis (v1, v2): v2/v1 = tr; (v1; v2) = [[d, c], [b, a]] (w1; w2)
        v1 = d * lat.omega1 + c * lat.omega2
        v2 = b * lat.omega1 + a * lat.omega2
        g2w = mp.pi ** 2 / 3 * eisenstein(2, tr, ctx)
        # second-kind row on the reduced basis
        r1 = -g2w / v1
        r2 = (ctx.two_pi_i - tr * g2w) / v1
        # transport back through the inverse basis change [[a, -c], [-b, d]]
        rw1 = a * r1 - c * r2
        rw2 = -b * r1 + d * r2
        p = mp.matrix([[lat.omega1, lat.omega2], [rw1, rw2]])
        residual = abs(det2(p) - ctx.two_pi_i)
        return FullPeriodMatrix(p=p, legendre_residual=+residual)


def _quadratic_rows(z, z2, bound: int, thresh, a_min: int):
    """Accepted integer relations A*z^2 + B*z + C ~ 0, one list per row A.

    Scans A = a_min..bound, B = -bound..bound (B >= 1 when A = 0), C = nint(-Re w)
    with w = A*z^2 + B*z, and accepts primitive (A, B, C) with |C| <= bound and
    residual |w + C| < thresh * max(A, |B|, |C|).  Yields each row that accepts
    something as its list of (A, B, C, w, residual), in scan order and in mpmath
    at the caller's precision.

    An accepted pair has |Im w| and dist(Re w, Z) below thresh * bound, and w in
    complex floats is within err = 1e-14*(A|z|^2 + |B||z|) + 1e-300 of w (about
    90 ulp, ten times the rounding), so a float screen with that margin drops
    only pairs the mpmath test rejects.  Below a margin of 1/4 the float rounding
    of -Re w is the exact C, so |C| and primitivity are screened too.  The pairs
    left are confirmed with the unchanged mpmath expressions; if z, z^2 or the
    margin is not finite, or the margin reaches 1/4, every pair is.
    """
    zf, z2f = complex(z), complex(z2)
    zr, zi = zf.real, zf.imag
    ez, ez2 = 1e-14 * abs(zf), 1e-14 * abs(z2f)
    limit = (float(thresh) * (1 + 1e-12) + 1e-300) * bound + 1e-300
    worst = limit + bound * (ez + ez2)
    screen = isfinite(worst) and worst < 0.25
    for A in range(a_min, bound + 1):
        bs = range(1 if A == 0 else -bound, bound + 1)
        if screen:
            ar, ai = A * z2f.real, A * z2f.imag
            ea = limit + A * ez2
            kept = []
            for B in bs:
                margin = ea + abs(B) * ez
                if abs(ai + B * zi) > margin:
                    continue
                wr = ar + B * zr
                c = round(-wr)
                if abs(wr + c) <= margin and abs(c) <= bound and gcd(A, B, c) == 1:
                    kept.append(B)
            bs = kept
        hits = []
        for B in bs:
            w = A * z2 + B * z
            C = int(mp.nint(-mp.re(w)))
            if abs(C) <= bound and gcd(A, B, C) == 1:
                residual = abs(w + C)
                if residual < thresh * max(A, abs(B), abs(C)):
                    hits.append((A, B, C, w, residual))
        if hits:
            yield hits


def detect_cm(tau, bound: int, ctx: PrecisionContext = None) -> CmCertificate | None:
    """Search for an integer quadratic relation A*tau^2 + B*tau + C = 0.

    Scans primitive (A, B, C) with 1 <= A <= bound, |B| <= bound, |C| <= bound
    and returns the smallest-|D| certificate whose residual is below
    sqrt(tol) * max(|A|, |B|, |C|), or None.  Numerical CM detection is a
    heuristic; both the coefficient bound and the threshold are surfaced.

    The scan is _quadratic_rows: a float screen, then mpmath confirmation at
    working precision.  The confirmed triples meet this function's own tests
    (|Im w| <= sqrt(tol) * max(A, |B|, 1), D < 0) and ordering key, so the
    certificate, residual included, is that of the full O(bound^2) scan.
    """
    ctx = ctx or PrecisionContext()
    tau = to_complex(tau)
    if not mp.im(tau) > 0:
        raise DomainError("detect_cm requires Im(tau) > 0")
    if bound < 1:
        raise DomainError("coefficient bound must be positive")
    best = None
    with ctx.workprec():
        thresh = ctx.sqrt_tol * CM_RESIDUAL_FACTOR
        for hits in _quadratic_rows(tau, tau * tau, bound, thresh, 1):
            for A, B, C, w, residual in hits:
                if abs(mp.im(w)) > thresh * max(A, abs(B), 1):
                    continue
                D = B * B - 4 * A * C
                if D >= 0:
                    continue
                key = (abs(D), A, abs(B), B, residual)
                if best is None or key < best[0]:
                    best = (key, CmCertificate(disc=D, coeffs=(A, B, C), residual=+residual))
    return best[1] if best else None


def decompose_cm(P: FullPeriodMatrix, ctx: PrecisionContext = None) -> StructuredPeriod:
    """Split P/(2*pi*i) as h * diag(varpi/(2*pi*i), 1/varpi), varpi = P[0,0].

    The splitting is formal: it applies to any period matrix, and det h = 1
    holds exactly when det P = 2*pi*i.  Whether the lattice genuinely has CM
    is the caller's concern.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        varpi = P.p[0, 0]
        if abs(varpi) < ctx.tol:
            raise DegenerateInput("vanishing (1,1) period entry; cannot fix the CM gauge")
        pn = P.p / ctx.two_pi_i
        h = pn * mp.matrix([[ctx.two_pi_i / varpi, 0], [0, varpi]])
        return StructuredPeriod.cm(h=h, varpi=+varpi)


def make_singular_structure(
    d, dprime, e, eprime, n_mult, logx, ctx: PrecisionContext = None
) -> mp.matrix:
    """Structural matrix [[d, e0], [dprime, e0prime]] of a singular coordinate.

    e0 = d*N*log(x) + e and e0prime = dprime*N*log(x) + eprime, i.e. the
    matrix equals [[d, e], [dprime, eprime]] * [[1, N*log(x)], [0, 1]].
    N is rational (Fraction or int).
    """
    ctx = ctx or PrecisionContext()
    d = to_complex(d)
    dprime = to_complex(dprime)
    e = to_complex(e)
    eprime = to_complex(eprime)
    logx = to_complex(logx)
    if isinstance(n_mult, Fraction):
        n_val = mp.mpf(n_mult.numerator) / n_mult.denominator
    else:
        n_val = mp.mpmathify(n_mult)
    with ctx.workprec():
        nl = n_val * logx
        m = mp.matrix([[d, d * nl + e], [dprime, dprime * nl + eprime]])
        if abs(det2(m)) <= ctx.tol * max(1, max(abs(m[i, j]) for i in range(2) for j in range(2))):
            raise DegenerateInput("singular-coordinate structural matrix is numerically singular")
        return m
