"""Precision-managed complex kernels: Eisenstein q-series, Delta, j, root finding.

All operations take a PrecisionContext and do their arithmetic inside an
mpmath workprec block, so the global mpmath precision of the caller is never
disturbed.  Values in and out are mpmath mpf/mpc; inputs may be ints, floats,
decimal strings or (re, im) pairs and are coerced with to_complex().

Conventions
-----------
* One archimedean embedding: every quantity is a single complex number.
  Conjugate inputs give conjugate runs; there is no automatic loop over
  embeddings.
* Polynomial coefficient lists are ascending: coeffs[k] is the coefficient
  of x**k.
* One q-series kernel (_q_sums) sums E2, E4, E6 and the discriminant
  Delta = q * prod(1 - q**n)**24 over one list of powers q**n, in mpc or in
  complex floats.  Every j-value is E4^3 / Delta, and j - value and dj/dtau
  come from one formula (_j_minus); nothing forms E4^3 - E6^2, which cancels
  at large Im(tau).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import mpmath as mp

from .errors import DegenerateInput, DomainError, NonConvergence

ComplexValue = mp.mpc

DEFAULT_BITS = 256

_GUARD_BITS = 32


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision, tolerance and series budget for the analytic kernels.

    tol defaults to 2**(-bits/2): half the mantissa is reserved as slack for
    accumulated rounding, so a residual below tol is meaningful evidence and a
    residual above sqrt(tol) is meaningful failure.
    """

    bits: int = DEFAULT_BITS
    tol: mp.mpf = None
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if self.bits < 64:
            raise DomainError(f"precision must be at least 64 bits, got {self.bits}")
        if self.tol is None:
            object.__setattr__(self, "tol", mp.mpf(2) ** (-(self.bits // 2)))
        if self.tol <= 0:
            raise DomainError("tolerance must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")

    def workprec(self):
        """mpmath context manager running at this precision plus guard bits."""
        return mp.workprec(self.bits + _GUARD_BITS)

    @property
    def two_pi_i(self) -> mp.mpc:
        """2*pi*i at context precision; computed once per (bits) and shared."""
        return _two_pi_i(self.bits)

    @property
    def sqrt_tol(self) -> mp.mpf:
        return mp.sqrt(self.tol)

    @classmethod
    def from_env(cls, default_bits: int = DEFAULT_BITS) -> "PrecisionContext":
        """Context honouring the ZP_PRECISION_BITS environment override."""
        bits = int(os.environ.get("ZP_PRECISION_BITS", default_bits))
        return cls(bits=bits)


_TWO_PI_I_CACHE: dict[int, mp.mpc] = {}


def _two_pi_i(bits: int) -> mp.mpc:
    val = _TWO_PI_I_CACHE.get(bits)
    if val is None:
        with mp.workprec(bits + _GUARD_BITS):
            val = 2j * +mp.pi
        _TWO_PI_I_CACHE[bits] = val
    return val


def to_complex(value) -> mp.mpc:
    """Coerce ints, floats, strings, (re, im) pairs and mpf/mpc to mpc."""
    if isinstance(value, mp.mpc):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return mp.mpc(mp.mpmathify(value[0]), mp.mpmathify(value[1]))
    return mp.mpc(mp.mpmathify(value))


# divisor-power sums sigma_k(n), cached and grown on demand
_SIGMA_CACHE: dict[int, list[int]] = {}


def _sigma(kpow: int, nmax: int) -> list[int]:
    cached = _SIGMA_CACHE.get(kpow)
    if cached is not None and len(cached) > nmax:
        return cached
    size = max(nmax, 64)
    if cached is not None:
        size = max(size, 2 * (len(cached) - 1))
    s = [0] * (size + 1)
    for d in range(1, size + 1):
        dk = d ** kpow
        for m in range(d, size + 1, d):
            s[m] += dk
    _SIGMA_CACHE[kpow] = s
    return s


_EISEN_COEF = {2: -24, 4: 240, 6: -504}

_LOG2 = math.log(2)


def eisenstein(k: int, tau, ctx: PrecisionContext = None) -> mp.mpc:
    """Weight-k Eisenstein series E_k(tau), k in {2, 4, 6}, by q-series.

    The series is truncated before its first term below tol * 2**-16; that
    term is found from Im(tau) before summing (see _series_length).  Raises
    NonConvergence when it lies beyond ctx.max_terms: precision suffers for
    Im(tau) very small, so reduce tau first.  E_2 is quasi-modular (it picks
    up an affine term under inversion); that is a property of the function,
    not corrected here.
    """
    if k not in _EISEN_COEF:
        raise DomainError(f"eisenstein weight must be 2, 4 or 6, got {k}")
    ctx = ctx or PrecisionContext()
    tau = to_complex(tau)
    if not mp.im(tau) > 0:
        raise DomainError("eisenstein requires Im(tau) > 0")
    with ctx.workprec():
        return _eisenstein_sums((k,), tau, ctx)[0]


def _eisenstein_sums(weights, tau, ctx, delta: bool = False) -> list[mp.mpc]:
    """[E_k(tau) for k in weights], then Delta(tau) when delta is true, at working precision.

    Each series keeps exactly the terms eisenstein(k) keeps; Delta is
    _q_sums's product through the longest of them.  Call inside
    ctx.workprec() with Im(tau) > 0.
    """
    terms = [(k, _series_length(k, tau, ctx)) for k in weights]
    return _q_sums(mp.exp(ctx.two_pi_i * tau), terms, delta)


def _q_sums(q, terms, delta: bool = False) -> list:
    """E_k through q**count for each (k, count) in terms, then Delta if asked.

    All are summed over one list of powers q**n.  Delta =
    q * prod(1 - q**n)**24, which does not cancel at large Im(tau) as
    E4^3 - E6^2 does; the product is Euler's pentagonal series
    1 + sum_m (-1)**m (q**(m(3m-1)/2) + q**(m(3m+1)/2)) through the powers
    already formed, raised to the 24th power by squarings.  q is an mpc
    (call inside ctx.workprec()) or a Python complex.
    """
    length = max(count for _, count in terms)
    qn = one = type(q)(1)
    powers = []
    for _ in range(length):
        qn *= q
        powers.append(qn)
    sums = []
    for k, count in terms:
        coef = _EISEN_COEF[k]
        sig = _sigma(k - 1, count)
        total = one
        for n in range(1, count + 1):
            total += coef * sig[n] * powers[n - 1]
        sums.append(+total)
    if delta:
        prod, m = one, 1
        while (g := m * (3 * m - 1) // 2) <= length:
            for e in (g, g + m):  # m(3m - 1)/2 and m(3m + 1)/2
                if e <= length:
                    prod = prod - powers[e - 1] if m % 2 else prod + powers[e - 1]
            m += 1
        p2 = prod * prod
        p4 = p2 * p2
        p8 = p4 * p4
        sums.append(q * (p8 * p8 * p8))
    return sums


def _series_length(k: int, tau, ctx) -> int:
    """The n of the first term of E_k's q-series whose modulus is below tol * 2**-16.

    |c_k * sigma_{k-1}(n) * q**n| = |c_k| * sigma_{k-1}(n) * exp(-2*pi*n*Im(tau))
    is compared with the cutoff in float logarithms.  sigma_{k-1}(n) >= 1, so
    no n below n0 = log(cutoff/|c_k|) / log|q| qualifies and the search starts
    there.  Raises NonConvergence when the term lies beyond ctx.max_terms.
    """
    log_coef = math.log(abs(_EISEN_COEF[k]))
    mant, exp = mp.frexp(ctx.tol)
    log_cutoff = math.log(mant) + (exp - 16) * _LOG2
    log_q = -2 * math.pi * float(mp.im(tau))
    n0 = (log_cutoff - log_coef) / log_q if log_q < 0 else math.inf
    if n0 <= ctx.max_terms:
        sig = _sigma(k - 1, 256)
        for n in range(max(1, int(n0)), ctx.max_terms + 1):
            if n >= len(sig):
                sig = _sigma(k - 1, 2 * n)
            if log_coef + math.log(sig[n]) + n * log_q < log_cutoff:
                return n
    raise NonConvergence(
        f"E_{k} q-series needs more than max_terms={ctx.max_terms} terms "
        f"at Im(tau)={mp.nstr(mp.im(tau), 8)}; reduce tau first"
    )


def j_invariant(tau, ctx: PrecisionContext = None) -> mp.mpc:
    """Modular j-invariant j = E4^3 / Delta, with Delta = q * prod(1 - q**n)**24."""
    ctx = ctx or PrecisionContext()
    tau = to_complex(tau)
    if not mp.im(tau) > 0:
        raise DomainError("j_invariant requires Im(tau) > 0")
    with ctx.workprec():
        e4, delta = _eisenstein_sums((4,), tau, ctx, delta=True)
        return e4 ** 3 / delta


def _j_minus(value, e4, e6, delta, two_pi_i) -> tuple:
    """(j(tau) - value, dj/dtau) from E4, E6 and Delta at tau, as mpc or as complex.

    j - value is E4^3 / Delta - value, or, when value is nearer 1728 than 0,
    E6^2 / Delta - (value - 1728) (1728 Delta = E4^3 - E6^2), so that it keeps
    its accuracy near the triple root rho of j and near the double root i of
    j - 1728.  dj/dtau = -2*pi*i E4^2 E6 / Delta.
    """
    e4_sq_delta = e4 * e4 / delta
    if value.real <= 864:  # |value| <= |value - 1728|
        residual = e4_sq_delta * e4 - value
    else:
        residual = e6 * e6 / delta - (value - 1728)
    return residual, -two_pi_i * e6 * e4_sq_delta


def _j_float(tau: complex, value: complex) -> tuple[complex, complex]:
    """_j_minus in complex floats, for a starting point of Newton's method.

    The series and the product stop once 504 * n**5 * |q**n| < 2**-60.
    Raises ZeroDivisionError when q underflows (Im(tau) above about 110).
    """
    q = cmath.exp(2j * math.pi * tau)
    abs_q, n = abs(q), 1
    while 504 * n ** 5 * abs_q ** n >= 2.0 ** -60:
        n += 1
    e4, e6, delta = _q_sums(q, ((4, n - 1), (6, n - 1)), delta=True)
    return _j_minus(value, e4, e6, delta, 2j * math.pi)


def _polyval(coeffs, z):
    """Horner evaluation, ascending coefficients."""
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def polyroots(coeffs, ctx: PrecisionContext = None, max_sweeps: int = 1000) -> list[mp.mpc]:
    """All complex roots (with multiplicity): a float start, then Aberth at full precision.

    coeffs ascending, leading coefficient nonzero, degree >= 1; they are
    coerced at working precision.  The starting points come from Aberth
    iteration in Python complex floats on the monic coefficients, begun on
    the circles of their Newton polygon (Bini, Numer. Algorithms 1996); when
    the float image of a coefficient or an iterate is not finite, or two
    approximations coincide, the roots start on one circle of radius
    1 + max|c| instead.  The simultaneous Aberth iteration at working
    precision then polishes them and alone decides convergence: every root z
    must satisfy |p(z)| <= tol * |lead| * max(1, |z|)**deg.  A cluster of m
    equal roots then sits within about tol**(1/m) of the true location, so
    double roots land inside the sqrt(tol) cluster tolerance.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        coeffs = [to_complex(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise DegenerateInput(
                "polyroots needs degree >= 1 with nonzero leading coefficient"
            )
        lead = coeffs[-1]
        # exact zero roots split off first
        nzero = 0
        while coeffs[0] == 0:
            coeffs = coeffs[1:]
            nzero += 1
        deg = len(coeffs) - 1
        zeros = [mp.mpc(0)] * nzero
        if deg == 0:
            return zeros
        monic = [c / lead for c in coeffs]
        dcoeffs = [monic[i] * i for i in range(1, deg + 1)]
        radius = 1 + max(abs(c) for c in monic[:-1])
        start = _float_start(monic)
        if start is None:
            z = [
                radius * mp.exp(mp.mpc(0, 2 * mp.pi * k / deg + mp.mpf(2) / 5))
                for k in range(deg)
            ]
        else:
            z = [mp.mpc(w) for w in start]
        tiny = mp.mpf(2) ** (-(ctx.bits + _GUARD_BITS) * 2)
        for _ in range(max_sweeps):
            converged = True
            for k in range(deg):
                pk = _polyval(monic, z[k])
                if abs(pk) > ctx.tol * max(mp.mpf(1), abs(z[k])) ** deg:
                    converged = False
                dpk = _polyval(dcoeffs, z[k])
                if dpk == 0:
                    z[k] += mp.mpf(radius) * mp.mpf(2) ** (-ctx.bits // 3)
                    converged = False
                    continue
                newton = pk / dpk
                acc = mp.mpc(0)
                for m in range(deg):
                    if m == k:
                        continue
                    diff = z[k] - z[m]
                    if abs(diff) < tiny:
                        diff = tiny
                    acc += 1 / diff
                denom = 1 - newton * acc
                if denom == 0:
                    step = newton
                else:
                    step = newton / denom
                z[k] -= step
            if converged:
                roots = [+r for r in z] + zeros
                roots.sort(key=lambda r: (mp.re(r), mp.im(r)))
                return roots
        bits = mp.frexp(max(abs(c) for c in coeffs))[1]
    raise NonConvergence(
        f"polyroots: no convergence after {max_sweeps} sweeps "
        f"(degree {deg}, largest coefficient {bits} bits)"
    )


_FLOAT_SWEEPS = 100


def _float_start(monic):
    """Aberth approximations of the roots of a monic polynomial in complex floats, or None.

    Starts on the Newton polygon circles of the coefficients and stops
    updating a root once its step is below 1e-15 of it.  None when a
    coefficient or iterate is not a finite float or two approximations
    coincide.
    """
    try:
        c = [complex(x) for x in monic]
        # an underflowed constant term would drop Newton polygon points
        if c[0] == 0 or not all(cmath.isfinite(x) for x in c):
            return None
        deg = len(c) - 1
        dc = [c[i] * i for i in range(1, deg + 1)]
        z = _newton_polygon_start(c)
        active = list(range(deg))
        for _ in range(_FLOAT_SWEEPS):
            if not active:
                break
            still = []
            for k in active:
                zk = z[k]
                pk = dk = 0j
                for a in reversed(c):
                    pk = pk * zk + a
                for a in reversed(dc):
                    dk = dk * zk + a
                newton = pk / dk
                acc = sum(1 / (zk - z[m]) for m in range(deg) if m != k)
                step = newton / (1 - newton * acc)
                z[k] = zk - step
                if not abs(step) <= 1e-15 * abs(z[k]):
                    still.append(k)
            active = still
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(cmath.isfinite(w) for w in z) or len(set(z)) < deg:
        return None
    return z


def _newton_polygon_start(c):
    """Starting points on the circles of the upper Newton polygon of (k, log|c_k|).

    An edge from k to l holds l - k points on the circle of radius
    (|c_k| / |c_l|)**(1/(l - k)), about the modulus of that many roots.
    """
    deg = len(c) - 1
    hull = []
    for k, a in enumerate(c):
        if a == 0:
            continue
        pt = (k, math.log(abs(a)))
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) < 0:
                break
            hull.pop()
        hull.append(pt)
    z = []
    for (k, yk), (l, yl) in zip(hull, hull[1:]):
        r = math.exp((yk - yl) / (l - k))
        for m in range(l - k):
            z.append(r * cmath.exp(1j * (2 * math.pi * (m / (l - k) + k / deg) + 0.4)))
    return z
