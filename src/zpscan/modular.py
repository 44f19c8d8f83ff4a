"""Modular polynomials Phi_N: numeric evaluation, exact construction, specialization.

Phi_N(X, Y) is the symmetric integer polynomial vanishing exactly on pairs of
j-invariants of N-cyclically-isogenous curves; its degree in X is psi(N) and
its roots over Y = j(tau) are the j-values of the psi(N) cyclic index-N
sublattices of Z + Z*tau.

The exact table is built from integer q-expansions, with no floating point
(Elkies 1998; Yui 1978).  The power sums p_k = sum j(tau')**k over the
sublattices tau' = (A*tau + B)/D, A*D = N, 0 <= B < D, gcd(A, B, D) = 1, are
integer Laurent series in q: summing over B multiplies the q**(n/D) term of
j**k(A*tau) by sum_{e | gcd(A, D)} mu(e) * (D/e) * [D/e divides n].
Cancelling the poles of p_k with powers of j = 1/q + 744 + ... writes it as a
polynomial in Y = j(tau) of degree at most k*N, and Newton's identities turn
the power sums into the X-coefficients of prod(X - j(tau')).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

import mpmath as mp

from .analytic import PrecisionContext, _sigma, j_invariant, to_complex
from .errors import DegenerateInput, DomainError, StructureViolation
from .exactpoly import IntPoly, RatFunc
from .isogeny import cyclic_sublattices, psi

MAX_EXACT_LEVEL = 5


@dataclass(frozen=True)
class ModularPolynomial:
    """Integer coefficient table of Phi_N; coeffs maps (i, j) -> c of X^i Y^j."""

    level: int
    coeffs: dict
    provenance: str = "recovered"

    @property
    def degree(self) -> int:
        return max((i for (i, _) in self.coeffs), default=0)

    def is_symmetric(self) -> bool:
        return all(self.coeffs.get((j, i), 0) == c for (i, j), c in self.coeffs.items())

    def eval_exact(self, x, y):
        """Evaluate over int/Fraction arguments exactly."""
        acc = 0 if isinstance(x, int) and isinstance(y, int) else Fraction(0)
        for (i, j), c in self.coeffs.items():
            acc += c * x ** i * y ** j
        return acc

    def eval_mp(self, x, y, ctx: PrecisionContext = None) -> mp.mpc:
        ctx = ctx or PrecisionContext()
        x = to_complex(x)
        y = to_complex(y)
        with ctx.workprec():
            acc = mp.mpc(0)
            for (i, j), c in self.coeffs.items():
                acc += c * x ** i * y ** j
            return +acc


def sublattice_j_values(N: int, tau, ctx: PrecisionContext = None) -> list[mp.mpc]:
    """j-invariants of the psi(N) cyclic index-N sublattices of Z + Z*tau."""
    ctx = ctx or PrecisionContext()
    tau = to_complex(tau)
    if not mp.im(tau) > 0:
        raise DomainError("sublattice j-values require Im(tau) > 0")
    from .periods import reduce_tau

    vals = []
    with ctx.workprec():
        for sub in cyclic_sublattices(N):
            # sublattice Z*(a + b*tau) + Z*(d*tau): tau' = d*tau/(a + b*tau),
            # reduced before evaluation (j is modular invariant; the series
            # conditioning is not)
            tp = sub.d * tau / (sub.a + sub.b * tau)
            tp, _ = reduce_tau(tp, ctx)
            vals.append(j_invariant(tp, ctx))
    return vals


def phi_eval_numeric(N: int, x, tau, ctx: PrecisionContext = None) -> mp.mpc:
    """prod over cyclic index-N sublattices of (x - j(sublattice)).

    Vanishes (within tol times the product scale) exactly when x is the
    j-invariant of a curve N-cyclically-isogenous to the one with invariant
    j(tau); in particular at x = j(N*tau).
    """
    ctx = ctx or PrecisionContext()
    x = to_complex(x)
    with ctx.workprec():
        acc = mp.mpc(1)
        for jv in sublattice_j_values(N, tau, ctx):
            acc *= x - jv
        return +acc


def _q_times_j(length: int) -> list[int]:
    """q*j = E4**3 / prod(1 - q**n)**24 through q**(length - 1), as `length` coefficients."""
    sig = _sigma(3, length)
    e4 = IntPoly([1] + [240 * sig[n] for n in range(1, length)])
    series = (e4 * e4 * e4).coeffs[:length]
    for n in range(1, length):
        for _ in range(24):  # dividing by 1 - q**n is a running sum with stride n
            for m in range(n, length):
                series[m] += series[m - n]
    return series


def _build_phi(N: int) -> ModularPolynomial:
    """Phi_N by power sums of the sublattice j-values, pole cancellation and Newton's identities."""
    n = psi(N)
    length = n * N + 2
    qj_rev = _q_times_j(length)[::-1]
    powers = [[1] + [0] * (length - 1)]  # powers[m][t] is the coefficient of q**(t - m) in j**m
    for _ in range(n * N):
        # the product with q*j truncated to `length` terms: term t is sum of p[i] * qj[t - i]
        p = powers[-1]
        powers.append([sum(map(mul, p[: t + 1], qj_rev[length - 1 - t :])) for t in range(length)])
    blocks = []
    for A in (a for a in range(1, N + 1) if N % a == 0):
        D, g = N // A, gcd(A, N // A)
        mu = {}  # the Moebius function on the divisors e of g: sum of mu(d), d | e, is [e == 1]
        for e in (e for e in range(1, g + 1) if g % e == 0):
            mu[e] = 1 if e == 1 else -sum(v for d, v in mu.items() if e % d == 0)
        blocks.append((A, D, [(v * (D // e), D // e) for e, v in mu.items()]))
    sums = []
    for k in range(1, n + 1):
        pole = k * N
        series = [0] * (pole + 2)  # series[i] is the coefficient of q**(i - pole) in p_k
        for A, D, weights in blocks:
            for m in range(-k, D // A + 1):  # the q**m terms of j**k that land at or below q**1
                w = sum(c for c, step in weights if m % step == 0)
                if w:
                    series[pole + A * m // D] += w * powers[k][m + k]
        y_coeffs = [0] * (pole + 1)
        for m in range(pole, -1, -1):
            c = y_coeffs[m] = series[pole - m]
            for t in range(m + 2):
                series[pole - m + t] -= c * powers[m][t]
        if series[pole + 1]:
            raise StructureViolation(f"Phi_{N}: p_{k} keeps a q^1 term after pole cancellation")
        sums.append(IntPoly(y_coeffs))
    elementary = [IntPoly([1])]
    for k in range(1, n + 1):
        acc = IntPoly([])
        for i in range(1, k + 1):
            acc = acc + elementary[k - i] * sums[i - 1] * (-1) ** (i - 1)
        if any(c % k for c in acc.coeffs):
            raise StructureViolation(
                f"Phi_{N}: Newton's identity for e_{k} is not divisible by {k}"
            )
        elementary.append(IntPoly([c // k for c in acc.coeffs]))
    table = {}
    for i in range(n + 1):
        for jj, c in enumerate(elementary[n - i].coeffs):
            if c:
                table[(i, jj)] = (-1) ** (n - i) * c
    phi = ModularPolynomial(level=N, coeffs=table)
    if N > 1 and not phi.is_symmetric():
        raise StructureViolation(f"Phi_{N}: the constructed table is not symmetric")
    return phi


_EXACT_CACHE: dict[int, ModularPolynomial] = {}


def phi_recover_exact(N: int, ctx: PrecisionContext = None) -> ModularPolynomial:
    """The exact integer table of Phi_N, N <= MAX_EXACT_LEVEL, built once and cached.

    The construction is integer arithmetic alone: ctx does not affect the table.
    """
    if N < 1:
        raise DomainError("level must be >= 1")
    if N > MAX_EXACT_LEVEL:
        raise DomainError(
            f"exact recovery is limited to level <= {MAX_EXACT_LEVEL}; "
            "use phi_eval_numeric for larger levels"
        )
    if N not in _EXACT_CACHE:
        _EXACT_CACHE[N] = _build_phi(N)
    return _EXACT_CACHE[N]


def phi_specialize(phi: ModularPolynomial, f: RatFunc, g: RatFunc) -> IntPoly:
    """Numerator of Phi(f(t), g(t)) with denominators cleared, content-normalized.

    Raises DegenerateInput when the specialization is identically zero, which
    means the parametrized curve lies inside the modular-curve stratum.
    """
    dx = phi.degree
    dy = max((j for (_, j) in phi.coeffs), default=0)
    fn_pow = _powers(f.num, dx)
    fd_pow = _powers(f.den, dx)
    gn_pow = _powers(g.num, dy)
    gd_pow = _powers(g.den, dy)
    acc = IntPoly([])
    for (i, j), c in phi.coeffs.items():
        term = fn_pow[i] * fd_pow[dx - i] * gn_pow[j] * gd_pow[dy - j]
        acc = acc + term * c
    if acc.is_zero():
        raise DegenerateInput(
            "specialization of the modular polynomial vanishes identically: "
            "the curve lies in the special subvariety"
        )
    return acc.primitive()


def _powers(p: IntPoly, up_to: int) -> list[IntPoly]:
    out = [IntPoly([1])]
    for _ in range(up_to):
        out.append(out[-1] * p)
    return out
