"""Independent oracles used to freeze expected values in the tests.

Everything here deliberately avoids the code paths it checks:

* quasi-periods come from numerically integrating the Weierstrass wp-function
  along lattice segments, with wp evaluated by its Laurent recursion plus the
  algebraic duplication law (no weight-2 series anywhere);
* the lemniscatic integral pins the AGM;
* resultants are re-derived by Fraction Gaussian elimination of the Sylvester
  matrix;
* sublattice counts come from raw triple enumeration;
* polynomial roots come from Aberth iteration started on one circle, the
  start ``analytic.polyroots`` falls back to;
* Eisenstein series come from a loop that takes the modulus of every term,
  and inverse-j lifts from the working-precision Newton iteration alone, as
  the library computed them before its float-predicted series lengths and
  float Newton starts;
* relation polynomials are evaluated by a loop that coerces every
  coefficient and every occurrence of a variable anew, and the synthetic
  draws divide mpf(n) by d and test |z| > 1/4 on the rounded mpc, as the
  library did before it coerced each value once;
* modular polynomial tables come from a Vandermonde interpolation of
  numerically evaluated sublattice j-values, rounded to integers, as the
  library recovered them before it built them from integer q-expansions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

import mpmath as mp

from zpscan.analytic import PrecisionContext, eisenstein, j_invariant, to_complex
from zpscan.isogeny import psi
from zpscan.modular import sublattice_j_values


def curve_invariants(lat, ctx: PrecisionContext):
    """g2, g3 of the lattice via the weight-4 and weight-6 series only."""
    from zpscan.periods import reduce_tau

    with ctx.workprec():
        tr, (a, b, c, d) = reduce_tau(lat.tau, ctx)
        v1 = d * lat.omega1 + c * lat.omega2
        e4 = eisenstein(4, tr, ctx)
        e6 = eisenstein(6, tr, ctx)
        g2 = (4 * mp.pi ** 4 / 3) * e4 / v1 ** 4
        g3 = (8 * mp.pi ** 6 / 27) * e6 / v1 ** 6
        return g2, g3


def _wp_series_coeffs(g2, g3, nterms: int):
    c = [mp.mpc(0)] * (nterms + 1)
    c[2] = g2 / 20
    c[3] = g3 / 28
    for k in range(4, nterms + 1):
        acc = mp.mpc(0)
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3 * acc / ((2 * k + 1) * (k - 3))
    return c


def make_wp(lat, ctx: PrecisionContext):
    """wp evaluator: lattice reduction, Laurent series, then duplication steps."""
    w1, w2 = lat.omega1, lat.omega2
    with ctx.workprec():
        g2, g3 = curve_invariants(lat, ctx)
        coeffs = _wp_series_coeffs(g2, g3, 48)
        rmin = min(
            abs(m * w1 + n * w2)
            for m in range(-2, 3)
            for n in range(-2, 3)
            if (m, n) != (0, 0)
        )
        radius = rmin / 4
        det = w1 * mp.conj(w2) - w2 * mp.conj(w1)

    def reduce_z(z):
        x = (z * mp.conj(w2) - w2 * mp.conj(z)) / det
        y = (w1 * mp.conj(z) - z * mp.conj(w1)) / det
        zr = (mp.re(x) - mp.nint(mp.re(x))) * w1 + (mp.re(y) - mp.nint(mp.re(y))) * w2
        best = zr
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                cand = zr + dm * w1 + dn * w2
                if abs(cand) < abs(best):
                    best = cand
        return best

    def wp(z):
        z = reduce_z(z)
        halvings = 0
        while abs(z) > radius:
            z /= 2
            halvings += 1
        z2 = z * z
        val = 1 / z2
        zp = mp.mpc(1)
        for k in range(2, len(coeffs)):
            zp *= z2
            val += coeffs[k] * zp
        for _ in range(halvings):
            # wp(2u) = (x^4 + (g1/2) x^2 + 2 g3 x + (g2/4)^2) / (4x^3 - g2 x - g3)
            num = val ** 4 + (g2 / 2) * val ** 2 + 2 * g3 * val + (g2 / 4) ** 2
            den = 4 * val ** 3 - g2 * val - g3
            val = num / den
        return val

    return wp


def quasi_period_row_oracle(lat, ctx: PrecisionContext, quad_bits: int = 256):
    """Second-row entries of the full period matrix by direct integration.

    Integrates wp(z) dz from z0 to z0 + w along a straight segment; by the
    zeta-function quasi-periodicity this equals the second-kind period of the
    cycle of w, with no reference to the weight-2 series.
    """
    wp = make_wp(lat, ctx)
    with mp.workprec(quad_bits):
        z0 = mp.mpf(31) / 100 * lat.omega1 + mp.mpf(43) / 100 * lat.omega2
        out = []
        for w in (lat.omega1, lat.omega2):
            val = mp.quad(
                lambda t: wp(z0 + t * w) * w,
                [0, mp.mpf(1) / 3, mp.mpf(2) / 3, 1],
            )
            out.append(val)
        return out


def sylvester_resultant_fractions(p_coeffs, q_coeffs) -> int:
    """Resultant as the Sylvester determinant over Fraction, rows of p first."""
    m = len(p_coeffs) - 1
    n = len(q_coeffs) - 1
    if m < 0 or n < 0:
        return 0
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return p_coeffs[0] ** n
    if n == 0:
        return q_coeffs[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p_coeffs))
    qc = list(reversed(q_coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pc] + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qc] + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    sign = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, size):
            factor = rows[r][col] / pv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    det *= sign
    assert det.denominator == 1
    return int(det)


def brute_force_cyclic_triples(M: int) -> list[tuple]:
    """All (a, b, d) with a*d = M, 0 <= b < d, gcd(a, b, d) = 1, by raw scan."""
    out = []
    for a in range(1, M + 1):
        for d in range(1, M + 1):
            if a * d != M:
                continue
            for b in range(d):
                if int_gcd(int_gcd(a, b), d) == 1:
                    out.append((a, b, d))
    return sorted(out)


def expand_from_roots(roots, lead=1):
    """Ascending coefficients of lead * prod (x - r)."""
    coeffs = [mp.mpc(lead)]
    for r in roots:
        nxt = [mp.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= c * r
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def log_delta_derivative(tau, ctx: PrecisionContext, h_exp: int = -80) -> mp.mpc:
    """(1/(2*pi*i)) d/dtau log Delta by central finite differences.

    Uses only the weight-4/6 series; the step 2^h_exp at doubled working
    precision keeps the difference error near 2^(2*h_exp).
    """
    bits = 2 * ctx.bits
    inner = PrecisionContext(bits=bits)
    with mp.workprec(bits):
        h = mp.mpf(2) ** h_exp

        def log_delta(t):
            e4 = eisenstein(4, t, inner)
            e6 = eisenstein(6, t, inner)
            return mp.log((e4 ** 3 - e6 ** 2) / 1728)

        dlog = (log_delta(tau + h) - log_delta(tau - h)) / (2 * h)
        return dlog / (2j * mp.pi)


def detect_cm_scan(tau, bound: int, ctx: PrecisionContext):
    """Full O(bound^2) mpmath scan behind ``periods.detect_cm``, kept as its reference."""
    from zpscan.analytic import to_complex
    from zpscan.errors import DomainError
    from zpscan.periods import CM_RESIDUAL_FACTOR, CmCertificate

    tau = to_complex(tau)
    if not mp.im(tau) > 0:
        raise DomainError("detect_cm requires Im(tau) > 0")
    if bound < 1:
        raise DomainError("coefficient bound must be positive")
    best = None
    with ctx.workprec():
        tau2 = tau * tau
        thresh = ctx.sqrt_tol * CM_RESIDUAL_FACTOR
        for A in range(1, bound + 1):
            At2 = A * tau2
            for B in range(-bound, bound + 1):
                w = At2 + B * tau
                if abs(mp.im(w)) > thresh * max(A, abs(B), 1):
                    continue
                C = int(mp.nint(-mp.re(w)))
                if abs(C) > bound:
                    continue
                if int_gcd(int_gcd(A, abs(B)), abs(C)) != 1:
                    continue
                D = B * B - 4 * A * C
                if D >= 0:
                    continue
                residual = abs(w + C)
                if residual >= thresh * max(A, abs(B), abs(C)):
                    continue
                key = (abs(D), A, abs(B), B, residual)
                if best is None or key < best[0]:
                    best = (key, CmCertificate(disc=D, coeffs=(A, B, C), residual=+residual))
    return best[1] if best else None


def recognize_quadratic_scan(z, bound: int, ctx: PrecisionContext):
    """Full O(bound^2) mpmath scan behind ``isogeny.recognize_quadratic``, kept as its reference."""
    z = mp.mpc(z)
    best = None
    with ctx.workprec():
        thresh = ctx.sqrt_tol
        z2 = z * z
        for A in range(0, bound + 1):
            for B in range(1 if A == 0 else -bound, bound + 1):
                w = A * z2 + B * z
                C = int(mp.nint(-mp.re(w)))
                if abs(C) > bound:
                    continue
                if int_gcd(int_gcd(A, abs(B)), abs(C)) > 1:
                    continue
                residual = abs(w + C)
                if residual >= thresh * max(A, abs(B), abs(C)):
                    continue
                key = (A, abs(B), abs(C), residual)
                if best is None or key < best[0]:
                    best = (key, (A, B, C))
    return best[1] if best else None


def polyroots_circle(coeffs, ctx: PrecisionContext, max_sweeps: int = 1000):
    """Aberth iteration from one circle of radius 1 + max|c|, kept as the reference of ``polyroots``.

    The same sweep and stopping rule as ``analytic.polyroots``, without its
    float start; coefficients are coerced at working precision.
    """
    from zpscan.analytic import to_complex
    from zpscan.errors import NonConvergence

    with ctx.workprec():
        coeffs = [to_complex(c) for c in coeffs]
        while coeffs[-1] == 0:
            coeffs.pop()
        lead = coeffs[-1]
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

        def val(cs, x):
            acc = mp.mpc(0)
            for c in reversed(cs):
                acc = acc * x + c
            return acc

        radius = 1 + max(abs(c) for c in monic[:-1])
        z = [radius * mp.exp(mp.mpc(0, 2 * mp.pi * k / deg + mp.mpf(2) / 5)) for k in range(deg)]
        tiny = mp.mpf(2) ** (-mp.mp.prec * 2)
        for _ in range(max_sweeps):
            converged = True
            for k in range(deg):
                pk = val(monic, z[k])
                if abs(pk) > ctx.tol * max(mp.mpf(1), abs(z[k])) ** deg:
                    converged = False
                dpk = val(dcoeffs, z[k])
                if dpk == 0:
                    z[k] += mp.mpf(radius) * mp.mpf(2) ** (-ctx.bits // 3)
                    converged = False
                    continue
                newton = pk / dpk
                acc = mp.mpc(0)
                for m in range(deg):
                    if m != k:
                        diff = z[k] - z[m]
                        acc += 1 / (tiny if abs(diff) < tiny else diff)
                denom = 1 - newton * acc
                z[k] -= newton if denom == 0 else newton / denom
            if converged:
                roots = [+r for r in z] + zeros
                roots.sort(key=lambda r: (mp.re(r), mp.im(r)))
                return roots
    raise NonConvergence(f"polyroots_circle: no convergence after {max_sweeps} sweeps")


def mahler_height_mpmath(coeffs, bits: int = 512) -> mp.mpf:
    """(log|lead| + sum log max(1, |root|)) / degree of integer coefficients, roots by ``mpmath.polyroots``."""
    with mp.workprec(bits):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(coeffs)], maxsteps=500, extraprec=1000)
        acc = mp.log(abs(mp.mpf(coeffs[-1])))
        acc += sum(mp.log(abs(r)) for r in roots if abs(r) > 1)
        return acc / (len(coeffs) - 1)


def eisenstein_term_test(k: int, tau, ctx: PrecisionContext) -> mp.mpc:
    """E_k(tau) summed until the first term whose modulus is below tol * 2**-16."""
    coef = {2: -24, 4: 240, 6: -504}[k]
    with ctx.workprec():
        tau = mp.mpc(tau)
        q = mp.exp(ctx.two_pi_i * tau)
        cutoff = ctx.tol * mp.mpf(2) ** (-16)
        total, qn, n = mp.mpc(1), mp.mpc(1), 0
        while True:
            n += 1
            qn *= q
            term = coef * sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0) * qn
            total += term
            if abs(term) < cutoff:
                return +total


def invert_j_mpmath(value, ctx: PrecisionContext, max_newton: int = 80):
    """scanner.invert_j without its float phase: working-precision Newton from each start."""
    from zpscan.periods import reduce_tau
    from zpscan.scanner import _newton_j

    value = mp.mpc(value)
    with ctx.workprec():
        starts = []
        if abs(value) > 2500:
            starts.append(mp.log(1 / (value - 744)) / ctx.two_pi_i)
        starts += [
            mp.mpc(mp.mpf(1) / 10, mp.mpf(21) / 20),
            mp.mpc(-mp.mpf(3) / 10, mp.mpf(11) / 10),
            mp.mpc(mp.mpf(2) / 5, mp.mpf(6) / 5),
        ]
        for tau in starts:
            root = _newton_j(value, tau, ctx, max_newton, ctx.tol * max(mp.mpf(1), abs(value)))
            if root is not None:
                return +reduce_tau(root, ctx)[0]
    return None


def _coerce_mpc(c) -> mp.mpc:
    if isinstance(c, Fraction):
        return mp.mpc(c.numerator) / c.denominator
    return to_complex(c)


def multipoly_evaluate_naive(poly, assignment: dict, exact: bool = None):
    """MultiPoly.evaluate coercing every coefficient and every variable occurrence anew."""
    def is_exact(c):
        return isinstance(c, (int, Fraction))

    if exact is None:
        exact = all(is_exact(c) for c in poly.terms.values()) and all(
            is_exact(assignment[v]) for mono in poly.terms for v, _ in mono
        )
    total = Fraction(0) if exact else mp.mpc(0)
    for mono, c in poly.terms.items():
        term = c if exact else _coerce_mpc(c)
        for var, e in mono:
            val = assignment[var]
            term = term * (val ** e if exact else _coerce_mpc(val) ** e)
        total = total + term
    return total


def rand_complex_mpf(rng, lo=-8, hi=8, den=8) -> mp.mpc:
    """A synthetic complex draw with each part formed as mpf(n) / d."""
    re = Fraction(rng.randint(lo, hi), rng.randint(1, den))
    im = Fraction(rng.randint(lo, hi), rng.randint(1, den))
    return mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator)


def rand_nonzero_complex_abs(rng) -> mp.mpc:
    """rand_complex_mpf redrawn until the rounded |z| exceeds 1/4."""
    while True:
        z = rand_complex_mpf(rng)
        if abs(z) > mp.mpf(1) / 4:
            return z


def _expand_monic(roots) -> list[mp.mpc]:
    coeffs = [mp.mpc(1)]
    for r in roots:
        nxt = [mp.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= c * r
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def phi_recover_numeric(N: int, bits: int) -> tuple[dict, mp.mpf]:
    """Phi_N's table by interpolation at tau_m = i(1 + m/7), and the largest rounding error.

    prod(X - j_sub) is expanded numerically at psi(N)+1 points, the
    Vandermonde system in Y = j(tau_m) is solved for every X-coefficient and
    the solution is rounded to integers.  Keys are inserted X-power
    ascending, then Y-power ascending, zeros skipped.
    """
    ctx = PrecisionContext(bits=bits)
    n = psi(N)
    with ctx.workprec():
        taus = [mp.mpc(0, 1 + mp.mpf(m) / 7) for m in range(n + 1)]
        ys = [j_invariant(t, ctx) for t in taus]
        rows = [_expand_monic(sublattice_j_values(N, t, ctx)) for t in taus]
        V = mp.matrix(n + 1, n + 1)
        for m in range(n + 1):
            acc = mp.mpc(1)
            for jj in range(n + 1):
                V[m, jj] = acc
                acc *= ys[m]
        table = {}
        max_err = mp.mpf(0)
        for k in range(n + 1):
            rhs = mp.matrix([rows[m][k] for m in range(n + 1)])
            sol = mp.lu_solve(V, rhs)
            for jj in range(n + 1):
                c = sol[jj]
                ci = int(mp.nint(mp.re(c)))
                max_err = max(max_err, abs(c - ci))
                if ci != 0:
                    table[(k, jj)] = ci
        return table, max_err
