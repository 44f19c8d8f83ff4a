"""Rational curves t -> (j_1(t), ..., j_n(t)) and their modular-polynomial strata.

A stratum polynomial is the exact integer polynomial cutting the parameters t
with Phi_M(j_a(t), j_b(t)) = 0; double strata (two distinct coordinate pairs
vanishing simultaneously) are detected by exact gcd and reported with heights,
degree bounds and levels.  Everything downstream of the exact Phi tables is
integer arithmetic; numerics enter only for root isolation, soundness checks
and the advisory singular-modulus flags.

Curve file format (UTF-8 text, '#' comments):

    n = 3
    j1 = 0 1728 / 1
    j2 = 0 287496 / 1
    j3 = 0 0 287496 / 1

i.e. one line per coordinate, numerator and denominator as integer coefficient
lists, constant term first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .analytic import PrecisionContext, _eisenstein_sums, _j_float, _j_minus, to_complex
from .errors import DegenerateInput, DomainError, NonConvergence
from .exactpoly import (
    AlgebraicPointSet,
    IntPoly,
    RatFunc,
    _mahler_height_of_roots,
    gcd,
    mahler_height,
    resultant,
    squarefree,
)
from .modular import ModularPolynomial, sublattice_j_values
from .periods import detect_cm, reduce_tau


@dataclass(frozen=True)
class CurveModel:
    """Rational curve in the n-fold j-line product."""

    n: int
    maps: tuple
    coordinate_roles: tuple = None
    allow_equal_maps: bool = False

    def __post_init__(self):
        if self.n != len(self.maps):
            raise DomainError("number of maps must equal the ambient dimension")
        nonconstant = sum(0 if m.is_constant() else 1 for m in self.maps)
        if nonconstant < 2:
            raise DomainError("need at least two nonconstant coordinates")
        if not self.allow_equal_maps:
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    if self.maps[i].same_map(self.maps[j]):
                        raise DomainError(
                            f"coordinates {i + 1} and {j + 1} are identical maps; "
                            "the curve sits inside a diagonal special subvariety "
                            "(pass allow_equal_maps=True to force)"
                        )

    def map(self, index: int) -> RatFunc:
        """1-based coordinate access."""
        return self.maps[index - 1]


@dataclass(frozen=True)
class ScanPoint:
    """A detected stratum point set with its exact defining data."""

    pair1: tuple  # (i1, i2, M)
    pair2: tuple = None  # (i3, i4, N) for double strata
    defining: AlgebraicPointSet = None
    heights: tuple = ()  # per-coordinate parameter heights of j-values
    height_t: mp.mpf = None
    degree_bound: int = 0
    numeric_only: bool = False
    singular_modulus_flags: tuple = ()


def parse_curve_file(text: str) -> CurveModel:
    n = None
    maps = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key == "n":
            n = int(rhs)
        elif key.startswith("j"):
            idx = int(key[1:])
            num_s, _, den_s = rhs.partition("/")
            num = [int(tok) for tok in num_s.split()]
            den = [int(tok) for tok in den_s.split()] if den_s.strip() else [1]
            maps[idx] = RatFunc(IntPoly(num), IntPoly(den))
        else:
            raise DomainError(f"unrecognized curve-file line: {raw!r}")
    if n is None:
        raise DomainError("curve file must declare n = <int>")
    if sorted(maps) != list(range(1, n + 1)):
        raise DomainError("curve file must define j1..jn exactly")
    return CurveModel(n=n, maps=tuple(maps[i] for i in range(1, n + 1)))


def format_curve(curve: CurveModel) -> str:
    lines = [f"n = {curve.n}"]
    for i, m in enumerate(curve.maps, start=1):
        num = " ".join(str(c) for c in m.num.coeffs)
        den = " ".join(str(c) for c in m.den.coeffs)
        lines.append(f"j{i} = {num} / {den}")
    return "\n".join(lines) + "\n"


def stratum_poly(
    curve: CurveModel, pair: tuple, M: int, phi: ModularPolynomial
) -> IntPoly:
    """Primitive integer polynomial whose roots are the t with Phi_M(j_a(t), j_b(t)) = 0.

    Denominator roots are excluded exactly: any common factor between the
    cleared numerator and the map denominators is divided out, since the maps
    are undefined there.
    """
    from .modular import phi_specialize

    i1, i2 = pair
    f = curve.map(i1)
    g = curve.map(i2)
    poly = phi_specialize(phi, f, g)
    for den in (f.den, g.den):
        if den.degree < 1:
            continue
        while True:
            common = gcd(poly, den)
            if common.degree < 1:
                break
            quotient = poly.exact_div(common)
            if quotient is None:
                # divide over Q and renormalize
                from .exactpoly import _pseudo_divmod

                qq, rr = _pseudo_divmod(poly.coeffs, common.coeffs)
                assert not any(rr)
                quotient = IntPoly(qq)
            poly = quotient.primitive()
            if poly.degree < 1:
                break
    if poly.is_zero():
        raise DegenerateInput("stratum polynomial vanished after denominator exclusion")
    return poly.primitive()


def _admissible_pair_combos(pairs):
    out = []
    for x in range(len(pairs)):
        for y in range(x + 1, len(pairs)):
            if set(pairs[x]) != set(pairs[y]):
                out.append((pairs[x], pairs[y]))
    return out


def all_pairs(n: int) -> list[tuple]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def unlikely_points(
    curve: CurveModel,
    levels,
    pairs=None,
    phis: dict = None,
    ctx: PrecisionContext = None,
    include_single: bool = True,
) -> list[ScanPoint]:
    """Scan the level/pair grid for single and double stratum points.

    For each admissible pair of coordinate pairs the exact gcd of the two
    stratum polynomials is taken; a nontrivial squarefree part becomes a
    double-stratum ScanPoint.  Single strata are reported alongside when
    include_single is set.  Empty output is the generic (and expected) result.
    """
    from .modular import phi_recover_exact

    ctx = ctx or PrecisionContext()
    pairs = pairs or all_pairs(curve.n)
    levels = list(levels)
    phis = dict(phis or {})
    for M in levels:
        if M not in phis:
            phis[M] = phi_recover_exact(M, ctx)
    strata = {}
    for pair in pairs:
        for M in levels:
            try:
                strata[(pair, M)] = stratum_poly(curve, pair, M, phis[M])
            except DegenerateInput:
                continue
    points = []
    if include_single:
        for (pair, M), poly in sorted(strata.items()):
            if poly.degree < 1:
                continue
            points.append(_make_point(curve, (pair[0], pair[1], M), None, poly, ctx))
    for (pa, pb) in _admissible_pair_combos(pairs):
        for Ma in levels:
            for Mb in levels:
                sa = strata.get((pa, Ma))
                sb = strata.get((pb, Mb))
                if sa is None or sb is None or sa.degree < 1 or sb.degree < 1:
                    continue
                g = gcd(sa, sb)
                if g.degree < 1:
                    continue
                points.append(
                    _make_point(curve, (pa[0], pa[1], Ma), (pb[0], pb[1], Mb), g, ctx)
                )
    return points


def _make_point(curve, pair1, pair2, poly, ctx) -> ScanPoint:
    ps = AlgebraicPointSet.from_poly(poly, ctx)
    # ps.defining is primitive, so its roots are the ones mahler_height would find
    height_t = (
        _mahler_height_of_roots(ps.defining.lead, ps.roots, ctx) if ps.degree_bound >= 1 else mp.mpf(0)
    )
    heights = []
    flags = []
    idxs = [pair1[0], pair1[1]] + ([pair2[0], pair2[1]] if pair2 else [])
    for i in sorted(set(idxs)):
        jpoly = coordinate_value_poly(ps.defining, curve.map(i))
        if jpoly is None or jpoly.degree < 1:
            heights.append((i, None))
            flags.append((i, None))
            continue
        heights.append((i, mahler_height(squarefree(jpoly), ctx)))
        flags.append((i, _singular_modulus_flag(curve.map(i), ps.roots, ctx)))
    return ScanPoint(
        pair1=pair1,
        pair2=pair2,
        defining=ps,
        heights=tuple(heights),
        height_t=height_t,
        degree_bound=ps.degree_bound,
        singular_modulus_flags=tuple(flags),
    )


def coordinate_value_poly(defining: IntPoly, jmap: RatFunc) -> IntPoly | None:
    """Integer polynomial satisfied by j(t*) over the roots t* of the defining polynomial.

    Computed as X -> Res_t(defining(t), X*den(t) - num(t)) by exact
    interpolation: the resultant is evaluated at degree+1 integer values of X
    (skipping those that drop the t-degree) and interpolated over Q.
    """
    d = defining.degree
    if d < 1:
        return None
    deg_t = max(jmap.num.degree, jmap.den.degree)
    if deg_t < 0:
        return None
    samples = []
    x0 = 0
    while len(samples) < d + 1 and x0 < 8 * (d + 2):
        cand = jmap.den * x0 - jmap.num
        if cand.degree == deg_t:
            samples.append((x0, resultant(defining, cand)))
        x0 += 1
    if len(samples) < d + 1:
        return None
    coeffs = _interpolate_rational(samples)
    if coeffs is None:
        return None
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return IntPoly([int(c * den_lcm) for c in coeffs]).primitive()


def _interpolate_rational(samples):
    """Lagrange interpolation over Q through integer samples [(x, y), ...]."""
    n = len(samples)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(samples):
        base = [Fraction(1)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(samples):
            if k == i:
                continue
            # multiply base by (x - xk)
            nxt = [Fraction(0)] * (len(base) + 1)
            for m, c in enumerate(base):
                nxt[m] -= c * xk
                nxt[m + 1] += c
            base = nxt
            denom *= xi - xk
        w = Fraction(yi) / denom
        for m, c in enumerate(base):
            coeffs[m] += w * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or None


def soundness_residual(
    curve: CurveModel, pair: tuple, M: int, root, ctx: PrecisionContext = None
) -> mp.mpf:
    """Scaled |Phi_M| at (j_a(t*), j_b(t*)) via the sublattice product formula.

    Lifts the second coordinate value y through the inverse-j map and returns
    prod |x - j_sub| / max(1, |x|, |j_sub|) over the psi(M) sublattice
    j-values of the lift, each factor scaled as it is formed; a small residual
    means the isolated root really sits on the stratum.
    """
    ctx = ctx or PrecisionContext()
    i1, i2 = pair
    with ctx.workprec():
        x = curve.map(i1)(to_complex(root))
        yv = curve.map(i2)(to_complex(root))
        tau = invert_j(yv, ctx)
        if tau is None:
            raise NonConvergence("could not lift the coordinate value through j")
        scale = max(mp.mpf(1), abs(x))
        residual = mp.mpf(1)
        for jv in sublattice_j_values(M, tau, ctx):
            residual *= abs(x - jv) / max(scale, abs(jv))
        return +residual


def invert_j(value, ctx: PrecisionContext = None, max_newton: int = 80) -> mp.mpc | None:
    """Solve j(tau) = value in the fundamental domain by Newton iteration.

    Starts from the q-series inversion j ~ 1/q + 744 for large |value| and
    from interior points near the corner values otherwise.  The iteration
    first runs in complex floats from these starts (_float_newton_j); the
    point where its step falls below 1e-14 * |tau| starts the
    working-precision iteration, which alone accepts a lift:
    |j(tau) - value| < tol * max(1, |value|).  When the float run fails (a
    value or iterate that is not finite, no convergence, Im(tau) <= 1/100)
    or its point is not accepted, the working-precision iteration runs from
    the starts themselves.  Advisory-quality: returns None when every start
    fails rather than raising.
    """
    ctx = ctx or PrecisionContext()
    value = to_complex(value)
    with ctx.workprec():
        starts = []
        if abs(value) > 2500:
            q0 = 1 / (value - 744)
            tau0 = mp.log(q0) / ctx.two_pi_i
            starts.append(tau0)
        starts += [
            mp.mpc(mp.mpf(1) / 10, mp.mpf(21) / 20),
            mp.mpc(-mp.mpf(3) / 10, mp.mpf(11) / 10),
            mp.mpc(mp.mpf(2) / 5, mp.mpf(6) / 5),
        ]
        guess = _float_newton_j(value, starts)
        if guess is not None and guess not in starts:
            starts.insert(0, guess)
        target_tol = ctx.tol * max(mp.mpf(1), abs(value))
        for tau in starts:
            try:
                root = _newton_j(value, tau, ctx, max_newton, target_tol)
            except (ValueError, ZeroDivisionError, DomainError):
                root = None
            if root is not None:
                reduced, _ = reduce_tau(root, ctx)
                return +reduced
    return None


#: the float iteration stops after a step below _FLOAT_STEP_TOL * |tau|, and fails
#: after _FLOAT_NEWTON_STEPS steps (the corners rho and i converge linearly)
_FLOAT_STEP_TOL = 1e-14
_FLOAT_NEWTON_STEPS = 200


def _float_newton_j(value, starts):
    """A start for _newton_j from the damped Newton iteration in complex floats, or None.

    Runs _newton_j's iteration on each start in turn, with j - value and
    dj/dtau from _j_float, and returns the first point reached by a step
    below _FLOAT_STEP_TOL * |tau|.  A start whose first step is that small
    is returned as given: for large |value| the q-series start is closer
    than a float can hold.
    """
    v = complex(value)
    if not cmath.isfinite(v):
        return None
    for start in starts:
        tau = complex(start)
        try:
            for step_no in range(_FLOAT_NEWTON_STEPS):
                if not tau.imag > 0.01:
                    break
                fv, deriv = _j_float(tau, v)
                step = fv / deriv
                if not cmath.isfinite(step):
                    break
                if abs(step) <= _FLOAT_STEP_TOL * abs(tau):
                    return start if step_no == 0 else mp.mpc(tau - step)
                if abs(step) > tau.imag / 2:
                    step *= tau.imag / (2 * abs(step))
                tau -= step
        except (ZeroDivisionError, OverflowError):
            continue
    return None


def _newton_j(value, tau, ctx, max_newton, target_tol):
    for _ in range(max_newton):
        if not mp.im(tau) > mp.mpf(1) / 100:
            return None
        fv, deriv = _j_minus(value, *_eisenstein_sums((4, 6), tau, ctx, delta=True), ctx.two_pi_i)
        if abs(fv) < target_tol:
            return tau
        step = fv / deriv
        # damp huge steps to stay in the upper half-plane
        if abs(step) > mp.im(tau) / 2:
            step *= mp.im(tau) / (2 * abs(step))
        tau = tau - step
    return None


def _singular_modulus_flag(jmap: RatFunc, roots, ctx) -> bool | None:
    """True/False when the inverse-j lift settles the CM question; None if the lift fails."""
    for root in roots:
        val = jmap(to_complex(root))
        tau = invert_j(val, ctx)
        if tau is None:
            return None
        cert = detect_cm(tau, bound=60, ctx=ctx)
        if cert is None:
            return False
    return True


def numeric_double_checks(
    curve: CurveModel,
    exact_points: list,
    numeric_levels,
    ctx: PrecisionContext = None,
) -> list[ScanPoint]:
    """Numeric-only double-stratum flags at exact single-stratum roots.

    For levels without exact tables, each isolated root of an exact stratum is
    tested against the other coordinate pairs with the numeric product
    formula.  Positives are reported as numeric_only points (never as exact
    ScanPoints).
    """
    ctx = ctx or PrecisionContext()
    out = []
    pairs = all_pairs(curve.n)
    for point in exact_points:
        if point.pair2 is not None or point.defining is None:
            continue
        base_pair = (point.pair1[0], point.pair1[1])
        for root in point.defining.roots:
            for pb in pairs:
                if set(pb) == set(base_pair):
                    continue
                for N in numeric_levels:
                    try:
                        res = soundness_residual(curve, pb, N, root, ctx)
                    except (NonConvergence, DomainError):
                        continue
                    if res < ctx.sqrt_tol:
                        out.append(
                            ScanPoint(
                                pair1=point.pair1,
                                pair2=(pb[0], pb[1], N),
                                defining=point.defining,
                                height_t=point.height_t,
                                degree_bound=point.degree_bound,
                                numeric_only=True,
                            )
                        )
    return out


def report(points: list, ndigits: int = 24) -> dict:
    """Rows of (defining data, levels, heights, flags) plus advisory statistics.

    The closing statistic is a least-squares slope of log-height against
    log max(M, N) over the double-stratum rows; it is descriptive only.
    """

    def fmt(x):
        if x is None:
            return None
        return mp.nstr(mp.mpf(x), ndigits)

    rows = []
    for pt in sorted(points, key=_point_sort_key):
        row = {
            "pair1": list(pt.pair1),
            "pair2": list(pt.pair2) if pt.pair2 else None,
            "M": pt.pair1[2],
            "N": pt.pair2[2] if pt.pair2 else None,
            "t_minpoly": list(pt.defining.defining.coeffs) if pt.defining else None,
            "degree_bound": pt.degree_bound,
            "height_t": fmt(pt.height_t),
            "heights_j": [[i, fmt(h)] for (i, h) in pt.heights],
            "singular_modulus_flags": [[i, f] for (i, f) in pt.singular_modulus_flags],
            "numeric_only": pt.numeric_only,
        }
        rows.append(row)
    summary = {
        "points": len(rows),
        "double_strata": sum(1 for r in rows if r["pair2"] is not None),
        "rows": rows,
    }
    slope = _loglog_slope(points)
    if slope is not None:
        summary["advisory_height_level_slope"] = fmt(slope)
    return summary


def _point_sort_key(pt: ScanPoint):
    return (
        pt.pair1,
        pt.pair2 or (0, 0, 0),
        pt.degree_bound,
        tuple(pt.defining.defining.coeffs) if pt.defining else (),
    )


def _loglog_slope(points):
    xs, ys = [], []
    for pt in points:
        if pt.pair2 is None or pt.height_t is None:
            continue
        level = max(pt.pair1[2], pt.pair2[2])
        h = mp.mpf(pt.height_t)
        if h <= 0 or level < 2:
            continue
        xs.append(mp.log(level))
        ys.append(mp.log(h))
    if len(xs) < 2:
        return None
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
