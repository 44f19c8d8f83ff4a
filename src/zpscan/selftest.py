"""Built-in invariant suite: one line per check, exit-code friendly.

This is the library exercising its own structural invariants (residuals,
determinants, degrees, certificates) at a reduced scale.  The heavier
independent oracles (numerical integration, brute-force enumerations) live in
the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath as mp

from .analytic import PrecisionContext
from .errors import Inconclusive
from .exactpoly import RatFunc
from .isogeny import CyclicSublattice, cyclic_sublattices, make_witness, psi
from .modular import phi_eval_numeric, phi_recover_exact
from .periods import Lattice, full_period_matrix
from .polyrel import IdealI0, evaluate, not_in_I0
from .relations import (
    build_polynomial,
    genuine_second_way,
    random_sl2_gauges,
    synth_first_way,
    synth_four_coordinate,
    synth_second_way,
)
from .scanner import CurveModel, soundness_residual, unlikely_points


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def random_lattice(rng: random.Random, bits: int = 256) -> Lattice:
    """Seeded lattice with tau in a moderate band and a random unit-ish scale."""
    with mp.workprec(bits):
        re = mp.mpf(rng.randint(-500, 500)) / 1000
        im = mp.mpf(rng.randint(500, 2000)) / 1000
        sre = mp.mpf(rng.randint(-900, 900)) / 500
        sim = mp.mpf(rng.randint(-900, 900)) / 500
        scale = mp.mpc(sre, sim)
        if abs(scale) < mp.mpf(1) / 4:
            scale += 1
        return Lattice(scale, scale * mp.mpc(re, im))


def _check_legendre(ctx, n_lattices=10, seed=1):
    rng = random.Random(seed)
    worst = mp.mpf(0)
    for _ in range(n_lattices):
        lat = random_lattice(rng, ctx.bits)
        P = full_period_matrix(lat, ctx)
        scale = abs(ctx.two_pi_i)
        worst = max(worst, P.legendre_residual / scale)
    ok = worst < ctx.tol
    return CheckResult("legendre-relation", ok, f"worst relative residual {mp.nstr(worst, 5)}")


def _check_isogeny(ctx, degrees=(2, 6), n_lattices=2, seed=2):
    rng = random.Random(seed)
    worst = mp.mpf(0)
    count = 0
    for M in degrees:
        for _ in range(n_lattices):
            lat = random_lattice(rng, ctx.bits)
            P1norm = None
            for sub in cyclic_sublattices(M):
                w, _, P1, P2 = make_witness(lat, sub, ctx)
                p, q, r, s = w.homology
                if p * s - q * r != M:
                    return CheckResult("isogeny-identity", False, "integer determinant broke")
                norm = max(abs(P2.p[i, j]) for i in range(2) for j in range(2))
                worst = max(worst, w.residual / norm)
                count += 1
    ok = worst < ctx.tol
    return CheckResult(
        "isogeny-identity", ok, f"{count} sublattices, worst residual {mp.nstr(worst, 5)}"
    )


def _check_genuine_cm(ctx):
    witness, _ = genuine_second_way(mp.mpc(0, 1), CyclicSublattice(1, 0, 2), ctx)
    bound = mp.mpf(2) ** (-100)
    worst = max([witness.residual, *witness.entry_residuals])
    ok = worst < bound
    return CheckResult(
        "cm-pair-identities", ok, f"worst residual {mp.nstr(worst, 5)} (< 2^-100 required)"
    )


def _check_synthetic(ctx, n=5, seed_base=100):
    worst = mp.mpf(0)
    for i in range(n):
        for witness in (
            synth_first_way(seed_base + i, ctx),
            synth_second_way(seed_base + i, ctx),
            synth_four_coordinate(seed_base + i, ctx),
        ):
            worst = max(worst, witness.residual / max(1, _rhs_scale(witness)))
        # degenerate branches must flag and collapse
        wdeg = synth_first_way(seed_base + i, ctx, force_r_zero=True)
        if "r" not in wdeg.degenerate_flags:
            return CheckResult("relation-product-laws", False, "missing degeneracy flag")
    ok = worst < ctx.tol
    return CheckResult(
        "relation-product-laws", ok, f"{3 * n} instances, worst residual {mp.nstr(worst, 5)}"
    )


def _rhs_scale(witness):
    acc = 1
    for v in witness.rhs_integers:
        acc = max(acc, abs(v))
    return acc


def _check_polynomials(ctx, n=4, seed_base=200):
    for i in range(n):
        for witness, smooth in (
            (synth_four_coordinate(seed_base + i, ctx), (3, 4)),
            (synth_second_way(seed_base + i, ctx), (2, 3)),
            (synth_first_way(seed_base + i, ctx, force_r_zero=True), (3,)),
        ):
            R = build_polynomial(witness, ctx)
            if not R.is_homogeneous():
                return CheckResult("relation-polynomials", False, "inhomogeneous R")
            if R.degree() not in (2, 4, 8):
                return CheckResult("relation-polynomials", False, f"degree {R.degree()}")
            val = abs(evaluate(R, witness.assignment, ctx))
            if val > ctx.tol * max(1, R.coeff_norm()):
                return CheckResult(
                    "relation-polynomials", False, f"vanishing failed ({mp.nstr(val, 5)})"
                )
            try:
                not_in_I0(R, IdealI0(smooth_coords=frozenset(smooth)), 5, ctx, seed=i)
            except Inconclusive:
                return CheckResult("relation-polynomials", False, "no certificate found")
    return CheckResult("relation-polynomials", True, f"{3 * n} polynomials certified")


def _check_modular(ctx):
    phi2 = phi_recover_exact(2, ctx)
    if not phi2.is_symmetric():
        return CheckResult("modular-polynomials", False, "asymmetric table")
    if phi2.eval_exact(1728, 287496) != 0:
        return CheckResult("modular-polynomials", False, "exact vanishing failed")
    rng = random.Random(3)
    with ctx.workprec():
        for _ in range(3):
            x = mp.mpc(rng.randint(-50, 50), rng.randint(-50, 50))
            tau = mp.mpc(mp.mpf(rng.randint(-400, 400)) / 1000, mp.mpf(rng.randint(900, 1500)) / 1000)
            jv = _j(tau, ctx)
            numeric = phi_eval_numeric(2, x, tau, ctx)
            exact = phi2.eval_mp(x, jv, ctx)
            scale = max(mp.mpf(1), abs(x), abs(jv)) ** 4
            if abs(numeric - exact) > ctx.tol * scale:
                return CheckResult("modular-polynomials", False, "numeric/exact disagreement")
    return CheckResult("modular-polynomials", True, "symmetry, vanishing and agreement hold")


def _j(tau, ctx):
    from .analytic import j_invariant

    return j_invariant(tau, ctx)


def _check_scanner(ctx):
    curve = CurveModel(n=2, maps=(RatFunc.from_coeffs([0, 1]), RatFunc.from_coeffs([1, 1])))
    pts = unlikely_points(curve, [2], ctx=ctx)
    if len(pts) != 1:
        return CheckResult("scanner", False, f"expected one stratum, got {len(pts)}")
    pt = pts[0]
    if len(pt.defining.roots) != pt.defining.defining.degree:
        return CheckResult("scanner", False, "root count mismatch")
    for root in pt.defining.roots:
        res = soundness_residual(curve, (1, 2), 2, root, ctx)
        if res > ctx.sqrt_tol:
            return CheckResult("scanner", False, "soundness check failed")
    curve3 = CurveModel(
        n=3,
        maps=(
            RatFunc.from_coeffs([0, 1728]),
            RatFunc.from_coeffs([0, 287496]),
            RatFunc.from_coeffs([0, 0, 287496]),
        ),
    )
    doubles = [p for p in unlikely_points(curve3, [2], ctx=ctx) if p.pair2 is not None]
    if len(doubles) != 1 or doubles[0].degree_bound != 1:
        return CheckResult("scanner", False, "engineered double stratum not found")
    return CheckResult("scanner", True, "stratum roots sound; engineered double point found")


def _check_gauge(ctx, n=3, seed_base=300):
    for i in range(n):
        pi = random_sl2_gauges(seed_base + i, [1, 2, 3, 4])
        w_id = synth_four_coordinate(seed_base + i, ctx)
        w_pi = synth_four_coordinate(seed_base + i, ctx, pi_overrides=pi)
        if abs(w_id.residual - w_pi.residual) > ctx.tol:
            return CheckResult("gauge-covariance", False, "residual changed under gauge")
        R = build_polynomial(w_pi, ctx)
        val = abs(evaluate(R, w_pi.assignment, ctx))
        if val > ctx.tol * max(1, R.coeff_norm()):
            return CheckResult("gauge-covariance", False, "gauged polynomial failed to vanish")
    return CheckResult("gauge-covariance", True, f"{n} seeded gauge replacements neutral")


def _check_counts(_ctx):
    for M in (1, 2, 12, 30):
        if len(cyclic_sublattices(M)) != psi(M):
            return CheckResult("sublattice-counts", False, f"count mismatch at {M}")
    return CheckResult("sublattice-counts", True, "enumeration matches the psi law")


def run_selftest(ctx: PrecisionContext = None, quick: bool = False) -> list[CheckResult]:
    ctx = ctx or PrecisionContext()
    checks = [
        _check_counts,
        _check_legendre,
        _check_isogeny,
        _check_genuine_cm,
        _check_synthetic,
        _check_polynomials,
        _check_modular,
    ]
    if not quick:
        checks += [_check_scanner, _check_gauge]
    return [fn(ctx) for fn in checks]
