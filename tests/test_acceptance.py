"""Acceptance suite: every criterion at its stated tolerance and runtime budget.

One criterion per test, each printing a single PASS line when it completes
(pytest -s shows them; failures raise before printing).
"""

import random
import time

import mpmath as mp
import pytest

from zpscan.analytic import PrecisionContext, j_invariant
from zpscan.errors import Inconclusive
from zpscan.exactpoly import RatFunc
from zpscan.isogeny import CyclicSublattice, cyclic_sublattices, make_witness
from zpscan.modular import (
    _recover_at,
    phi_eval_numeric,
    phi_recover_exact,
    sublattice_j_values,
)
from zpscan.periods import full_period_matrix
from zpscan.polyrel import IdealI0, evaluate, not_in_I0
from zpscan.relations import (
    build_polynomial,
    genuine_second_way,
    random_sl2_gauges,
    synth_first_way,
    synth_four_coordinate,
    synth_second_way,
)
from zpscan.scanner import (
    CurveModel,
    report,
    soundness_residual,
    stratum_poly,
    unlikely_points,
)

from conftest import random_lattice, validate_against
from oracles import quasi_period_row_oracle

CTX = PrecisionContext(bits=256)


def _finish(number, name, t0, limit_s):
    elapsed = time.monotonic() - t0
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_legendre_suite():
    t0 = time.monotonic()
    rng = random.Random(1001)
    bound = mp.mpf(2) ** -128 * abs(CTX.two_pi_i)
    for _ in range(100):
        lat = random_lattice(rng)
        P = full_period_matrix(lat, CTX)
        assert P.legendre_residual < bound
    # independent numerical-integration oracle on 3 lattices to 2^-60; 128-bit
    # quadrature leaves about 2^-128 relative error, far below the bound
    oracle_bound = mp.mpf(2) ** -60
    rng2 = random.Random(77)
    for _ in range(3):
        lat = random_lattice(rng2)
        P = full_period_matrix(lat, CTX)
        row = quasi_period_row_oracle(lat, CTX, quad_bits=128)
        for j in range(2):
            scale = max(1, abs(P.p[1, j]))
            assert abs(P.p[1, j] - row[j]) < oracle_bound * scale
    _finish(1, "legendre-suite", t0, 30)


def test_criterion_2_isogeny_identity_suite():
    t0 = time.monotonic()
    rng = random.Random(2002)
    bound = mp.mpf(2) ** -120
    lattices = [random_lattice(rng) for _ in range(5)]
    periods = [full_period_matrix(lat, CTX) for lat in lattices]
    count = 0
    for M in range(1, 31):
        subs = cyclic_sublattices(M)
        for lat, P1 in zip(lattices, periods):
            for sub in subs:
                w, target, P1b, P2 = make_witness(lat, sub, CTX)
                p, q, r, s = w.homology
                assert p * s - q * r == M
                a, b, c = w.de_rham
                assert abs(a * c - M) < bound
                norm = max(abs(P2.p[i, j]) for i in range(2) for j in range(2))
                assert w.residual < bound * norm
                count += 1
    assert count == 5 * sum(len(cyclic_sublattices(M)) for M in range(1, 31))
    _finish(2, f"isogeny-identity ({count} witnesses)", t0, 120)


def test_criterion_3_genuine_cm_second_way():
    t0 = time.monotonic()
    bound = mp.mpf(2) ** -100
    with CTX.workprec():
        tau_disc7 = mp.mpc(mp.mpf(1) / 2, mp.sqrt(7) / 2)
    for tau in (mp.mpc(0, 1), tau_disc7):
        for sub in cyclic_sublattices(2):
            witness, iso = genuine_second_way(tau, sub, CTX)
            assert witness.residual < bound
            for res in witness.entry_residuals:
                assert res < bound
    _finish(3, "genuine-cm-pairs", t0, 10)


@pytest.fixture(scope="module")
def synthetic_witnesses():
    first = [synth_first_way(seed, CTX) for seed in range(50)]
    second = [synth_second_way(seed, CTX) for seed in range(50)]
    four = [synth_four_coordinate(seed, CTX) for seed in range(50)]
    return first, second, four


def test_criterion_4_synthetic_relation_suites(synthetic_witnesses):
    t0 = time.monotonic()
    first, second, four = synthetic_witnesses
    tol = CTX.tol

    def rhs_scale(w):
        return max([1] + [abs(v) for v in w.rhs_integers])

    for w in first:
        assert w.residual < tol * rhs_scale(w)
    for w in second:
        assert w.residual < tol * rhs_scale(w) ** 4
    for w in four:
        assert w.residual < tol * rhs_scale(w) ** 4
    # degeneracy dichotomy on 100% of instances
    for w in first + second + four:
        if w.degenerate_flags:
            if w.way == "first":
                mapping = dict(zip(("r", "s"), w.H))
            elif w.way == "second":
                mapping = {"r": w.H[0], "s": w.H[1], "p": w.H[2], "q": w.H[3]}
            else:
                mapping = dict(zip(("r", "s"), w.H[:2]))
            for flag in w.degenerate_flags:
                assert abs(mapping[flag]) < CTX.sqrt_tol
        else:
            assert all(v != 0 for v in w.rhs_integers)
            assert w.residual < tol * rhs_scale(w) ** 4
    # plus forced degenerate instances on both sides
    for seed in range(10):
        wr = synth_first_way(1000 + seed, CTX, force_r_zero=True)
        assert wr.degenerate_flags == ("r",) and abs(wr.H[0]) < CTX.sqrt_tol
        ws = synth_second_way(1000 + seed, CTX, degenerate="q")
        assert "q" in ws.degenerate_flags and abs(ws.H[3]) < CTX.sqrt_tol
    _finish(4, "synthetic-relation-suites (150 + 20 instances)", t0, 60)


def test_criterion_5_polynomial_certificates(synthetic_witnesses):
    t0 = time.monotonic()
    first, second, four = synthetic_witnesses
    genuine = [
        genuine_second_way(mp.mpc(0, 1), CyclicSublattice(1, 0, 2), CTX)[0]
    ]
    built = 0
    inconclusive = 0
    for w in genuine + second + four + [x for x in first if x.degenerate_flags]:
        R = build_polynomial(w, CTX)
        assert R.is_homogeneous()
        if w.way in ("first", "four"):
            assert R.degree() in (2, 4)
        else:
            assert R.degree() in (2, 8)
        vanish = abs(evaluate(R, w.assignment, CTX))
        assert vanish < CTX.tol * max(1, R.coeff_norm())
        try:
            cert = not_in_I0(R, IdealI0(smooth_coords=w.smooth_coords), 5, CTX, seed=built)
            assert cert.attempts_used <= 5
        except Inconclusive:
            inconclusive += 1
        built += 1
    assert built >= 100
    assert inconclusive <= built * 5 // 100
    _finish(5, f"polynomial-certificates ({built} built, {inconclusive} inconclusive)", t0, 60)


def test_criterion_6_modular_polynomial_suite():
    t0 = time.monotonic()
    rng = random.Random(6006)
    for N in (2, 3):
        phi = phi_recover_exact(N, CTX)
        assert phi.is_symmetric()
        # stability: an independent recovery at doubled precision matches
        table_hi, err = _recover_at(N, 1024)
        assert table_hi == phi.coeffs
        assert err < mp.mpf(2) ** -256
    phi2 = phi_recover_exact(2, CTX)
    assert phi2.eval_exact(1728, 287496) == 0
    with CTX.workprec():
        for _ in range(20):
            x = mp.mpc(rng.randint(-10 ** 3, 10 ** 3), rng.randint(-10 ** 3, 10 ** 3))
            tau = mp.mpc(
                mp.mpf(rng.randint(-400, 400)) / 1000, mp.mpf(rng.randint(800, 1700)) / 1000
            )
            jv = j_invariant(tau, CTX)
            numeric = phi_eval_numeric(2, x, tau, CTX)
            exact = phi2.eval_mp(x, jv, CTX)
            scale = max(mp.mpf(1), abs(x), abs(jv))
            for sv in sublattice_j_values(2, tau, CTX):
                scale *= max(mp.mpf(1), abs(x), abs(sv))
            assert abs(numeric - exact) < CTX.tol * scale
    _finish(6, "modular-polynomials", t0, 120)


def test_criterion_7_scanner_end_to_end():
    t0 = time.monotonic()
    phi2 = phi_recover_exact(2, CTX)
    line = CurveModel(n=2, maps=(RatFunc.from_coeffs([0, 1]), RatFunc.from_coeffs([1, 1])))
    poly = stratum_poly(line, (1, 2), 2, phi2)
    pts = unlikely_points(line, [2], ctx=CTX)
    assert len(pts) == 1
    assert len(pts[0].defining.roots) == poly.degree
    for root in pts[0].defining.roots:
        assert soundness_residual(line, (1, 2), 2, root, CTX) < CTX.sqrt_tol
    engineered = CurveModel(
        n=3,
        maps=(
            RatFunc.from_coeffs([0, 1728]),
            RatFunc.from_coeffs([0, 287496]),
            RatFunc.from_coeffs([0, 0, 287496]),
        ),
    )
    doubles = [p for p in unlikely_points(engineered, [2], ctx=CTX) if p.pair2 is not None]
    assert len(doubles) == 1
    assert doubles[0].degree_bound == 1
    assert abs(doubles[0].height_t) < CTX.tol
    assert doubles[0].defining.defining.coeffs == [-1, 1]
    summary = report([*unlikely_points(engineered, [2], ctx=CTX)])
    validate_against("report.schema.json", summary)
    _finish(7, "scanner-end-to-end", t0, 60)


def test_criterion_8_gauge_covariance():
    t0 = time.monotonic()
    for seed in range(20):
        gauges = random_sl2_gauges(seed + 5000, [1, 2, 3, 4])
        w_id = synth_four_coordinate(seed, CTX)
        w_pi = synth_four_coordinate(seed, CTX, pi_overrides=gauges)
        assert abs(w_id.residual - w_pi.residual) < CTX.tol
        assert w_id.degenerate_flags == w_pi.degenerate_flags
        w2_id = synth_second_way(seed, CTX)
        w2_pi = synth_second_way(seed, CTX, pi_overrides=random_sl2_gauges(seed, [2, 3]))
        assert abs(w2_id.residual - w2_pi.residual) < CTX.tol
        assert w2_id.degenerate_flags == w2_pi.degenerate_flags
        if not w_pi.degenerate_flags:
            R = build_polynomial(w_pi, CTX)
            assert abs(evaluate(R, w_pi.assignment, CTX)) < CTX.tol * max(1, R.coeff_norm())
    _finish(8, "gauge-covariance", t0, 20)
