import random

import mpmath as mp
import pytest

from zpscan.errors import DegenerateInput, DomainError
from zpscan.periods import (
    Lattice,
    decompose_cm,
    det2,
    detect_cm,
    full_period_matrix,
    make_singular_structure,
    reduce_tau,
)

from conftest import random_lattice
from oracles import quasi_period_row_oracle


def test_lattice_validation():
    with pytest.raises(DomainError):
        Lattice(mp.mpc(0), mp.mpc(0, 1))
    with pytest.raises(DomainError):
        Lattice(mp.mpc(1), mp.mpc(0, -1))
    # negating the second vector of that basis orients it
    lat = Lattice(mp.mpc(1), -mp.mpc(0, -1))
    assert mp.im(lat.tau) > 0


def test_reduce_tau_examples(ctx):
    t, gamma = reduce_tau(mp.mpc(0, 1), ctx)
    assert gamma == (1, 0, 0, 1) and abs(t - mp.mpc(0, 1)) < ctx.tol

    t, gamma = reduce_tau(mp.mpc(5, 1), ctx)
    assert gamma == (1, -5, 0, 1) and abs(t - mp.mpc(0, 1)) < ctx.tol

    t, gamma = reduce_tau(mp.mpc(0, mp.mpf(1) / 2), ctx)
    assert gamma == (0, -1, 1, 0) and abs(t - mp.mpc(0, 2)) < ctx.tol


def test_reduce_tau_properties(ctx):
    rng = random.Random(3)
    with ctx.workprec():
        for _ in range(25):
            tau = mp.mpc(mp.mpf(rng.randint(-5000, 5000)) / 100, mp.mpf(rng.randint(5, 3000)) / 1000)
            t, (a, b, c, d) = reduce_tau(tau, ctx)
            assert a * d - b * c == 1
            assert abs(mp.re(t)) <= mp.mpf(1) / 2 + ctx.tol
            assert abs(t) >= 1 - ctx.tol
            assert abs((a * tau + b) / (c * tau + d) - t) < ctx.sqrt_tol


def test_full_period_matrix_determinant(ctx):
    rng = random.Random(17)
    for _ in range(10):
        lat = random_lattice(rng)
        P = full_period_matrix(lat, ctx)
        assert P.legendre_residual < ctx.tol * abs(ctx.two_pi_i)
        assert P.p[0, 0] == lat.omega1 and P.p[0, 1] == lat.omega2


def test_period_scaling_homogeneity(ctx):
    rng = random.Random(29)
    lat = random_lattice(rng)
    with ctx.workprec():
        lam = mp.mpc(3, 1)
        P = full_period_matrix(lat, ctx)
        Q = full_period_matrix(lat.scaled(lam), ctx)
        for j in range(2):
            assert abs(Q.p[0, j] - lam * P.p[0, j]) < ctx.tol * abs(lam * P.p[0, j])
            assert abs(Q.p[1, j] - P.p[1, j] / lam) < ctx.tol * max(1, abs(P.p[1, j] / lam))


def test_quasi_periods_against_integration_oracle(ctx):
    # independent check of the second row: wp-function quadrature
    bound = mp.mpf(2) ** -60
    square = Lattice(mp.mpc(1), mp.mpc(0, 1))
    rng = random.Random(101)
    for lat in (square, random_lattice(rng)):
        P = full_period_matrix(lat, ctx)
        oracle = quasi_period_row_oracle(lat, ctx)
        for j in range(2):
            scale = max(1, abs(P.p[1, j]))
            assert abs(P.p[1, j] - oracle[j]) < bound * scale


def test_detect_cm_exact_points(ctx):
    cert = detect_cm(mp.mpc(0, 1), 20, ctx)
    assert cert.coeffs == (1, 0, 1) and cert.disc == -4

    with ctx.workprec():
        tau7 = mp.mpc(mp.mpf(1) / 2, mp.sqrt(7) / 2)
    cert = detect_cm(tau7, 20, ctx)
    assert cert.disc == -7 and cert.coeffs == (1, -1, 2)


def test_detect_cm_rejects_generic(ctx):
    with ctx.workprec():
        tau = mp.mpc(mp.mpf(1) / 3, (1 + mp.sqrt(5)) / 2)
    assert detect_cm(tau, 50, ctx) is None


def test_detect_cm_translation_invariance(ctx):
    with ctx.workprec():
        tau = mp.mpc(0, mp.sqrt(2))  # disc -8
    a = detect_cm(tau, 30, ctx)
    b = detect_cm(tau + 1, 30, ctx)
    assert a is not None and b is not None and a.disc == b.disc == -8


def test_cm_j_values_are_integers(ctx):
    from zpscan.analytic import j_invariant

    with ctx.workprec():
        cases = [
            (mp.mpc(0, 1), 1728),
            (mp.mpc(-mp.mpf(1) / 2, mp.sqrt(3) / 2), 0),
            (mp.mpc(0, mp.sqrt(2)), 8000),
        ]
        for tau, expected in cases:
            assert detect_cm(tau, 20, ctx) is not None
            val = j_invariant(tau, ctx)
            assert abs(val - expected) < ctx.tol * max(1, abs(expected))


def test_decompose_cm_roundtrip(ctx):
    rng = random.Random(31)
    with ctx.workprec():
        for _ in range(100):
            lat = random_lattice(rng)
            P = full_period_matrix(lat, ctx)
            sp = decompose_cm(P, ctx)
            assert abs(det2(sp.h) - 1) < ctx.tol
            assert abs(sp.h[0, 0] - 1) < ctx.tol
            norm = P.p / ctx.two_pi_i
            back = sp.reassemble(ctx)
            for i in range(2):
                for j in range(2):
                    assert abs(back[i, j] - norm[i, j]) < ctx.tol * max(1, abs(norm[i, j]))


def test_decompose_cm_square_lattice_gauge(ctx):
    lat = Lattice(mp.mpc(1), mp.mpc(0, 1))
    sp = decompose_cm(full_period_matrix(lat, ctx), ctx)
    assert abs(sp.varpi - 1) < ctx.tol  # first-kind period over the first cycle


def test_make_singular_structure(ctx):
    m = make_singular_structure(1, 0, 0, 1, 0, mp.mpc(2, 1), ctx)
    assert m[0, 0] == 1 and m[1, 1] == 1 and m[0, 1] == 0 and m[1, 0] == 0

    L = mp.mpc(3, -2)
    m = make_singular_structure(1, 0, 0, 1, 1, L, ctx)
    assert abs(m[0, 1] - L) < ctx.tol

    rng = random.Random(41)
    with ctx.workprec():
        for _ in range(10):
            d, dp, e, ep = (mp.mpc(rng.randint(1, 5), rng.randint(-3, 3)) for _ in range(4))
            n_mult = rng.randint(-3, 3)
            logx = mp.mpc(rng.randint(-2, 2), rng.randint(1, 3))
            try:
                m = make_singular_structure(d, dp, e, ep, n_mult, logx, ctx)
            except DegenerateInput:
                continue
            base = mp.matrix([[d, e], [dp, ep]])
            unip = mp.matrix([[1, n_mult * logx], [0, 1]])
            prod = base * unip
            for i in range(2):
                for j in range(2):
                    assert abs(m[i, j] - prod[i, j]) < ctx.tol * max(1, abs(prod[i, j]))


def test_decompose_cm_degenerate(ctx):
    from zpscan.periods import FullPeriodMatrix

    P = FullPeriodMatrix(p=mp.matrix([[0, 1], [1, 0]]), legendre_residual=mp.mpf(0))
    with pytest.raises(DegenerateInput):
        decompose_cm(P, ctx)


def test_make_singular_structure_degenerate(ctx):
    with pytest.raises(DegenerateInput):
        make_singular_structure(1, 1, 1, 1, 0, mp.mpc(1), ctx)
