import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from zpscan import modular
from zpscan.analytic import PrecisionContext, j_invariant, polyroots
from zpscan.errors import DegenerateInput, DomainError
from zpscan.exactpoly import RatFunc
from zpscan.isogeny import psi
from zpscan.modular import phi_eval_numeric, phi_recover_exact, phi_specialize, sublattice_j_values
from zpscan.periods import reduce_tau

from oracles import phi_recover_numeric

# the classical level-2 table, frozen as an external cross-check
PHI2_KNOWN = {
    (3, 0): 1,
    (0, 3): 1,
    (2, 2): -1,
    (2, 1): 1488,
    (1, 2): 1488,
    (2, 0): -162000,
    (0, 2): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000,
    (0, 1): 8748000000,
    (0, 0): -157464000000000,
}


def test_phi2_recovery_matches_classical_table(ctx):
    phi = phi_recover_exact(2, ctx)
    assert phi.coeffs == PHI2_KNOWN
    assert phi.degree == psi(2) == 3
    assert phi.is_symmetric()


def test_phi2_exact_integer_vanishing(ctx):
    phi = phi_recover_exact(2, ctx)
    assert phi.eval_exact(1728, 287496) == 0
    assert phi.eval_exact(287496, 1728) == 0
    assert phi.eval_exact(1728, 1728) == 0  # self-2-isogenous CM value
    assert phi.eval_exact(0, 1728) != 0


def test_phi3_recovery_shape(ctx):
    phi = phi_recover_exact(3, ctx)
    assert phi.degree == psi(3) == 4
    assert phi.is_symmetric()
    # the conductor-3 point below j = 0 is 3-isogenous to it
    assert phi.eval_exact(0, -12288000) == 0


def test_level_one_analogue(ctx):
    phi = phi_recover_exact(1, ctx)
    assert phi.coeffs == {(1, 0): 1, (0, 1): -1}


def test_phi_eval_numeric_zero_at_isogenous_value(ctx):
    tau = mp.mpc(0, 1)
    x = j_invariant(mp.mpc(0, 2), ctx)
    val = phi_eval_numeric(2, x, tau, ctx)
    scale = max(1, abs(x)) ** psi(2)
    assert abs(val) < ctx.tol * scale


def test_phi_eval_level_one(ctx):
    tau = mp.mpc(mp.mpf(1) / 5, mp.mpf(11) / 10)
    jv = j_invariant(tau, ctx)
    assert abs(phi_eval_numeric(1, jv, tau, ctx)) < ctx.tol * max(1, abs(jv))


def test_numeric_exact_agreement(ctx):
    rng = random.Random(77)
    for N in (2, 3):
        phi = phi_recover_exact(N, ctx)
        with ctx.workprec():
            for _ in range(20):
                x = mp.mpc(rng.randint(-10 ** 3, 10 ** 3), rng.randint(-10 ** 3, 10 ** 3))
                tau = mp.mpc(
                    mp.mpf(rng.randint(-400, 400)) / 1000,
                    mp.mpf(rng.randint(800, 1700)) / 1000,
                )
                jv = j_invariant(tau, ctx)
                subvals = sublattice_j_values(N, tau, ctx)
                numeric = phi_eval_numeric(N, x, tau, ctx)
                exact = phi.eval_mp(x, jv, ctx)
                # error scale of the product: one factor per sublattice value,
                # one more for the specialization in jv
                scale = max(mp.mpf(1), abs(x), abs(jv))
                for sv in subvals:
                    scale *= max(mp.mpf(1), abs(x), abs(sv))
                assert abs(numeric - exact) < ctx.tol * scale


def test_root_correspondence(ctx):
    # roots of Phi_N(X, j(tau)) in X match the sublattice j-values as multisets
    phi = phi_recover_exact(2, ctx)
    with ctx.workprec():
        tau = mp.mpc(mp.mpf(1) / 7, mp.mpf(13) / 10)
        jv = j_invariant(tau, ctx)
        xpoly = [mp.mpc(0)] * 4
        for (i, k), c in phi.coeffs.items():
            xpoly[i] += c * jv ** k
        roots = polyroots(xpoly, ctx)
        subs = sublattice_j_values(2, tau, ctx)
        assert len(roots) == len(subs) == 3
        for sv in subs:
            assert min(abs(sv - r) for r in roots) < ctx.sqrt_tol * max(1, abs(sv))


def test_recovery_caps_level(ctx):
    with pytest.raises(DomainError):
        phi_recover_exact(6, ctx)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_exact_tables_match_numeric_recovery_oracle(ctx, N):
    table, err = phi_recover_numeric(N, 1024)
    assert err < mp.mpf(2) ** -256
    # insertion order too: eval_mp sums the terms in table order
    assert list(phi_recover_exact(N, ctx).coeffs.items()) == list(table.items())


def test_exact_tables_build_without_mpmath(monkeypatch, ctx):
    expected = {N: phi_recover_exact(N, ctx).coeffs for N in range(2, 6)}

    def forbidden(*args, **kwargs):
        raise AssertionError("the exact construction called into mpmath")

    monkeypatch.setattr(modular, "_EXACT_CACHE", {})
    monkeypatch.setattr(modular, "j_invariant", forbidden)
    monkeypatch.setattr(mp, "lu_solve", forbidden)
    for N in range(2, 6):
        assert phi_recover_exact(N, ctx).coeffs == expected[N]


@pytest.mark.parametrize("N", [6, 7, 8, 9])
def test_construction_beyond_the_cap(N):
    # N = 8 and 9 exercise gcd(A, D) = 2 and 3 in the Moebius weights
    phi = modular._build_phi(N)
    assert phi.is_symmetric()
    assert phi.degree == psi(N) and phi.coeffs[(psi(N), 0)] == 1
    assert all(i < psi(N) for (i, j) in phi.coeffs if (i, j) != (psi(N), 0))
    if N == 7:
        # Kronecker: Phi_p(X, Y) = (X**p - Y)(X - Y**p) mod p
        kronecker = {(8, 0): 1, (7, 7): -1, (1, 1): -1, (0, 8): 1}
        keys = set(phi.coeffs) | set(kronecker)
        assert all((phi.coeffs.get(k, 0) - kronecker.get(k, 0)) % 7 == 0 for k in keys)
    # Phi_N(j(tau), j(N*tau)) = 0 within the scale tol * max(1, |j|)**(2 * degree).
    # tau = z/N with |z|**2 near N keeps both j-values moderate, so the scale
    # is far below 1 and any wrong coefficient shows; the j-values are taken at
    # 2048 bits because at 1024 bits their own error exceeds that scale.
    tol = PrecisionContext(bits=1024).tol
    hi = PrecisionContext(bits=2048)
    with hi.workprec():
        for x in (math.isqrt(N - 1), math.isqrt(N - 1) + 1):
            z = mp.mpc(x, mp.mpf(11) / 10)
            jt = j_invariant(reduce_tau(z / N, hi)[0], hi)
            jnt = j_invariant(z, hi)
            scale = max(mp.mpf(1), abs(jt), abs(jnt)) ** (2 * phi.degree)
            assert tol * scale < 1
            assert abs(phi.eval_mp(jt, jnt, hi)) < tol * scale


def test_phi_specialize_identical_maps(ctx):
    phi = phi_recover_exact(1, ctx)
    t = RatFunc.from_coeffs([0, 1])
    with pytest.raises(DegenerateInput):
        phi_specialize(phi, t, t)


def test_phi_specialize_unit(ctx):
    phi = phi_recover_exact(1, ctx)
    f = RatFunc.from_coeffs([0, 1])
    g = RatFunc.from_coeffs([1, 1])
    poly = phi_specialize(phi, f, g)
    assert poly.degree == 0  # constant -1, normalized to a unit


def test_phi_specialize_degree_oracle(ctx):
    # brute-force expansion over Fractions fixes the expected degree
    phi = phi_recover_exact(2, ctx)
    f = RatFunc.from_coeffs([0, 1])
    g = RatFunc.from_coeffs([1, 1])
    poly = phi_specialize(phi, f, g)

    def brute(tval: Fraction) -> Fraction:
        return phi.eval_exact(tval, tval + 1)

    # degree = X^2Y^2 contribution = 4; check five exact points against the poly
    assert poly.degree == 4
    for tv in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(5, 3)):
        direct = brute(tv)
        val = Fraction(0)
        for i, c in enumerate(poly.coeffs):
            val += c * tv ** i
        # poly is content-normalized, so compare up to the constant ratio
        if direct != 0:
            assert val * brute(Fraction(2)) == direct * sum(
                c * Fraction(2) ** i for i, c in enumerate(poly.coeffs)
            )
        else:
            assert val == 0


def test_phi_specialize_with_denominators(ctx):
    phi = phi_recover_exact(2, ctx)
    f = RatFunc.from_coeffs([0, 1], [1, 1])  # t/(t+1)
    g = RatFunc.from_coeffs([3, 1])
    poly = phi_specialize(phi, f, g)
    assert not poly.is_zero()
    # exact check at one safe rational point
    tv = Fraction(1, 2)
    lhs = phi.eval_exact(Fraction(1, 2) / Fraction(3, 2), Fraction(7, 2))
    den = (Fraction(3, 2)) ** 3
    val = sum(c * tv ** i for i, c in enumerate(poly.coeffs))
    assert (lhs == 0) == (val == 0)
    assert lhs != 0 and val != 0
