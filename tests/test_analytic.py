import random

import mpmath as mp
import pytest

from zpscan.analytic import (
    PrecisionContext,
    _eisenstein_sums,
    _float_start,
    _j_float,
    eisenstein,
    j_invariant,
    polyroots,
)
from zpscan.errors import DegenerateInput, DomainError, NonConvergence

from oracles import (
    eisenstein_term_test,
    expand_from_roots,
    log_delta_derivative,
    polyroots_circle,
)


def test_precision_context_defaults():
    ctx = PrecisionContext()
    assert ctx.bits == 256
    assert ctx.tol == mp.mpf(2) ** -128
    with pytest.raises(DomainError):
        PrecisionContext(bits=32)


def test_eisenstein_periodicity(ctx):
    with ctx.workprec():
        tau = mp.mpc(mp.mpf(3) / 10, mp.mpf(11) / 10)
        for k in (2, 4, 6):
            a = eisenstein(k, tau, ctx)
            b = eisenstein(k, tau + 1, ctx)
            assert abs(a - b) < ctx.tol * max(1, abs(a))


def test_e6_vanishes_at_i(ctx):
    # i is fixed by the inversion, which transforms weight 6 by a sign
    val = eisenstein(6, mp.mpc(0, 1), ctx)
    assert abs(val) < ctx.tol


def test_eisenstein_modularity_random(ctx):
    rng = random.Random(5)
    with ctx.workprec():
        for _ in range(50):
            re = mp.mpf(rng.randint(-500, 500)) / 1000
            im = mp.mpf(rng.randint(500, 2000)) / 1000
            tau = mp.mpc(re, im)
            inv = -1 / tau
            if mp.im(inv) < mp.mpf(3) / 10:
                continue
            e4 = eisenstein(4, tau, ctx)
            e6 = eisenstein(6, tau, ctx)
            assert abs(eisenstein(4, inv, ctx) - tau ** 4 * e4) < ctx.tol * max(1, abs(tau ** 4 * e4))
            assert abs(eisenstein(6, inv, ctx) - tau ** 6 * e6) < ctx.tol * max(1, abs(tau ** 6 * e6))


def test_e2_against_log_delta_derivative(ctx):
    tau = mp.mpc(mp.mpf(1) / 4, 2)
    oracle = log_delta_derivative(tau, ctx)
    val = eisenstein(2, tau, ctx)
    assert abs(val - oracle) < ctx.tol


def test_eisenstein_domain(ctx):
    with pytest.raises(DomainError):
        eisenstein(4, mp.mpc(0, -1), ctx)
    with pytest.raises(DomainError):
        eisenstein(8, mp.mpc(0, 1), ctx)


def test_eisenstein_max_terms_budget():
    tight = PrecisionContext(bits=256, max_terms=5)
    with pytest.raises(NonConvergence):
        eisenstein(4, mp.mpc(0, mp.mpf(1) / 50), tight)


# (Re num, Re den, Im num, Im den): Im(tau) from 0.87, just inside the
# fundamental domain, to 40, where each series stops after its q term at 256 bits
SERIES_TAUS = [
    (1, 10, 87, 100), (-9, 20, 9, 10), (3, 10, 1, 1), (0, 1, 3, 2), (1, 4, 3, 1),
    (-2, 5, 15, 2), (1, 2, 12, 1), (1, 10, 20, 1), (0, 1, 40, 1),
]


def _series_tau(re_num, re_den, im_num, im_den):
    return mp.mpc(mp.mpf(re_num) / re_den, mp.mpf(im_num) / im_den)


def test_eisenstein_matches_term_test_oracle():
    # the series length predicted from Im(tau) is the one a per-term modulus test finds
    for bits in (256, 512):
        ctx = PrecisionContext(bits=bits)
        with ctx.workprec():
            taus = [_series_tau(*t) for t in SERIES_TAUS]
        for tau in taus:
            for k in (2, 4, 6):
                assert eisenstein(k, tau, ctx) == eisenstein_term_test(k, tau, ctx)


def test_joint_kernel_equals_eisenstein(ctx):
    with ctx.workprec():
        for t in SERIES_TAUS:
            tau = _series_tau(*t)
            e4, e6 = _eisenstein_sums((4, 6), tau, ctx)
            for k, got in ((4, e4), (6, e6)):
                want = eisenstein(k, tau, ctx)
                assert abs(got - want) <= ctx.tol * max(1, abs(want))


def test_j_float_matches_j_invariant():
    # the float j is accurate at Im(tau) = 20 and 40 as well as near rho and
    # i, and j - value is accurate relative to itself on both sides of the
    # corner formulas; the reference takes Delta as (E4^3 - E6^2) / 1728 at
    # 1024 bits, which keeps about 660 of them at Im(tau) = 40
    ctx = PrecisionContext(bits=1024)
    with ctx.workprec():
        taus = [_series_tau(*t) for t in SERIES_TAUS]
        taus += [mp.mpc(-0.5, mp.sqrt(3) / 2) + mp.mpc(3, 4) * 1e-4, mp.mpc(0, 1) + mp.mpc(2, -1) * 1e-4]
        for tau in taus:
            tau = mp.mpc(complex(tau))  # the reference at the float point itself
            e4, e6 = eisenstein(4, tau, ctx), eisenstein(6, tau, ctx)
            delta = (e4 ** 3 - e6 ** 2) / 1728
            jval = e4 ** 3 / delta
            want_deriv = -ctx.two_pi_i * e4 ** 2 * e6 / delta
            for value in (0, 1, 1727, 1728, 10 ** 6):
                got, deriv = _j_float(complex(tau), complex(value))
                assert abs(got - (jval - value)) <= 1e-12 * abs(jval - value)
                assert abs(deriv - want_deriv) <= 1e-12 * abs(want_deriv)


def test_j_special_values(ctx):
    assert abs(j_invariant(mp.mpc(0, 1), ctx) - 1728) < ctx.tol
    rho = mp.mpc(-mp.mpf(1) / 2, mp.sqrt(3) / 2)
    with ctx.workprec():
        rho = mp.mpc(-mp.mpf(1) / 2, mp.sqrt(3) / 2)
    assert abs(j_invariant(rho, ctx)) < ctx.tol
    assert abs(j_invariant(mp.mpc(0, 2), ctx) - 287496) < ctx.tol * 287496


def test_j_precision_doubling_stability():
    tau = mp.mpc(mp.mpf(1) / 3, mp.mpf(7) / 5)
    a = j_invariant(tau, PrecisionContext(bits=256))
    b = j_invariant(tau, PrecisionContext(bits=512))
    assert abs(a - b) < PrecisionContext(bits=256).tol * max(1, abs(b))


def test_j_modular_invariance(ctx):
    rng = random.Random(23)
    with ctx.workprec():
        for _ in range(10):
            tau = mp.mpc(mp.mpf(rng.randint(-400, 400)) / 1000, mp.mpf(rng.randint(700, 1600)) / 1000)
            j0 = j_invariant(tau, ctx)
            assert abs(j_invariant(tau + 1, ctx) - j0) < ctx.tol * max(1, abs(j0))
            assert abs(j_invariant(-1 / tau, ctx) - j0) < ctx.tol * max(1, abs(j0))


def test_polyroots_simple(ctx):
    roots = polyroots([-1, 0, 1], ctx)  # x^2 - 1
    assert len(roots) == 2
    vals = sorted((mp.re(r) for r in roots))
    assert abs(vals[0] + 1) < ctx.tol and abs(vals[1] - 1) < ctx.tol


def test_polyroots_double_root_cluster(ctx):
    roots = polyroots([9, -6, 1], ctx)  # (x - 3)^2
    assert len(roots) == 2
    for r in roots:
        assert abs(r - 3) < ctx.sqrt_tol


def test_polyroots_reexpansion_oracle(ctx):
    rng = random.Random(7)
    coeffs = [rng.randint(-9, 9) for _ in range(8)] + [rng.randint(1, 9)]
    with ctx.workprec():
        roots = polyroots(coeffs, ctx)
        back = expand_from_roots(roots, lead=coeffs[-1])
        maxc = max(abs(mp.mpc(c)) for c in coeffs)
        for got, want in zip(back, coeffs):
            assert abs(got - want) < ctx.tol * len(coeffs) * max(1, maxc)


def test_polyroots_zero_roots_and_errors(ctx):
    roots = polyroots([0, 0, 1], ctx)  # x^2
    assert all(abs(r) == 0 for r in roots)
    with pytest.raises(DegenerateInput):
        polyroots([3], ctx)
    with pytest.raises(DegenerateInput):
        polyroots([], ctx)


def _multiset_gap(got, want):
    """Largest relative distance when each root of got is matched to its nearest unused root of want."""
    want = list(want)
    assert len(got) == len(want)
    worst = mp.mpf(0)
    for r in got:
        i = min(range(len(want)), key=lambda m: abs(want[m] - r))
        worst = max(worst, abs(want.pop(i) - r) / max(1, abs(r)))
    return worst


def test_polyroots_matches_circle_start_oracle(ctx):
    rng = random.Random(31)
    with ctx.workprec():
        for deg in range(1, 16):
            bits = rng.randint(1, 400)
            coeffs = [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(deg)]
            coeffs.append(rng.randint(1, 2 ** bits))
            if coeffs[0] == 0:
                coeffs[0] = 1
            assert _float_start([mp.mpc(c) / coeffs[-1] for c in coeffs]) is not None
            assert _multiset_gap(polyroots(coeffs, ctx), polyroots_circle(coeffs, ctx)) < ctx.tol


def test_polyroots_double_root_matches_oracle(ctx):
    # (x - 1)^2 (x - 2): the two starts land at different points of the
    # sqrt(tol) cluster around 1; the simple root agrees to tol
    coeffs = [-2, 5, -4, 1]
    got, want = polyroots(coeffs, ctx), polyroots_circle(coeffs, ctx)
    with ctx.workprec():
        assert _multiset_gap(got, want) < ctx.sqrt_tol
        assert abs(got[2] - 2) < ctx.tol and abs(want[2] - 2) < ctx.tol
        assert all(abs(r - 1) < ctx.sqrt_tol for r in got[:2] + want[:2])


def test_polyroots_float_overflow_takes_circle_start(ctx):
    # the monic coefficients exceed the float range, so the circle start is used
    coeffs = [3 * 10 ** 400, -(10 ** 400 + 3), 1]
    with ctx.workprec():
        assert _float_start([mp.mpc(c) for c in coeffs]) is None
    roots = polyroots(coeffs, ctx)
    assert roots == polyroots_circle(coeffs, ctx)
    with ctx.workprec():
        assert abs(roots[0] - 3) < ctx.tol and abs(roots[1] / 10 ** 400 - 1) < ctx.tol


def test_polyroots_nonconvergence_names_the_input(ctx):
    with pytest.raises(NonConvergence, match=r"after 2 sweeps \(degree 2, largest coefficient 1331 bits\)"):
        polyroots([3 * 10 ** 400, -(10 ** 400 + 3), 1], ctx, max_sweeps=2)


@pytest.mark.parametrize("im", [20, 36, 43, 45])
def test_j_invariant_matches_kleinj_at_large_im(im):
    # Delta = q * prod(1 - q**n)**24 does not cancel: j stays accurate where
    # 1 + 240 q and 1 - 504 q round to 1 at 256 bits
    ctx = PrecisionContext(bits=256)
    with ctx.workprec():
        tau = mp.mpc(mp.mpf(1) / 10, im)
    got = j_invariant(tau, ctx)
    with mp.workprec(2048):
        want = 1728 * mp.kleinj(tau)
        assert abs(got - want) < ctx.tol * abs(want)
