import random

import mpmath as mp
import pytest

from zpscan.errors import DomainError
from zpscan.exactpoly import (
    AlgebraicPointSet,
    IntPoly,
    RatFunc,
    gcd,
    mahler_height,
    resultant,
    squarefree,
)

from oracles import sylvester_resultant_fractions


def P(*coeffs):
    return IntPoly(list(coeffs))


def test_intpoly_basics():
    p = P(1, 2, 3)
    assert p.degree == 2 and p.lead == 3
    assert (p + P(-1, -2, -3)).is_zero()
    assert (P(0, 1) * P(0, 1)).coeffs == [0, 0, 1]
    assert p(2) == 1 + 4 + 12
    assert p.derivative().coeffs == [2, 6]
    assert P(2, 4, 6).primitive().coeffs == [1, 2, 3]
    assert P(0, 0, -2).primitive().coeffs == [0, 0, 1]


def test_gcd_examples():
    assert gcd(P(-1, 0, 1), P(-1, 1)).coeffs == [-1, 1]  # x^2-1, x-1 -> x-1
    assert gcd(P(2, 4), IntPoly([])).coeffs == [1, 2]  # gcd(p, 0) = primitive(p)
    with pytest.raises(DomainError):
        gcd(IntPoly([]), IntPoly([]))


def test_gcd_construction_oracle():
    rng = random.Random(5)
    for _ in range(20):
        h = P(*[rng.randint(-5, 5) for _ in range(3)], rng.randint(1, 5))
        p = P(*[rng.randint(-5, 5) for _ in range(2)], rng.randint(1, 5))
        q = P(rng.randint(1, 5), rng.randint(1, 5))
        if gcd(p, q).degree != 0:
            continue
        g = gcd(p * h, q * h)
        assert g.coeffs == h.primitive().coeffs
        assert g.divides(p * h) and g.divides(q * h)


def test_resultant_linear_convention():
    # res(x - a, x - b) = a - b with p-rows-first Sylvester layout
    a, b = 5, 2
    assert resultant(P(-a, 1), P(-b, 1)) == a - b


def test_resultant_hand_value():
    assert resultant(P(1, 0, 1), P(-2, 0, 1)) == 9


def test_resultant_vs_fraction_oracle():
    rng = random.Random(6)
    for _ in range(25):
        p = P(*[rng.randint(-6, 6) for _ in range(rng.randint(1, 5))], rng.randint(1, 6))
        q = P(*[rng.randint(-6, 6) for _ in range(rng.randint(1, 5))], rng.randint(1, 6))
        assert resultant(p, q) == sylvester_resultant_fractions(p.coeffs, q.coeffs)


def test_resultant_detects_common_roots():
    rng = random.Random(8)
    for _ in range(15):
        common = P(rng.randint(-4, 4), rng.randint(1, 4))
        p = P(rng.randint(-4, 4), rng.randint(1, 3)) * common
        q = P(rng.randint(1, 4), rng.randint(1, 3)) * common
        assert resultant(p, q) == 0
        assert gcd(p, q).degree >= 1


def test_resultant_multiplicativity():
    rng = random.Random(9)
    for _ in range(10):
        p = P(rng.randint(-4, 4), rng.randint(1, 4), rng.randint(1, 3))
        q = P(rng.randint(-4, 4), rng.randint(1, 4))
        r = P(rng.randint(-4, 4), rng.randint(1, 4))
        assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)


def test_squarefree():
    # (x-1)^2 (x+2) -> (x-1)(x+2)
    p = P(-1, 1) * P(-1, 1) * P(2, 1)
    assert squarefree(p).coeffs == (P(-1, 1) * P(2, 1)).coeffs
    q = P(-1, 0, 1)
    assert squarefree(q).coeffs == q.coeffs
    assert squarefree(P(3, 6)).coeffs == [1, 2]


def test_squarefree_construction_oracle():
    rng = random.Random(12)
    for _ in range(15):
        f = P(rng.randint(-4, 4), rng.randint(1, 4))
        g = P(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4))
        if gcd(f, g).degree != 0 or squarefree(g).coeffs != g.primitive().coeffs:
            continue
        assert squarefree(f * f * g).coeffs == (f * g).primitive().coeffs


def test_mahler_height_values(ctx):
    with ctx.workprec():
        assert abs(mahler_height(P(-2, 1), ctx) - mp.log(2)) < ctx.tol
        assert abs(mahler_height(P(-1, 3), ctx) - mp.log(3)) < ctx.tol
        # x^2 - 2: roots +-sqrt(2), height = (1/2) log 2
        assert abs(mahler_height(P(-2, 0, 1), ctx) - mp.log(2) / 2) < ctx.sqrt_tol


def test_mahler_invariances(ctx):
    rng = random.Random(15)
    with ctx.workprec():
        for _ in range(8):
            p = P(*[rng.randint(-9, 9) for _ in range(4)], rng.randint(1, 9))
            h = mahler_height(p, ctx)
            p_neg = P(*[c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])  # p(-x)
            assert abs(mahler_height(p_neg, ctx) - h) < ctx.sqrt_tol
            # content scaling is invisible: the primitive part carries the height
            assert abs(mahler_height(3 * p, ctx) - h) < ctx.sqrt_tol


def test_mahler_landau_bound(ctx):
    rng = random.Random(16)
    for _ in range(10):
        p = P(*[rng.randint(-9, 9) for _ in range(5)], rng.randint(1, 9))
        l2_norm = mp.sqrt(sum(c * c for c in p.coeffs))
        assert mahler_height(p, ctx) <= mp.log(l2_norm) + mp.log(2)


def test_algebraic_point_set(ctx):
    p = P(-1, 1) * P(-1, 1) * P(2, 1)
    ps = AlgebraicPointSet.from_poly(p, ctx)
    assert ps.degree_bound == 2
    assert len(ps.roots) == 2
    vals = sorted(mp.re(r) for r in ps.roots)
    assert abs(vals[0] + 2) < ctx.sqrt_tol and abs(vals[1] - 1) < ctx.sqrt_tol
    assert gcd(ps.defining, ps.defining.derivative()).degree == 0


def test_algebraic_point_set_ignores_ambient_precision(ctx):
    # coefficients above 2^53 whose low bits move the roots
    p = P(2 ** 61 + 3, -(2 ** 60 + 1), 1)
    with mp.workprec(53):
        low = AlgebraicPointSet.from_poly(p, ctx)
    with mp.workprec(300):
        high = AlgebraicPointSet.from_poly(p, ctx)
    assert low.defining.coeffs == p.coeffs
    assert low.roots == high.roots


def test_ratfunc():
    f = RatFunc.from_coeffs([0, 1], [1, 1])
    assert f(2) == mp.mpf(2) / 3
    g = RatFunc.from_coeffs([0, 2], [2, 2])
    assert f.same_map(g)
    assert not f.is_constant()
    assert RatFunc.from_coeffs([5]).is_constant()


def test_exact_div():
    p = P(-1, 0, 1)
    q = p.exact_div(P(-1, 1))
    assert q.coeffs == [1, 1]
    assert P(-1, 1).exact_div(p) is None
    assert P(1, 2, 1).exact_div(P(1, 1)).coeffs == [1, 1]
