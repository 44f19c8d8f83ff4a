from fractions import Fraction

import mpmath as mp
import pytest

from zpscan import polyrel
from zpscan.errors import DegenerateInput, DomainError, Inconclusive, MissingAssignment
from zpscan.polyrel import (
    IdealI0,
    MultiPoly,
    SecondWayConfig,
    build_R_degenerate,
    build_R_second_way,
    det_poly,
    evaluate,
    not_in_I0,
)
from zpscan.relations import build_polynomial, synth_second_way

from conftest import fraction_point
from oracles import multipoly_evaluate_naive


def test_multipoly_arithmetic():
    x = MultiPoly.variable(1, 1, 1)
    y = MultiPoly.variable(2, 1, 1)
    p = x * y + MultiPoly.constant(Fraction(2)) * x
    assert p.degree() == 2
    assert not p.is_homogeneous()
    q = x * y - x * y
    assert q.is_zero()
    r = (x + y) * (x - y)
    assert r.degree() == 2 and len(r.terms) == 2  # x^2 - y^2


def test_multipoly_evaluate_exact_and_numeric(ctx):
    x = MultiPoly.variable(1, 1, 1)
    y = MultiPoly.variable(2, 1, 1)
    p = x * y
    assert p.evaluate({(1, 1, 1): Fraction(2), (2, 1, 1): Fraction(3)}) == 6
    val = evaluate(p, {(1, 1, 1): mp.mpc(2), (2, 1, 1): mp.mpc(3)}, ctx)
    assert abs(val - 6) < ctx.tol
    with pytest.raises(MissingAssignment):
        p.evaluate({(1, 1, 1): 1})
    assert MultiPoly.zero().evaluate({}) == 0


def test_det_quadric_and_ideal():
    gen = det_poly(3) + MultiPoly.constant(-1)
    point = {(1, 1, 3): Fraction(2), (1, 2, 3): Fraction(5), (2, 1, 3): Fraction(1), (2, 2, 3): Fraction(3)}
    assert gen.evaluate(point) == 0
    ideal = IdealI0(smooth_coords=frozenset([3]))
    gens = ideal.generators()
    assert len(gens) == 1 and gens[0].degree() == 2


def test_degenerate_polynomial_identity_gauge():
    # identity gauges, a = c = 1, b = 0: the two monomials with opposite signs
    R = build_R_degenerate(1, 1, 0, 1, None, None, k_sing=1, k_cm=3)
    assert R.is_homogeneous() and R.degree() == 2
    monos = {m: c for m, c in R.terms.items()}
    key1 = ((((1, 1, 1), 1), ((2, 1, 3), 1)))
    key2 = ((((1, 1, 3), 1), ((2, 1, 1), 1)))
    assert set(monos) == {tuple(sorted(key1)), tuple(sorted(key2))}
    vals = sorted(monos.values())
    assert vals == [-1, 1]


def test_degenerate_polynomial_support():
    pi = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
    R = build_R_degenerate(1, Fraction(2), Fraction(1), Fraction(3), pi, pi, k_sing=1, k_cm=3)
    assert R.is_homogeneous() and R.degree() == 2
    for mono in R.terms:
        vars_ = [v for v, _ in mono]
        assert len(vars_) == 2
        assert any(v[2] == 1 and v[1] == 1 for v in vars_)
        assert any(v[2] == 3 and v[1] == 1 for v in vars_)
    with pytest.raises(DegenerateInput):
        build_R_degenerate(1, 0, 1, 1, pi, pi)
    with pytest.raises(DegenerateInput):
        build_R_degenerate(3, 1, 1, 1, pi, pi)


def test_not_in_I0_constant_and_generator(ctx):
    ideal = IdealI0(smooth_coords=frozenset([3]))
    one = MultiPoly.constant(Fraction(1))
    cert = not_in_I0(one, ideal, attempts=3, ctx=ctx, seed=0)
    assert cert.attempts_used == 1
    gen = det_poly(3) + MultiPoly.constant(-1)
    with pytest.raises(Inconclusive):
        not_in_I0(gen, ideal, attempts=8, ctx=ctx, seed=1)
    with pytest.raises(DegenerateInput):
        not_in_I0(MultiPoly.zero(), ideal, attempts=3, ctx=ctx)


def test_not_in_I0_degenerate_formula_certificate(ctx):
    # nonsingular random gauges: a witness point should appear almost at once
    pi_s = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    pi_c = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(3)]]
    R = build_R_degenerate(1, Fraction(3), Fraction(1), Fraction(2), pi_s, pi_c)
    ideal = IdealI0(smooth_coords=frozenset([3]))
    cert = not_in_I0(R, ideal, attempts=3, ctx=ctx, seed=7)
    assert cert.attempts_used <= 3
    assert cert.value != 0
    # the certificate point satisfies the det-1 constraint where it matters
    pt = cert.point
    full = {}
    for (i, j, k), v in pt.items():
        full[(i, j, k)] = v
    if all((i, j, 3) in full for i in (1, 2) for j in (1, 2)):
        det = full[(1, 1, 3)] * full[(2, 2, 3)] - full[(1, 2, 3)] * full[(2, 1, 3)]
        assert det == 1


def test_scaling_does_not_change_verdicts(ctx):
    pi_s = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    pi_c = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(3)]]
    R = build_R_degenerate(1, Fraction(3), Fraction(1), Fraction(2), pi_s, pi_c)
    R5 = R.scaled(Fraction(5))
    ideal = IdealI0(smooth_coords=frozenset([3]))
    c1 = not_in_I0(R, ideal, attempts=3, ctx=ctx, seed=3)
    c2 = not_in_I0(R5, ideal, attempts=3, ctx=ctx, seed=3)
    assert c1.attempts_used == c2.attempts_used
    assert c2.value == 5 * c1.value


def test_homogeneity_structural():
    x = MultiPoly.variable(1, 1, 1)
    y = MultiPoly.variable(2, 2, 2)
    assert (x * y).is_homogeneous()
    assert not (x * y + x).is_homogeneous()
    assert MultiPoly.zero().is_homogeneous()
    assert (x * y * x).degree() == 3


def test_not_in_I0_rejects_attempts_below_one(ctx):
    R = det_poly(3)
    ideal = IdealI0(smooth_coords=frozenset([3]))
    for attempts in (0, -2):
        with pytest.raises(DomainError, match="attempts"):
            not_in_I0(R, ideal, attempts=attempts, ctx=ctx)


def test_evaluate_coerces_each_value_once(ctx, monkeypatch):
    # a degree-8 second-way relation: 50 terms over 8 variables, which occur
    # 268 times; a per-occurrence loop would convert 50 + 268 values
    R = build_polynomial(synth_second_way(0, ctx), ctx)
    assert (R.degree(), len(R.terms), len(R.variables())) == (8, 50, 8)
    assert sum(len(mono) for mono in R.terms) == 268
    point = fraction_point(R, 1)
    calls = []
    to_mpc = polyrel._to_mpc

    def counting(c):
        calls.append(c)
        return to_mpc(c)

    monkeypatch.setattr(polyrel, "_to_mpc", counting)
    with ctx.workprec():
        R.evaluate(point)
    assert len(calls) <= len(R.variables()) + len(R.terms)


def test_exact_evaluate_matches_naive_oracle():
    # Fraction coefficients and inputs stay on the exact path
    pi_s = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    pi_c = [[Fraction(1), Fraction(-1, 3)], [Fraction(2), Fraction(3)]]
    cfg = SecondWayConfig(
        Fraction(3, 2), Fraction(-1, 5), Fraction(2), pi_s, pi_c, 2, 3, 1, 2, 3, 5
    )
    polys = [
        build_R_degenerate(1, Fraction(3), Fraction(1), Fraction(2), pi_s, pi_c),
        build_R_second_way(cfg),
    ]
    for R in polys:
        assert R.is_exact()
        for seed in range(5):
            point = fraction_point(R, seed)
            got = R.evaluate(point)
            assert type(got) is Fraction and got == multipoly_evaluate_naive(R, point)
            assert evaluate(R, point) == got
