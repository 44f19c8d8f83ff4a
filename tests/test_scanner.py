import random

import mpmath as mp
import pytest

from zpscan import scanner
from zpscan.analytic import PrecisionContext, j_invariant
from zpscan.errors import DegenerateInput, DomainError
from zpscan.exactpoly import RatFunc, gcd, mahler_height, squarefree
from zpscan.modular import phi_recover_exact
from zpscan.periods import detect_cm
from zpscan.scanner import (
    CurveModel,
    all_pairs,
    coordinate_value_poly,
    format_curve,
    invert_j,
    parse_curve_file,
    report,
    soundness_residual,
    stratum_poly,
    unlikely_points,
)

from oracles import invert_j_mpmath, mahler_height_mpmath

LINE_CURVE = CurveModel(n=2, maps=(RatFunc.from_coeffs([0, 1]), RatFunc.from_coeffs([1, 1])))

ENGINEERED = CurveModel(
    n=3,
    maps=(
        RatFunc.from_coeffs([0, 1728]),
        RatFunc.from_coeffs([0, 287496]),
        RatFunc.from_coeffs([0, 0, 287496]),
    ),
)


def test_curve_model_validation():
    with pytest.raises(DomainError):
        CurveModel(n=2, maps=(RatFunc.from_coeffs([0, 1]),))
    with pytest.raises(DomainError):
        CurveModel(n=2, maps=(RatFunc.from_coeffs([0, 1]), RatFunc.from_coeffs([0, 2], [2])))
    CurveModel(
        n=2,
        maps=(RatFunc.from_coeffs([0, 1]), RatFunc.from_coeffs([0, 2], [2])),
        allow_equal_maps=True,
    )
    with pytest.raises(DomainError):
        CurveModel(n=2, maps=(RatFunc.from_coeffs([5]), RatFunc.from_coeffs([0, 1])))


def test_curve_file_roundtrip():
    text = format_curve(ENGINEERED)
    back = parse_curve_file(text)
    assert back.n == 3
    for a, b in zip(back.maps, ENGINEERED.maps):
        assert a.same_map(b)
    with pytest.raises(DomainError):
        parse_curve_file("j1 = 1 / 1\n")


def test_stratum_identically_zero(ctx):
    curve = CurveModel(
        n=2,
        maps=(RatFunc.from_coeffs([0, 1]), RatFunc.from_coeffs([0, 1])),
        allow_equal_maps=True,
    )
    with pytest.raises(DegenerateInput):
        stratum_poly(curve, (1, 2), 1, phi_recover_exact(1, ctx))


def test_stratum_unit_polynomial(ctx):
    poly = stratum_poly(LINE_CURVE, (1, 2), 1, phi_recover_exact(1, ctx))
    assert poly.degree == 0  # no roots: the line never meets the diagonal


def test_stratum_line_level2(ctx):
    phi2 = phi_recover_exact(2, ctx)
    poly = stratum_poly(LINE_CURVE, (1, 2), 2, phi2)
    # brute expansion: total degree of Phi_2(t, t+1) is deg X^2Y^2 = 4
    assert poly.degree == 4
    pts = unlikely_points(LINE_CURVE, [2], ctx=ctx)
    assert len(pts) == 1
    assert len(pts[0].defining.roots) == poly.degree


def test_soundness_of_roots(ctx):
    pts = unlikely_points(LINE_CURVE, [2], ctx=ctx)
    for root in pts[0].defining.roots:
        res = soundness_residual(LINE_CURVE, (1, 2), 2, root, ctx)
        assert res < ctx.sqrt_tol


def test_generic_curve_no_double_strata(ctx):
    curve = CurveModel(
        n=3,
        maps=(
            RatFunc.from_coeffs([0, 1]),
            RatFunc.from_coeffs([1, 1]),
            RatFunc.from_coeffs([3, 2]),
        ),
    )
    pts = unlikely_points(curve, [2, 3], ctx=ctx)
    doubles = [p for p in pts if p.pair2 is not None]
    assert doubles == []
    # single strata still appear, each bounded by its degree
    for p in pts:
        assert len(p.defining.roots) <= p.defining.defining.degree


def test_engineered_double_stratum(ctx):
    phi2 = phi_recover_exact(2, ctx)
    s12 = stratum_poly(ENGINEERED, (1, 2), 2, phi2)
    s13 = stratum_poly(ENGINEERED, (1, 3), 2, phi2)
    g = gcd(s12, s13)
    assert g.coeffs == [-1, 1]  # exactly t - 1
    pts = unlikely_points(ENGINEERED, [2], ctx=ctx)
    doubles = [p for p in pts if p.pair2 is not None]
    assert len(doubles) == 1
    pt = doubles[0]
    assert pt.degree_bound == 1
    assert abs(pt.height_t) < ctx.tol
    assert pt.defining.defining.divides(s12) and pt.defining.defining.divides(s13)
    # at t = 1 every coordinate value is a singular modulus
    assert all(flag for (_, flag) in pt.singular_modulus_flags)


def test_height_t_matches_mahler_height(ctx):
    for pt in unlikely_points(ENGINEERED, [2, 3], ctx=ctx):
        assert pt.height_t == mahler_height(pt.defining.defining, ctx)


def test_engineered_curve_level5_heights(ctx):
    # the point on stratum (1, 3, 5) has a degree-15 coordinate-value
    # polynomial for j3 with 114-digit coefficients
    pts = unlikely_points(ENGINEERED, [5], ctx=ctx)
    assert [p.pair1 for p in pts] == [(1, 2, 5), (1, 3, 5), (2, 3, 5)]
    pt = pts[1]
    assert pt.degree_bound == 15
    assert abs(pt.height_t - mahler_height_mpmath(pt.defining.defining.coeffs)) < ctx.tol
    for i, h in pt.heights:
        jpoly = squarefree(coordinate_value_poly(pt.defining.defining, ENGINEERED.map(i)))
        assert jpoly.degree == 15
        assert abs(h - mahler_height_mpmath(jpoly.coeffs)) < ctx.tol * max(1, h)
    jpoly3 = squarefree(coordinate_value_poly(pt.defining.defining, ENGINEERED.map(3)))
    assert len(str(max(abs(c) for c in jpoly3.coeffs))) == 114


def test_exactness_divisibility(ctx):
    phi2 = phi_recover_exact(2, ctx)
    pts = unlikely_points(ENGINEERED, [2], ctx=ctx)
    for pt in pts:
        if pt.pair2 is None:
            continue
        s1 = stratum_poly(ENGINEERED, (pt.pair1[0], pt.pair1[1]), pt.pair1[2], phi2)
        s2 = stratum_poly(ENGINEERED, (pt.pair2[0], pt.pair2[1]), pt.pair2[2], phi2)
        assert pt.defining.defining.divides(s1)
        assert pt.defining.defining.divides(s2)


def test_invert_j_roundtrip(ctx):
    rng = random.Random(3)
    with ctx.workprec():
        for _ in range(5):
            tau = mp.mpc(mp.mpf(rng.randint(-400, 400)) / 1000, mp.mpf(rng.randint(900, 1600)) / 1000)
            val = j_invariant(tau, ctx)
            lift = invert_j(val, ctx)
            assert lift is not None
            back = j_invariant(lift, ctx)
            assert abs(back - val) < ctx.sqrt_tol * max(1, abs(val))


def _recording_float_newton(monkeypatch):
    results = []
    real = scanner._float_newton_j

    def record(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(scanner, "_float_newton_j", record)
    return results


def test_invert_j_from_float_start(monkeypatch):
    # the corner values (where j - value has a triple and a double root), a
    # CM value, a negative one, a complex one, and a large one (its lift has
    # Im(tau) about 22): the float phase gives the start and the lift passes
    # the working-precision test
    results = _recording_float_newton(monkeypatch)
    ctx = PrecisionContext(bits=256)
    for value in [0, 1728, 287496, -12288000, (3, -4), 10 ** 60]:
        with ctx.workprec():
            value = mp.mpc(*value) if isinstance(value, tuple) else mp.mpc(value)
            tau = invert_j(value, ctx)
            assert results[-1] is not None
            assert abs(j_invariant(tau, ctx) - value) < ctx.tol * max(1, abs(value))


def test_invert_j_float_overflow_takes_mpmath_path(monkeypatch):
    # 10^400 has no float image: the lift is the working-precision iteration's
    # own, bit for bit, at Im(tau) about 147
    results = _recording_float_newton(monkeypatch)
    ctx = PrecisionContext(bits=256)
    with ctx.workprec():
        value = mp.mpc(10) ** 400
        tau = invert_j(value, ctx)
        assert results == [None]
        assert tau == invert_j_mpmath(value, ctx)
        assert abs(j_invariant(tau, ctx) - value) < ctx.tol * abs(value)


def test_invert_j_detects_cm(ctx):
    lift = invert_j(mp.mpc(287496), ctx)
    assert lift is not None
    cert = detect_cm(lift, 30, ctx)
    assert cert is not None and cert.disc == -16


def test_report_rows(ctx):
    pts = unlikely_points(ENGINEERED, [2], ctx=ctx)
    summary = report(pts)
    assert summary["points"] == len(pts)
    assert summary["double_strata"] == 1
    for row in summary["rows"]:
        assert row["M"] >= 2
        if row["pair2"] is not None:
            assert row["N"] >= 2
            assert {row["pair1"][0], row["pair1"][1]} != {row["pair2"][0], row["pair2"][1]}
    empty = report([])
    assert empty["points"] == 0 and empty["rows"] == []


def test_all_pairs():
    assert all_pairs(3) == [(1, 2), (1, 3), (2, 3)]
