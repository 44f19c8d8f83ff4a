import random
from fractions import Fraction

import mpmath as mp
import pytest

from zpscan import polyrel, relations
from zpscan.analytic import PrecisionContext
from zpscan.errors import DomainError, StructureViolation, UnsupportedConfiguration
from zpscan.isogeny import CyclicSublattice, IsogenyWitness
from zpscan.periods import StructuredPeriod
from zpscan.polyrel import (
    IdealI0,
    MultiPoly,
    build_R_degenerate,
    build_R_pair_product,
    build_R_second_way,
    det_poly,
    evaluate,
    h_entries,
    matrix_polys,
    not_in_I0,
    pair_h_polys,
    second_way_h_polys,
)
from zpscan.relations import (
    CoordinateData,
    InstanceWitness,
    RelationInstance,
    build_polynomial,
    dispatch_case,
    four_coordinate,
    genuine_second_way,
    random_sl2_gauges,
    second_way,
    synth_first_way,
    synth_four_coordinate,
    synth_second_way,
)

from conftest import fraction_point
from oracles import multipoly_evaluate_naive, rand_complex_mpf, rand_nonzero_complex_abs


def test_h_entries_formulas(ctx):
    # paired with the identity, the H entries are the g row itself
    h = mp.eye(2)
    assert h_entries(h, 1, 0, 1, h, "top") == (mp.mpc(1), mp.mpc(0))
    assert h_entries(h, 1, 0, 1, h, "bottom") == (mp.mpc(0), mp.mpc(1))
    with pytest.raises(DomainError):
        h_entries(h, 1, 0, 1, h, "sideways")


def test_h_entries_cofactor_oracle(ctx):
    # the g row is the stated cofactor row pushed through the triangle:
    # pairing it with the matrix itself must clear the corresponding column
    rng = random.Random(2)
    with ctx.workprec():
        for _ in range(10):
            m = mp.matrix([[rng.randint(1, 5) + rng.randint(0, 3) * 1j for _ in range(2)] for _ in range(2)])
            a, b, c = mp.mpc(rng.randint(1, 4)), mp.mpc(rng.randint(-3, 3)), mp.mpc(rng.randint(1, 4))
            A = mp.matrix([[a, 0], [b, c]])
            gt = h_entries(m, a, b, c, mp.eye(2), "top")
            gb = h_entries(m, a, b, c, mp.eye(2), "bottom")
            # (cof row) * A = g  =>  g * A^-1 * m = (det-extraction row) * m
            top_row = mp.matrix([[m[1, 1], -m[0, 1]]])
            bot_row = mp.matrix([[-m[1, 0], m[0, 0]]])
            want_t = top_row * A
            want_b = bot_row * A
            assert abs(want_t[0, 0] - gt[0]) < ctx.tol * max(1, abs(gt[0]))
            assert abs(want_t[0, 1] - gt[1]) < ctx.tol * max(1, abs(gt[1]))
            assert abs(want_b[0, 0] - gb[0]) < ctx.tol * max(1, abs(gb[0]))
            assert abs(want_b[0, 1] - gb[1]) < ctx.tol * max(1, abs(gb[1]))
    # MultiPoly entries: with h = A^-1 * X the row reduces to the cofactor
    # row times X, i.e. (det X, 0) for "top" and (0, det X) for "bottom"
    x = matrix_polys(None, 1)
    for a, b, c in ((Fraction(2), Fraction(-3), Fraction(1, 5)), (Fraction(-1, 3), Fraction(0), Fraction(7))):
        h = {}
        for j in range(2):
            h[0, j] = x[0, j].scaled(1 / a)
            h[1, j] = x[0, j].scaled(-b / (a * c)) + x[1, j].scaled(1 / c)
        top = h_entries(x, a, b, c, h, "top")
        bottom = h_entries(x, a, b, c, h, "bottom")
        assert (top[0] - det_poly(1)).is_zero() and top[1].is_zero()
        assert bottom[0].is_zero() and (bottom[1] - det_poly(1)).is_zero()


def _witness_h_polys(w, ctx):
    """The H polynomials of a witness, in the order of witness.H."""
    if w.way == "second":
        return second_way_h_polys(w.config, ctx)
    configs = w.config if w.way == "four" else (w.config,)
    return sum(
        (pair_h_polys(c.a, c.b, c.c, c.pi_sing, c.pi_cm, c.k_sing, c.k_cm, ctx) for c in configs), ()
    )


def _synthetic_witnesses(ctx):
    """Six seeds of each synthetic way and degenerate branch, half with random SL2 gauges."""
    makers = [
        lambda s, g: synth_first_way(s, ctx, pi_overrides=g),
        lambda s, g: synth_first_way(s, ctx, force_r_zero=True, pi_overrides=g),
        lambda s, g: synth_first_way(s, ctx, force_s_zero=True, pi_overrides=g),
        lambda s, g: synth_second_way(s, ctx, pi_overrides=g),
        lambda s, g: synth_second_way(s, ctx, degenerate="q", pi_overrides=g),
        lambda s, g: synth_second_way(s, ctx, degenerate="r", pi_overrides=g),
        lambda s, g: synth_four_coordinate(s, ctx, pi_overrides=g),
        lambda s, g: synth_four_coordinate(s, ctx, degenerate_pair2=True, pi_overrides=g),
        lambda s, g: synth_four_coordinate(s, ctx, shared_cm=True, pi_overrides=g),
    ]
    for make in makers:
        for seed in range(6):
            yield make(seed, random_sl2_gauges(seed, [1, 2, 3, 4]) if seed % 2 else None)


def test_h_polynomials_match_witness_entries(ctx):
    # the scalar identity and its polynomial come from one formula: evaluated
    # at the witness assignment, the H polynomials give the witness's H
    # entries, though built at mpmath's default 53 ambient bits
    assert mp.mp.prec == 53
    flags = set()
    for w in _synthetic_witnesses(ctx):
        flags.add((w.way, w.degenerate_flags[:1]))
        polys = _witness_h_polys(w, ctx)
        assert len(polys) == len(w.H)
        for poly, hval in zip(polys, w.H):
            gap = abs(evaluate(poly, w.assignment, ctx) - hval)
            assert gap <= ctx.tol * max(1, abs(hval))
    # every way and every degenerate branch was reached
    assert flags >= {
        ("first", ()), ("first", ("r",)), ("first", ("s",)),
        ("second", ()), ("second", ("q",)), ("second", ("r",)),
        ("four", ()), ("four", ("r",)),
    }


def _relation_polynomial(w, ctx):
    """build_polynomial, or None for a single non-degenerate pair, which has none."""
    try:
        return build_polynomial(w, ctx)
    except UnsupportedConfiguration:
        assert w.way == "first" and not w.degenerate_flags
        return None


def _witness_polys(w, ctx):
    """The H polynomials of a witness, then its relation polynomial where it has one."""
    R = _relation_polynomial(w, ctx)
    return list(_witness_h_polys(w, ctx)) + ([] if R is None else [R])


@pytest.mark.parametrize("bits", [256, 512])
def test_evaluate_matches_naive_oracle(bits):
    # coercing each value once and each power once keeps every bit of the
    # per-occurrence loop, at the witness assignment and at rational points
    ctx = PrecisionContext(bits=bits)
    for n, w in enumerate(_synthetic_witnesses(ctx)):
        for R in _witness_polys(w, ctx):
            point = fraction_point(R, n)
            with ctx.workprec():
                for assignment in (w.assignment, point):
                    got = R.evaluate(assignment)
                    assert repr(got) == repr(multipoly_evaluate_naive(R, assignment))
                    assert repr(evaluate(R, assignment, ctx)) == repr(+got)


class _Scripted:
    """A stand-in for random.Random whose randint returns the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def randint(self, lo, hi):
        v = self.values.pop(0)
        assert lo <= v <= hi
        return v


def test_draws_match_oracle(ctx):
    with ctx.workprec():
        for seed in range(500):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert repr(relations._rand_complex(fast)) == repr(rand_complex_mpf(slow))
                assert repr(relations._rand_nonzero_complex(fast)) == repr(rand_nonzero_complex_abs(slow))
            assert fast.random() == slow.random()
        # |z| = 1/4 exactly is rejected by both, which then draw z = 3
        for draw in ((2, 8, 0, 1), (-1, 4, 0, 5), (0, 3, 2, 8), (0, 1, -1, 4)):
            for fn in (relations._rand_nonzero_complex, rand_nonzero_complex_abs):
                rng = _Scripted(draw + (3, 1, 0, 1))
                assert fn(rng) == 3 and not rng.values


def _dump(w, ctx):
    """Every output of one witness, as full reprs: entries, polynomials in insertion order, values, certificates."""
    out = [repr((w.H, w.residual, w.entry_residuals, sorted(w.assignment.items())))]
    for poly in _witness_polys(w, ctx):
        out.append(repr(list(poly.terms.items())))
        out.append(repr(evaluate(poly, w.assignment, ctx)))
    R = _relation_polynomial(w, ctx)
    if R is not None:
        cert = not_in_I0(R, IdealI0(smooth_coords=w.smooth_coords), 5, ctx, seed=1)
        out.append(repr((list(cert.point.items()), cert.value, cert.attempts_used)))
    return out


def test_outputs_match_coercing_every_value(ctx, monkeypatch):
    # the synthetic witnesses, their polynomials, values and certificates are
    # the same bits when every draw is mpf(n)/d tested on the rounded |z|,
    # every coefficient operation coerces both operands and evaluate coerces
    # every occurrence
    fast = [_dump(w, ctx) for w in _synthetic_witnesses(ctx)]
    monkeypatch.setattr(relations, "_rand_complex", rand_complex_mpf)
    monkeypatch.setattr(relations, "_rand_nonzero_complex", rand_nonzero_complex_abs)
    monkeypatch.setattr(polyrel, "_same_kind", lambda x, y: polyrel._is_exact(x) and polyrel._is_exact(y))
    monkeypatch.setattr(MultiPoly, "evaluate", multipoly_evaluate_naive)
    assert [_dump(w, ctx) for w in _synthetic_witnesses(ctx)] == fast


def test_relation_polynomials_ignore_ambient_precision(ctx):
    # the builders multiply at ctx's working precision: called at mpmath's
    # default 53 bits they give the same polynomials as at 1024 ambient bits
    assert mp.mp.prec == 53
    builders = {}
    for w in _synthetic_witnesses(ctx):
        which = w.degenerate_flags[:1]
        if w.way == "second" and not which:
            builders[id(w)] = ("second", lambda w=w: build_R_second_way(w.config, ctx))
        elif w.way == "four" and not which:
            builders[id(w)] = ("four", lambda w=w: build_R_pair_product(*w.config, ctx))
        elif w.way == "first" and which:
            c = w.config
            vanishing = 1 if which == ("r",) else 2
            builders[id(w)] = (
                "degenerate",
                lambda c=c, v=vanishing: build_R_degenerate(
                    v, c.a, c.b, c.c, c.pi_sing, c.pi_cm, c.k_sing, c.k_cm, ctx
                ),
            )
    assert {kind for kind, _ in builders.values()} == {"second", "four", "degenerate"}
    for _, build in builders.values():
        low = build()
        with mp.workprec(1024):
            high = build()
        assert low.terms == high.terms


def test_genuine_cm_pair_square_lattice(ctx):
    witness, iso = genuine_second_way(mp.mpc(0, 1), CyclicSublattice(1, 0, 2), ctx)
    bound = mp.mpf(2) ** -100
    assert witness.residual < bound
    for res in witness.entry_residuals:
        assert res < bound
    # the diagonal homology makes this a doubly degenerate instance
    assert set(witness.degenerate_flags) == {"q", "r"}
    p, q, r, s = witness.rhs_integers
    assert p * s - q * r == 2


def test_genuine_cm_pair_disc7(ctx):
    with ctx.workprec():
        tau = mp.mpc(mp.mpf(1) / 2, mp.sqrt(7) / 2)
    bound = mp.mpf(2) ** -100
    for sub in (CyclicSublattice(1, 0, 2), CyclicSublattice(1, 1, 2), CyclicSublattice(2, 0, 1)):
        witness, _ = genuine_second_way(tau, sub, ctx)
        assert witness.residual < bound
        for res in witness.entry_residuals:
            assert res < bound


def test_second_way_rejects_inconsistent_gauge(ctx):
    # tamper with one h matrix: entry identities break but the product of the
    # four H values accidentally keeping the law is what the error guards;
    # a generic tamper must surface as a large residual, not an exception
    w = synth_second_way(3, ctx)
    assert w.residual < ctx.tol * max(1, abs(mp.mpf(_prod(w.rhs_integers))))


def _prod(vals):
    acc = 1
    for v in vals:
        acc *= v
    return acc


def test_second_way_gauge_mismatch_raises(ctx):
    # tampering h_source by diag(i, 1/i) keeps its determinant and the
    # four-fold product, but breaks every entrywise identity: the signature
    # of mismatched gauges
    sp2, sp3, iso = _synthetic_pair_with_periods(95, ctx)
    if 0 in iso.homology:
        pytest.skip("need a fully non-degenerate instance")
    with ctx.workprec():
        lam = mp.mpc(0, 1)
        h2 = sp2.h
        # column scaling by diag(lam, 1/lam): dets and H-products survive,
        # single entries do not
        tampered = mp.matrix(
            [[lam * h2[0, 0], h2[0, 1] / lam], [lam * h2[1, 0], h2[1, 1] / lam]]
        )
        sp2t = StructuredPeriod.cm(tampered, sp2.varpi)
    with pytest.raises(StructureViolation):
        second_way(sp2t, sp3, iso, ctx)


def test_first_way_product_law_and_entries(ctx):
    for seed in range(5):
        w = synth_first_way(seed, ctx)
        r, s = w.rhs_integers
        assert w.residual < ctx.sqrt_tol
        if r != 0 and s != 0:
            assert not w.degenerate_flags
        assert len(w.entry_residuals) == 2
        for res in w.entry_residuals:
            assert res < ctx.sqrt_tol


def test_first_way_degenerate_branches(ctx):
    w = synth_first_way(11, ctx, force_r_zero=True)
    assert w.degenerate_flags == ("r",)
    assert abs(w.H[0]) < ctx.sqrt_tol
    w2 = synth_first_way(12, ctx, force_s_zero=True)
    assert w2.degenerate_flags == ("s",)
    assert abs(w2.H[1]) < ctx.sqrt_tol


def test_four_coordinate_combined_and_sensitivity(ctx):
    w = synth_four_coordinate(21, ctx)
    assert w.residual < ctx.sqrt_tol
    r1, s1, r2, s2 = w.rhs_integers
    # scaling one pair's H entries by 2 must break the combined identity
    with ctx.workprec():
        lhs = r2 * s2 * (2 * w.H[0]) * (2 * w.H[1])
        rhs = r1 * s1 * w.H[2] * w.H[3]
        assert abs(lhs - rhs) > ctx.sqrt_tol


def test_four_coordinate_degenerate_delegation(ctx):
    w = synth_four_coordinate(31, ctx, degenerate_pair2=True)
    assert w.way == "four"
    assert w.degenerate_flags == ("r",)
    R = build_polynomial(w, ctx)
    assert R.degree() == 2


def test_four_coordinate_type_check(ctx):
    w2 = synth_second_way(1, ctx)
    with pytest.raises(DomainError):
        four_coordinate(w2, w2, ctx)


def test_shared_cm_coordinate_layout(ctx):
    w = synth_four_coordinate(41, ctx, shared_cm=True)
    assert w.residual < ctx.sqrt_tol
    coords = {k for (_, _, k) in w.assignment}
    assert coords == {1, 2, 3}
    R = build_polynomial(w, ctx)
    assert R.degree() == 4
    assert abs(evaluate(R, w.assignment, ctx)) < ctx.tol * max(1, R.coeff_norm())


def test_dispatch_cases(ctx):
    # identity data is exactly consistent for every way (the degenerate
    # branches with unit homology), which keeps routing checks honest
    case_id, witness = dispatch_case(_identity_instance_case1(), ctx)
    assert case_id == 1 and witness.way == "four"

    case_id, witness = dispatch_case(_identity_instance_case2(), ctx)
    assert case_id == 2 and witness.way == "second"

    case_id, witness = dispatch_case(_identity_instance_case6(), ctx)
    assert case_id == 6 and witness.way == "second"

    case_id, witness = dispatch_case(_identity_instance_case3(), ctx)
    assert case_id == 3 and witness.way == "first" and witness.partial

    with pytest.raises(UnsupportedConfiguration):
        dispatch_case(_all_singular_instance(ctx), ctx)


def _iso_stub():
    return IsogenyWitness(degree=1, de_rham=(mp.mpc(1), mp.mpc(0), mp.mpc(1)), homology=(1, 0, 0, 1), residual=mp.mpf(0))


def _sp_sing():
    h = mp.eye(2)
    return StructuredPeriod.singular(h, d=1, dprime=0, e0=0, e0prime=1)


def _sp_cm():
    return StructuredPeriod.cm(mp.eye(2), mp.mpc(1))


def _identity_instance_case1():
    # shared CM coordinate, two singular partners
    return RelationInstance(
        coords=(
            CoordinateData(1, _sp_sing(), "singular"),
            CoordinateData(2, _sp_sing(), "singular"),
            CoordinateData(3, _sp_cm(), "cm"),
        ),
        witnesses=(
            InstanceWitness(iso=_iso_stub(), source=3, target=1),
            InstanceWitness(iso=_iso_stub(), source=3, target=2),
        ),
    )


def _identity_instance_case2():
    # shared coordinate with one singular and two CM coordinates
    return RelationInstance(
        coords=(
            CoordinateData(1, _sp_sing(), "singular"),
            CoordinateData(2, _sp_cm(), "cm"),
            CoordinateData(3, _sp_cm(), "cm"),
        ),
        witnesses=(
            InstanceWitness(iso=_iso_stub(), source=2, target=3),
            InstanceWitness(iso=_iso_stub(), source=2, target=1),
        ),
    )


def _identity_instance_case3():
    # four distinct coordinates, three singular: only the singular/CM pair
    # carries an implemented relation, flagged partial
    return RelationInstance(
        coords=(
            CoordinateData(1, _sp_sing(), "singular"),
            CoordinateData(2, _sp_sing(), "singular"),
            CoordinateData(3, _sp_sing(), "singular"),
            CoordinateData(4, _sp_cm(), "cm"),
        ),
        witnesses=(
            InstanceWitness(iso=_iso_stub(), source=1, target=2),
            InstanceWitness(iso=_iso_stub(), source=4, target=3),
        ),
    )


def _synthetic_pair_with_periods(seed, ctx):
    from zpscan.periods import inv2
    from zpscan.relations import (
        _rand_complex,
        _rand_det1,
        _rand_integer_matrix,
        _rand_nonzero_complex,
    )

    rng = random.Random(seed)
    with ctx.workprec():
        M = rng.randint(1, 12)
        p, q, r, s = _rand_integer_matrix(rng, M)
        h3 = _rand_det1(rng)
        vps = _rand_nonzero_complex(rng)
        vpt = _rand_nonzero_complex(rng)
        a = _rand_nonzero_complex(rng)
        b = _rand_complex(rng)
        c = M / a
        tpi = ctx.two_pi_i
        A = mp.matrix([[a, 0], [b, c]])
        B = mp.matrix([[p, q], [r, s]])
        Ds = mp.matrix([[vps / tpi, 0], [0, 1 / vps]])
        Dt = mp.matrix([[vpt / tpi, 0], [0, 1 / vpt]])
        h2 = inv2(A) * h3 * Dt * B * inv2(Ds)
        iso = IsogenyWitness(degree=M, de_rham=(a, b, c), homology=(p, q, r, s), residual=mp.mpf(0))
        return StructuredPeriod.cm(h2, vps), StructuredPeriod.cm(h3, vpt), iso


def _identity_instance_case6():
    return RelationInstance(
        coords=(
            CoordinateData(1, _sp_cm(), "cm"),
            CoordinateData(2, _sp_cm(), "cm"),
            CoordinateData(3, _sp_cm(), "cm"),
            CoordinateData(4, _sp_cm(), "cm"),
        ),
        witnesses=(
            InstanceWitness(iso=_iso_stub(), source=2, target=3),
            InstanceWitness(iso=_iso_stub(), source=1, target=4),
        ),
    )


def _all_singular_instance(ctx):
    return RelationInstance(
        coords=(
            CoordinateData(1, _sp_sing(), "singular"),
            CoordinateData(2, _sp_sing(), "singular"),
        ),
        witnesses=(InstanceWitness(iso=_iso_stub(), source=1, target=2),),
    )


def test_gauge_covariance_seeded(ctx):
    for seed in (201, 202, 203):
        gauges = random_sl2_gauges(seed + 1000, [1, 2, 3, 4])
        w_id = synth_four_coordinate(seed, ctx)
        w_pi = synth_four_coordinate(seed, ctx, pi_overrides=gauges)
        assert abs(w_id.residual - w_pi.residual) < ctx.tol
        # H entries generally differ, the identity residual does not
        R = build_polynomial(w_pi, ctx)
        assert abs(evaluate(R, w_pi.assignment, ctx)) < ctx.tol * max(1, R.coeff_norm())
        w2_id = synth_second_way(seed, ctx)
        w2_pi = synth_second_way(seed, ctx, pi_overrides=random_sl2_gauges(seed, [2, 3]))
        assert abs(w2_id.residual - w2_pi.residual) < ctx.tol


def test_degeneracy_dichotomy_sweep(ctx):
    # either a right-hand integer vanishes with its H entry, or the product law holds
    for seed in range(40):
        for witness in (synth_first_way(seed, ctx), synth_second_way(seed, ctx)):
            if witness.degenerate_flags:
                mapping = dict(zip(("r", "s"), witness.H)) if witness.way == "first" else {
                    "r": witness.H[0],
                    "s": witness.H[1],
                    "p": witness.H[2],
                    "q": witness.H[3],
                }
                for flag in witness.degenerate_flags:
                    assert abs(mapping[flag]) < ctx.sqrt_tol
            else:
                assert witness.residual < ctx.sqrt_tol


def test_polynomials_from_witnesses(ctx):
    w4 = synth_four_coordinate(91, ctx)
    assert not w4.degenerate_flags
    R4 = build_polynomial(w4, ctx)
    assert R4.degree() == 4 and R4.is_homogeneous()
    assert abs(evaluate(R4, w4.assignment, ctx)) < ctx.tol * max(1, R4.coeff_norm())
    cert = not_in_I0(R4, IdealI0(smooth_coords=frozenset([3, 4])), 5, ctx, seed=4)
    assert cert.attempts_used <= 5

    w2 = synth_second_way(93, ctx)
    assert not w2.degenerate_flags
    R2 = build_polynomial(w2, ctx)
    assert R2.degree() == 8 and R2.is_homogeneous()
    assert abs(evaluate(R2, w2.assignment, ctx)) < ctx.tol * max(1, R2.coeff_norm())
    cert = not_in_I0(R2, IdealI0(smooth_coords=frozenset([2, 3])), 5, ctx, seed=4)
    assert cert.attempts_used <= 5
