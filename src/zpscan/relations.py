"""Scalar H-identities at points with unlikely isogenies, and their case dispatch.

Setting
-------
Every relation starts from the isogeny matrix identity restated on normalized
period data.  Dividing A * P_source = P_target * B by the global 2*pi*i and
peeling structural factors gives the master equation

    [[a, 0], [b, c]] * h_src * F_src = h_tgt * F_tgt * [[p, q], [r, s]]

where F is diag(vp/(2*pi*i), 1/vp) for a CM coordinate and the log-structure
matrix [[d, e0], [dprime, e0prime]] for a singular coordinate.

Multiplying both sides on the left by a cofactor row of the right-hand matrix
product (which reduces the right side to a single row of F_tgt * B) produces
the H-vector identities.  polyrel.h_entries computes these rows and their
pairings, on numbers here and on the relation polynomials in polyrel:

* double-CM pair ("second way"): cofactor rows of h_tgt give
      (vp_src*H3/(2*pi*i), H4/vp_src) = (vp*p/(2*pi*i), vp*q/(2*pi*i))
      (vp_src*H1/(2*pi*i), H2/vp_src) = (r/vp, s/vp)
  and multiplying the four together, H1*H2*H3*H4 = p*q*r*s.

* singular/CM pair ("first way"): the cofactor row of T = h_sing * F_sing
  kills the first column of T; with det T = 1/(2*pi*i) this leaves
      H1 * vp0/(2*pi*i) = r/(2*pi*i),    H2 / vp0 = s/(2*pi*i),
  hence H1*H2 = r*s/(2*pi*i).

* two singular/CM pairs combined: r2*s2*H1^(1)*H2^(1) = r1*s1*H1^(2)*H2^(2),
  which is also the four-distinct-coordinate relation.

Degeneracy dichotomy: whenever a right-hand integer vanishes the matching
single H-entry vanishes; otherwise the product law holds.  Every witness
records which of the two branches it is on.

Gauge data: optional SL2 matrices split each value matrix h as Pi * X, where
X is the assignment the relation polynomials are evaluated at.  All scalar
identities are built from the composite h and are therefore gauge-invariant;
only the polynomial presentation changes with Pi.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_rational

from .analytic import PrecisionContext, to_complex
from .errors import (
    DegenerateInput,
    DomainError,
    StructureViolation,
    UnsupportedConfiguration,
)
from .isogeny import IsogenyWitness, CyclicSublattice, make_witness
from .periods import (
    Lattice,
    StructuredPeriod,
    decompose_cm,
    det2,
    inv2,
    make_singular_structure,
)
from . import polyrel
from .polyrel import MultiPoly, PairConfig, SecondWayConfig, h_entries


@dataclass(frozen=True)
class RelationWitness:
    """Computed H-entries, integer right-hand data and the identity residual."""

    way: str  # "first" | "second" | "four"
    H: tuple
    rhs_integers: tuple
    residual: mp.mpf
    degenerate_flags: tuple = ()
    entry_residuals: tuple = ()
    config: object = None  # polynomial-builder configuration
    assignment: dict = None  # values of the X-variables
    partial: bool = False  # set when only one pair of a 4-coordinate instance is usable

    @property
    def degenerate(self) -> bool:
        return bool(self.degenerate_flags)

    @property
    def smooth_coords(self) -> frozenset:
        """The coordinates whose value matrices have determinant one (the CM ones)."""
        configs = self.config if isinstance(self.config, tuple) else (self.config,)
        smooth = set()
        for cfg in configs:
            if isinstance(cfg, SecondWayConfig):
                smooth.update((cfg.k_source, cfg.k_target))
            elif isinstance(cfg, PairConfig):
                smooth.add(cfg.k_cm)
        return frozenset(smooth)


@dataclass(frozen=True)
class CoordinateData:
    """One coordinate of a relation instance."""

    index: int
    period: StructuredPeriod
    role: str  # "cm" | "singular"


@dataclass(frozen=True)
class InstanceWitness:
    """An isogeny witness attached to an ordered coordinate pair (source, target)."""

    iso: IsogenyWitness
    source: int
    target: int


@dataclass(frozen=True)
class RelationInstance:
    """Coordinates, isogeny witnesses and optional coefficient-side gauges."""

    coords: tuple
    witnesses: tuple
    pi_overrides: dict = field(default_factory=dict)

    def coordinate(self, index: int) -> CoordinateData:
        for c in self.coords:
            if c.index == index:
                return c
        raise DomainError(f"no coordinate with index {index}")

    def pi(self, index: int):
        return self.pi_overrides.get(index)


def _pi_inverse_apply(pi, hmat):
    if pi is None:
        return hmat
    return inv2(pi) * hmat


def _flag_or_product(value_pairs, tol, scale):
    """Degeneracy dichotomy bookkeeping: list of (name, integer, H-value)."""
    flags = []
    for name, integer, hval in value_pairs:
        if integer == 0:
            if abs(hval) > tol * max(scale, mp.mpf(1)):
                raise StructureViolation(
                    f"integer {name} vanishes but its H-entry does not "
                    f"(|H| = {mp.nstr(abs(hval), 8)})"
                )
            flags.append(name)
    return tuple(flags)


def second_way(
    h2: StructuredPeriod,
    h3: StructuredPeriod,
    iso: IsogenyWitness,
    ctx: PrecisionContext = None,
    pi_overrides: dict = None,
    k_source: int = 2,
    k_target: int = 3,
) -> RelationWitness:
    """H-identities for a cyclic isogeny between two CM-normalized coordinates.

    h2/h3 are the source/target CM structured periods (value matrices with
    periods vp_src, vp_tgt).  Asserts the two entrywise vector identities and
    returns the witness with residual |H1*H2*H3*H4 - p*q*r*s|.  If an
    entrywise identity fails while the product law holds the gauges are
    mismatched and StructureViolation is raised.
    """
    ctx = ctx or PrecisionContext()
    if h2.kind != "cm" or h3.kind != "cm":
        raise DomainError("second_way requires two CM structured periods")
    pi_overrides = pi_overrides or {}
    p, q, r, s = iso.homology
    a, b, c = iso.de_rham
    with ctx.workprec():
        for sp, name in ((h2, "source"), (h3, "target")):
            if abs(det2(sp.h) - 1) > ctx.sqrt_tol:
                raise DomainError(f"{name} value matrix must have determinant 1")
        vps = h2.varpi  # source period
        vpt = h3.varpi  # target period
        tpi = ctx.two_pi_i
        H3, H4 = h_entries(h3.h, a, b, c, h2.h, "top")
        H1, H2 = h_entries(h3.h, a, b, c, h2.h, "bottom")
        entry_residuals = (
            abs(vps * H1 / tpi - r / vpt),
            abs(H2 / vps - s / vpt),
            abs(vps * H3 / tpi - vpt * p / tpi),
            abs(H4 / vps - vpt * q / tpi),
        )
        product_residual = abs(H1 * H2 * H3 * H4 - p * q * r * s)
        scale = max(mp.mpf(1), abs(vps), abs(vpt), 1 / abs(vps), 1 / abs(vpt))
        entry_tol = ctx.sqrt_tol * scale
        if any(res > entry_tol for res in entry_residuals):
            if product_residual <= entry_tol * max(1, abs(p * q * r * s)):
                raise StructureViolation(
                    "entrywise identities fail while the product law holds: "
                    "the two structured periods use mismatched gauges"
                )
        flags = _flag_or_product(
            [("p", p, H3), ("q", q, H4), ("r", r, H1), ("s", s, H2)],
            ctx.sqrt_tol,
            scale,
        )
        config = SecondWayConfig(
            a=a,
            b=b,
            c=c,
            pi_source=pi_overrides.get(k_source),
            pi_target=pi_overrides.get(k_target),
            k_source=k_source,
            k_target=k_target,
            p=p,
            q=q,
            r=r,
            s=s,
        )
        assignment = _matrix_assignment(
            {k_source: (h2.h, pi_overrides.get(k_source)), k_target: (h3.h, pi_overrides.get(k_target))}
        )
        return RelationWitness(
            way="second",
            H=(+H1, +H2, +H3, +H4),
            rhs_integers=(p, q, r, s),
            residual=+product_residual,
            degenerate_flags=flags,
            entry_residuals=tuple(+e for e in entry_residuals),
            config=config,
            assignment=assignment,
        )


def first_way(
    h_sing: StructuredPeriod,
    h_cm: StructuredPeriod,
    iso: IsogenyWitness,
    ctx: PrecisionContext = None,
    pi_overrides: dict = None,
    k_sing: int = 1,
    k_cm: int = 3,
) -> RelationWitness:
    """H-identities for a cyclic isogeny from a CM coordinate to a singular one.

    The master equation here reads A * h_cm * F_cm = T * B with
    T = h_sing * F_sing; the returned witness asserts
    |H1*H2 - r*s/(2*pi*i)| and flags the degenerate branches (r = 0 forces
    H1 = 0, s = 0 forces H2 = 0).
    """
    ctx = ctx or PrecisionContext()
    if h_sing.kind != "singular":
        raise DomainError("first_way requires a singular structured period on the first slot")
    if h_cm.kind != "cm":
        raise DomainError("first_way requires a CM structured period on the second slot")
    pi_overrides = pi_overrides or {}
    p, q, r, s = iso.homology
    a, b, c = iso.de_rham
    with ctx.workprec():
        S = h_sing.structural_matrix(ctx)
        if abs(det2(S)) < ctx.tol:
            raise DegenerateInput("singular structural matrix is not invertible")
        T = h_sing.h * S
        vp0 = h_cm.varpi
        tpi = ctx.two_pi_i
        H1, H2 = h_entries(T, a, b, c, h_cm.h, "bottom")
        residual = abs(H1 * H2 - r * s / tpi)
        entry_residuals = (
            abs(H1 * vp0 / tpi - r / tpi),
            abs(H2 / vp0 - s / tpi),
        )
        scale = max(mp.mpf(1), abs(vp0), 1 / abs(vp0))
        flags = _flag_or_product(
            [("r", r, H1), ("s", s, H2)], ctx.sqrt_tol, scale
        )
        config = PairConfig(
            a=a,
            b=b,
            c=c,
            pi_sing=pi_overrides.get(k_sing),
            pi_cm=pi_overrides.get(k_cm),
            k_sing=k_sing,
            k_cm=k_cm,
            r=r,
            s=s,
        )
        assignment = _column_assignment(k_sing, T, pi_overrides.get(k_sing))
        assignment.update(
            _matrix_assignment({k_cm: (h_cm.h, pi_overrides.get(k_cm))})
        )
        return RelationWitness(
            way="first",
            H=(+H1, +H2),
            rhs_integers=(r, s),
            residual=+residual,
            degenerate_flags=flags,
            entry_residuals=tuple(+e for e in entry_residuals),
            config=config,
            assignment=assignment,
        )


def four_coordinate(
    pair1: RelationWitness, pair2: RelationWitness, ctx: PrecisionContext = None
) -> RelationWitness:
    """Combined relation of two singular/CM pairs.

    With both pairs non-degenerate the identity is
    r2*s2*H1^(1)*H2^(1) = r1*s1*H1^(2)*H2^(2); when a pair is degenerate the
    collapsed single-H branch of that pair is the relation, and the witness is
    routed there with the flag preserved.
    """
    ctx = ctx or PrecisionContext()
    if pair1.way != "first" or pair2.way != "first":
        raise DomainError("four_coordinate combines two singular/CM pair witnesses")
    merged_assignment = dict(pair1.assignment or {})
    merged_assignment.update(pair2.assignment or {})
    with ctx.workprec():
        for pair, other in ((pair1, pair2), (pair2, pair1)):
            if pair.degenerate_flags:
                which = pair.degenerate_flags[0]
                hval = pair.H[0] if which == "r" else pair.H[1]
                return RelationWitness(
                    way="four",
                    H=pair.H + other.H,
                    rhs_integers=pair.rhs_integers + other.rhs_integers,
                    residual=+abs(hval),
                    degenerate_flags=pair.degenerate_flags,
                    config=(pair.config, other.config),
                    assignment=merged_assignment,
                )
        r1, s1 = pair1.rhs_integers
        r2, s2 = pair2.rhs_integers
        lhs = r2 * s2 * pair1.H[0] * pair1.H[1]
        rhs = r1 * s1 * pair2.H[0] * pair2.H[1]
        return RelationWitness(
            way="four",
            H=pair1.H + pair2.H,
            rhs_integers=(r1, s1, r2, s2),
            residual=+abs(lhs - rhs),
            config=(pair1.config, pair2.config),
            assignment=merged_assignment,
        )


def _matrix_assignment(spec: dict) -> dict:
    """X-variable values {(i,j,k): value} with the gauge split off: X = Pi^-1 h."""
    out = {}
    for k, (hmat, pi) in spec.items():
        xm = _pi_inverse_apply(pi, hmat)
        for i in range(2):
            for j in range(2):
                out[(i + 1, j + 1, k)] = xm[i, j]
    return out


def _column_assignment(k: int, T, pi) -> dict:
    """First-column values of a singular coordinate: X-col = Pi^-1 * first column of T."""
    if pi is None:
        return {(1, 1, k): T[0, 0], (2, 1, k): T[1, 0]}
    pinv = inv2(pi)
    c1 = pinv[0, 0] * T[0, 0] + pinv[0, 1] * T[1, 0]
    c2 = pinv[1, 0] * T[0, 0] + pinv[1, 1] * T[1, 0]
    return {(1, 1, k): c1, (2, 1, k): c2}


# ---------------------------------------------------------------------------
# case dispatch


def dispatch_case(inst: RelationInstance, ctx: PrecisionContext = None):
    """Classify a relation instance into the six fiber-type cases and run it.

    Returns (case_id, witness).  Cases 1/3 and the no-CM-pair subcase of 4 go
    through singular/CM pairs; cases 2/5/6 and the CM-pair subcase of 4 go
    through a double-CM pair.  All-singular configurations are unsupported
    (they belong to the purely multiplicative degeneration theory).
    """
    ctx = ctx or PrecisionContext()
    if len(inst.witnesses) not in (1, 2):
        raise DomainError("expected one or two isogeny witnesses")
    roles = {c.index: c.role for c in inst.coords}
    iso_coords = []
    for w in inst.witnesses:
        if w.source == w.target:
            raise DomainError("an isogeny witness must connect two distinct coordinates")
        iso_coords.extend([w.source, w.target])
    if all(roles[k] == "singular" for k in iso_coords):
        raise UnsupportedConfiguration(
            "all isogenous coordinates are singular; outside the implemented cases"
        )
    if any(roles[k] not in ("cm", "singular") for k in iso_coords):
        raise UnsupportedConfiguration(
            "smooth isogenous coordinates must be CM for the implemented cases"
        )
    shared = len(set(iso_coords)) < len(iso_coords)
    n_sing = sum(1 for k in set(iso_coords) if roles[k] == "singular")
    n_cm = len(set(iso_coords)) - n_sing

    cm_pairs = [
        w
        for w in inst.witnesses
        if roles[w.source] == "cm" and roles[w.target] == "cm"
    ]
    mixed_pairs = [
        w
        for w in inst.witnesses
        if {roles[w.source], roles[w.target]} == {"cm", "singular"}
    ]

    if shared:
        case_id = 1 if (n_sing, n_cm) == (2, 1) else 2 if n_sing == 1 else 6
    else:
        if n_sing == 3:
            case_id = 3
        elif n_sing == 2:
            case_id = 4
        elif n_sing == 1:
            case_id = 5
        else:
            case_id = 6

    if cm_pairs:
        w = cm_pairs[0]
        witness = second_way(
            inst.coordinate(w.source).period,
            inst.coordinate(w.target).period,
            w.iso,
            ctx,
            pi_overrides=inst.pi_overrides,
            k_source=w.source,
            k_target=w.target,
        )
        return case_id, witness

    if not mixed_pairs:
        raise UnsupportedConfiguration(
            "no CM/CM and no singular/CM isogenous pair in the instance"
        )

    pair_witnesses = []
    for w in mixed_pairs:
        k_sing, k_cm = (
            (w.source, w.target) if roles[w.source] == "singular" else (w.target, w.source)
        )
        pair_witnesses.append(
            first_way(
                inst.coordinate(k_sing).period,
                inst.coordinate(k_cm).period,
                w.iso,
                ctx,
                pi_overrides=inst.pi_overrides,
                k_sing=k_sing,
                k_cm=k_cm,
            )
        )
    if len(pair_witnesses) == 2:
        return case_id, four_coordinate(pair_witnesses[0], pair_witnesses[1], ctx)
    witness = pair_witnesses[0]
    if len(inst.witnesses) == 2:
        # one pair unusable (singular/singular): relation carried by the other pair only
        witness = replace(witness, partial=True)
    return case_id, witness


# ---------------------------------------------------------------------------
# polynomial building from witnesses


def build_polynomial(witness: RelationWitness, ctx: PrecisionContext = None) -> MultiPoly:
    """Relation polynomial of a witness: the degenerate branch or the product law."""
    ctx = ctx or PrecisionContext()
    cfg = witness.config
    which = witness.degenerate_flags[0] if witness.degenerate_flags else None
    if witness.way == "second":
        if which:
            # r collapses H1 (pairing with column 1), s collapses H2,
            # p collapses H3, q collapses H4
            H1, H2, H3, H4 = polyrel.second_way_h_polys(cfg, ctx)
            return {"r": H1, "s": H2, "p": H3, "q": H4}[which]
        return polyrel.build_R_second_way(cfg, ctx)
    if witness.way not in ("first", "four"):
        raise DomainError(f"unknown witness way {witness.way!r}")
    if which:
        if witness.way == "four":
            cfg = cfg[0]  # four_coordinate puts the degenerate pair first
        return polyrel.build_R_degenerate(
            1 if which == "r" else 2, cfg.a, cfg.b, cfg.c, cfg.pi_sing, cfg.pi_cm, cfg.k_sing, cfg.k_cm, ctx
        )
    if witness.way == "four":
        return polyrel.build_R_pair_product(*cfg, ctx)
    raise UnsupportedConfiguration(
        "a single non-degenerate singular/CM pair has no polynomial relation "
        "over the coefficient field (the product law carries a 2*pi*i); "
        "combine two pairs or use the degenerate branch"
    )


# ---------------------------------------------------------------------------
# genuine and synthetic instance construction


def genuine_second_way(
    tau, sub: CyclicSublattice, ctx: PrecisionContext = None
) -> tuple[RelationWitness, IsogenyWitness]:
    """Full pipeline on an actual CM point: lattice, isogeny, decomposition, identities."""
    ctx = ctx or PrecisionContext()
    lat = Lattice.from_tau(to_complex(tau))
    iso, target, P1, P2 = make_witness(lat, sub, ctx)
    h2 = decompose_cm(P1, ctx)
    h3 = decompose_cm(P2, ctx)
    witness = second_way(h2, h3, iso, ctx)
    return witness, iso


def _rand_fraction(rng: random.Random, lo=-8, hi=8, den=8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _mpc_of(re: Fraction, im: Fraction) -> mp.mpc:
    """re + i*im, each part correctly rounded once (the value of mpf(n)/d)."""
    prec, rnd = mp.mp._prec_rounding
    return mp.make_mpc(
        (from_rational(re.numerator, re.denominator, prec, rnd),
         from_rational(im.numerator, im.denominator, prec, rnd))
    )


def _rand_complex(rng: random.Random, lo=-8, hi=8, den=8) -> mp.mpc:
    re = _rand_fraction(rng, lo, hi, den)
    im = _rand_fraction(rng, lo, hi, den)
    return _mpc_of(re, im)


def _rand_nonzero_complex(rng: random.Random) -> mp.mpc:
    """A draw of _rand_complex with |z| > 1/4, decided on the exact parts."""
    while True:
        re, im = _rand_fraction(rng), _rand_fraction(rng)
        if re * re + im * im > Fraction(1, 16):
            return _mpc_of(re, im)


def _rand_det1(rng: random.Random) -> mp.matrix:
    while True:
        h11 = _rand_nonzero_complex(rng)
        h12 = _rand_complex(rng)
        h21 = _rand_complex(rng)
        h22 = (1 + h12 * h21) / h11
        m = mp.matrix([[h11, h12], [h21, h22]])
        if abs(det2(m)) > mp.mpf(1) / 2:
            return m


def _rand_sl2z(rng: random.Random, size: int = 3) -> mp.matrix:
    """Random SL2(Z) element as a short word in the generators T^n and S."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        n = rng.randint(-size, size)
        a, b = a + n * c, b + n * d  # left-multiply by T^n
        a, b, c, d = -c, -d, a, b  # left-multiply by S
    return mp.matrix([[a, b], [c, d]])


def _rand_integer_matrix(rng: random.Random, M: int) -> tuple[int, int, int, int]:
    """Random integer matrix with determinant M (Hermite seed times SL2(Z))."""
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    a = rng.choice(divisors)
    d = M // a
    b = rng.randint(0, max(d - 1, 0))
    u = _rand_sl2z(rng)
    p = int(u[0, 0]) * a
    q = int(u[0, 0]) * b + int(u[0, 1]) * d
    r = int(u[1, 0]) * a
    s = int(u[1, 0]) * b + int(u[1, 1]) * d
    assert p * s - q * r == M
    return p, q, r, s


def synth_second_way(
    seed: int,
    ctx: PrecisionContext = None,
    degenerate: str = None,
    pi_overrides: dict = None,
) -> RelationWitness:
    """Consistency-by-construction double-CM instance from a seed.

    Draws h_target (det 1), the two periods and an integer matrix of degree M,
    picks a, b freely with c = M/a, and solves the master equation for
    h_source.  degenerate in {"q", "r"} zeroes that integer.
    """
    ctx = ctx or PrecisionContext()
    rng = random.Random(seed)
    with ctx.workprec():
        M = rng.randint(1, 12)
        p, q, r, s = _rand_integer_matrix(rng, M)
        if degenerate == "q":
            p = rng.choice([d for d in range(1, M + 1) if M % d == 0])
            s = M // p
            r = rng.randint(-5, 5)
            q = 0
        elif degenerate == "r":
            p = rng.choice([d for d in range(1, M + 1) if M % d == 0])
            s = M // p
            q = rng.randint(-5, 5)
            r = 0
        h3 = _rand_det1(rng)
        vps = _rand_nonzero_complex(rng)  # source period
        vpt = _rand_nonzero_complex(rng)  # target period
        a = _rand_nonzero_complex(rng)
        b = _rand_complex(rng)
        c = M / a
        tpi = ctx.two_pi_i
        A = mp.matrix([[a, 0], [b, c]])
        B = mp.matrix([[p, q], [r, s]])
        Ds = mp.matrix([[vps / tpi, 0], [0, 1 / vps]])
        Dt = mp.matrix([[vpt / tpi, 0], [0, 1 / vpt]])
        h2 = inv2(A) * h3 * Dt * B * inv2(Ds)
        sp_src = StructuredPeriod.cm(h2, vps)
        sp_tgt = StructuredPeriod.cm(h3, vpt)
        iso = IsogenyWitness(
            degree=M, de_rham=(a, b, c), homology=(p, q, r, s), residual=mp.mpf(0)
        )
        return second_way(sp_src, sp_tgt, iso, ctx, pi_overrides=pi_overrides)


def synth_first_way(
    seed: int,
    ctx: PrecisionContext = None,
    force_r_zero: bool = False,
    force_s_zero: bool = False,
    pi_overrides: dict = None,
    k_sing: int = 1,
    k_cm: int = 3,
    cm_data: tuple = None,
) -> RelationWitness:
    """Consistency-by-construction singular/CM instance from a seed.

    Draws the CM side (det-1 h, period), the isogeny matrices and the
    log-structure factor, then solves T = A*h_cm*F_cm*B^-1 and peels
    h_sing = T*S^-1.  The structural matrix comes from the documented
    (d, dprime, e, eprime, N, log x) parametrization.  cm_data pins the CM
    side to an externally shared (h matrix, period) pair.
    """
    ctx = ctx or PrecisionContext()
    rng = random.Random(seed)
    with ctx.workprec():
        M = rng.randint(1, 12)
        p, q, r, s = _rand_integer_matrix(rng, M)
        if force_r_zero:
            p = rng.choice([d for d in range(1, M + 1) if M % d == 0])
            s = M // p
            q = rng.randint(-5, 5)
            r = 0
        if force_s_zero:
            # anti-triangular: p*s - q*r = M with s = 0 needs -q*r = M
            q = rng.choice([d for d in range(1, M + 1) if M % d == 0])
            r = -(M // q)
            p = rng.randint(-5, 5)
            s = 0
        if cm_data is not None:
            h_cm_mat, vp0 = cm_data
        else:
            h_cm_mat = _rand_det1(rng)
            vp0 = _rand_nonzero_complex(rng)
        a = _rand_nonzero_complex(rng)
        b = _rand_complex(rng)
        c = M / a
        tpi = ctx.two_pi_i
        A = mp.matrix([[a, 0], [b, c]])
        B = mp.matrix([[p, q], [r, s]])
        W = mp.matrix([[vp0 / tpi, 0], [0, 1 / vp0]])
        T = A * h_cm_mat * W * inv2(B)
        d = _rand_nonzero_complex(rng)
        dp = _rand_complex(rng)
        e = _rand_complex(rng)
        ep = _rand_nonzero_complex(rng)
        n_mult = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        logx = _rand_complex(rng)
        S = make_singular_structure(d, dp, e, ep, n_mult, logx, ctx)
        h_sing_mat = T * inv2(S)
        sp_sing = StructuredPeriod.singular(
            h_sing_mat, d=S[0, 0], dprime=S[1, 0], e0=S[0, 1], e0prime=S[1, 1]
        )
        sp_cm = StructuredPeriod.cm(h_cm_mat, vp0)
        iso = IsogenyWitness(
            degree=M, de_rham=(a, b, c), homology=(p, q, r, s), residual=mp.mpf(0)
        )
        return first_way(
            sp_sing, sp_cm, iso, ctx, pi_overrides=pi_overrides, k_sing=k_sing, k_cm=k_cm
        )


def synth_four_coordinate(
    seed: int,
    ctx: PrecisionContext = None,
    degenerate_pair2: bool = False,
    pi_overrides: dict = None,
    shared_cm: bool = False,
) -> RelationWitness:
    """Two seeded singular/CM pairs combined into the degree-4 relation.

    shared_cm reuses one CM coordinate for both pairs (the three-coordinate
    layout); otherwise the pairs live on four distinct coordinates.
    """
    ctx = ctx or PrecisionContext()
    pair_coords = ((1, 3), (2, 3)) if shared_cm else ((1, 3), (2, 4))
    cm_data = None
    if shared_cm:
        rng = random.Random(seed ^ 0x5EED)
        with ctx.workprec():
            cm_data = (_rand_det1(rng), _rand_nonzero_complex(rng))
    pair1 = synth_first_way(
        seed * 2 + 1,
        ctx,
        pi_overrides=pi_overrides,
        k_sing=pair_coords[0][0],
        k_cm=pair_coords[0][1],
        cm_data=cm_data,
    )
    pair2 = synth_first_way(
        seed * 2 + 2,
        ctx,
        force_r_zero=degenerate_pair2,
        pi_overrides=pi_overrides,
        k_sing=pair_coords[1][0],
        k_cm=pair_coords[1][1],
        cm_data=cm_data,
    )
    return four_coordinate(pair1, pair2, ctx)


def random_sl2_gauges(seed: int, coords) -> dict:
    """Seeded SL2(Z) coefficient-side gauges for the given coordinate indices."""
    rng = random.Random(seed)
    return {k: _rand_sl2z(rng) for k in coords}
