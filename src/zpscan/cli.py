"""Command-line interface: verifications and scans with machine-readable output.

Exit codes: 0 success, 1 usage error, 2 verification failure (a residual over
threshold, a failed selftest check, or an unmatched configuration).  Every
JSON document carries the precision and seed it was produced with.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import multiprocessing
import sys

import mpmath as mp

from . import polyrel
from .analytic import PrecisionContext
from .errors import Inconclusive, ZpError
from .isogeny import CyclicSublattice, cyclic_sublattices, make_witness, recognize_quadratic
from .modular import MAX_EXACT_LEVEL, phi_eval_numeric, phi_recover_exact
from .periods import FullPeriodMatrix, Lattice, detect_cm, full_period_matrix, reduce_tau
from .polyrel import IdealI0, PairConfig, SecondWayConfig
from .relations import (
    build_polynomial,
    genuine_second_way,
    synth_first_way,
    synth_four_coordinate,
    synth_second_way,
)
from .scanner import (
    all_pairs,
    numeric_double_checks,
    parse_curve_file,
    report as build_report,
    soundness_residual,
    unlikely_points,
)
from .selftest import run_selftest
from .serialize import (
    JSON_DIGITS,
    dumps,
    fmt_complex,
    fmt_real,
    fmt_value,
    meta_block,
    parse_complex,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _context(args) -> PrecisionContext:
    if args.precision is None:
        return PrecisionContext.from_env()
    return PrecisionContext(bits=args.precision)


def _emit(args, payload) -> None:
    text = dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jobs(args) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    return multiprocessing.cpu_count()


def _pmap(fn, items, jobs):
    """Order-preserving map, optionally across processes."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with multiprocessing.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)


# ---------------------------------------------------------------------------
# periods


def cmd_periods(args) -> int:
    ctx = _context(args)
    if not args.lattice and not args.tau:
        sys.stderr.write("error: periods needs --tau or --lattice\n")
        return EXIT_USAGE
    if args.lattice:
        parts = args.lattice.split(",")
        if len(parts) != 4:
            sys.stderr.write("error: --lattice expects W1RE,W1IM,W2RE,W2IM\n")
            return EXIT_USAGE
        lat = Lattice(parse_complex(parts[:2]), parse_complex(parts[2:]))
    else:
        lat = Lattice.from_tau(parse_complex(args.tau))
    P = full_period_matrix(lat, ctx)
    with ctx.workprec():
        tau = lat.tau
    tau_red, gamma = reduce_tau(tau, ctx)
    cert = detect_cm(tau, args.cm_bound, ctx)
    payload = {
        "meta": meta_block(ctx, args.seed),
        "omega": [fmt_complex(P.p[0, 0]), fmt_complex(P.p[0, 1])],
        "eta": [fmt_complex(P.p[1, 0]), fmt_complex(P.p[1, 1])],
        "legendre_residual": fmt_real(P.legendre_residual),
        "tau_reduced": fmt_complex(tau_red),
        "reduction_matrix": list(gamma),
        "cm": None
        if cert is None
        else {
            "disc": cert.disc,
            "coeffs": list(cert.coeffs),
            "residual": fmt_real(cert.residual),
        },
    }
    _emit(args, payload)
    ok = P.legendre_residual < ctx.tol * abs(ctx.two_pi_i)
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# isogeny


def _isogeny_task(packed):
    bits, tau, triple, rows, legendre = packed
    ctx = PrecisionContext(bits=bits)
    lat = Lattice.from_tau(tau)
    sub = CyclicSublattice(*triple)
    P1 = FullPeriodMatrix(p=mp.matrix(rows), legendre_residual=legendre)
    w, target, _, P2 = make_witness(lat, sub, ctx, P1)
    probe = {}
    with ctx.workprec():
        norm = max(abs(P2.p[i, j]) for i in range(2) for j in range(2))
        relative = fmt_real(w.residual / norm)
        target_tau = target.tau
        for name, val in zip("abc", w.de_rham):
            rel = recognize_quadratic(val, 20, ctx)
            probe[name] = list(rel) if rel else None
    return {
        "sublattice": [sub.a, sub.b, sub.d],
        "degree": w.degree,
        "homology": list(w.homology),
        "de_rham": [fmt_complex(v) for v in w.de_rham],
        "residual": fmt_real(w.residual),
        "relative_residual": relative,
        "target_tau": fmt_complex(target_tau),
        "algebraicity_probe": probe,
    }


def cmd_isogeny(args) -> int:
    ctx = _context(args)
    tau = parse_complex(args.tau)
    if args.sublattice:
        a, b, d = (int(x) for x in args.sublattice.split(","))
        triples = [(a, b, d)]
    elif args.all_sublattices:
        triples = [(s.a, s.b, s.d) for s in cyclic_sublattices(args.degree)]
    else:
        subs = cyclic_sublattices(args.degree)
        triples = [(subs[0].a, subs[0].b, subs[0].d)]
    # one source period matrix for every sublattice; an mp.matrix does not
    # pickle, so a task carries its entries
    P1 = full_period_matrix(Lattice.from_tau(tau), ctx)
    tasks = [(ctx.bits, tau, t, P1.p.tolist(), P1.legendre_residual) for t in triples]
    witnesses = _pmap(_isogeny_task, tasks, _jobs(args))
    with ctx.workprec():
        worst = max(mp.mpf(w["relative_residual"]) for w in witnesses)
    payload = {
        "meta": meta_block(ctx, args.seed),
        "tau": fmt_complex(tau),
        "degree": args.degree,
        "count": len(witnesses),
        "witnesses": witnesses,
        "max_relative_residual": fmt_real(worst),
    }
    _emit(args, payload)
    return EXIT_OK if worst < ctx.tol else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# phi


def cmd_phi(args) -> int:
    ctx = _context(args)
    if args.phi_cmd == "exact":
        if args.level > MAX_EXACT_LEVEL:
            sys.stderr.write(f"error: exact recovery is limited to level <= {MAX_EXACT_LEVEL}\n")
            return EXIT_USAGE
        phi = phi_recover_exact(args.level, ctx)
        payload = {
            "meta": meta_block(ctx, args.seed),
            "level": phi.level,
            "degree": phi.degree,
            "symmetric": phi.is_symmetric(),
            "provenance": phi.provenance,
            "coeffs": [[i, j, c] for (i, j), c in sorted(phi.coeffs.items())],
        }
        _emit(args, payload)
        return EXIT_OK
    x = parse_complex(args.x)
    tau = parse_complex(args.tau)
    val = phi_eval_numeric(args.level, x, tau, ctx)
    payload = {
        "meta": meta_block(ctx, args.seed),
        "level": args.level,
        "x": fmt_complex(x),
        "tau": fmt_complex(tau),
        "value": fmt_complex(val),
    }
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# relations


def _witness_payload(witness, ctx, attempts=5, seed=0):
    payload = {
        "way": witness.way,
        "H": [fmt_complex(h) for h in witness.H],
        "rhs_integers": list(witness.rhs_integers),
        "residual": fmt_real(witness.residual),
        "entry_residuals": [fmt_real(e) for e in witness.entry_residuals],
        "degenerate_flags": list(witness.degenerate_flags),
        "partial": witness.partial,
    }
    try:
        R = build_polynomial(witness, ctx)
    except ZpError as exc:
        payload["polynomial"] = {"unavailable": str(exc)}
        return payload, witness.residual
    vanish, relative = _vanishing(R, witness.assignment, ctx)
    payload["polynomial"] = {
        "degree": R.degree(),
        "homogeneous": R.is_homogeneous(),
        "terms": len(R.terms),
        "vanishing_residual": fmt_real(vanish),
        "nonmembership": _nonmembership(R, witness, attempts, ctx, seed),
    }
    return payload, max(witness.residual, relative)


def _vanishing(R, assignment, ctx):
    """|R| at the assignment, and that over max(1, largest |coefficient|), at working precision."""
    with ctx.workprec():
        vanish = abs(polyrel.evaluate(R, assignment, ctx))
        return vanish, vanish / max(1, R.coeff_norm())


def _nonmembership(R, witness, attempts, ctx, seed):
    """The not-in-I0 certificate of R as JSON, or "inconclusive"."""
    try:
        cert = polyrel.not_in_I0(
            R, IdealI0(smooth_coords=witness.smooth_coords), attempts, ctx, seed=seed
        )
    except Inconclusive:
        return "inconclusive"
    return {
        "witness_point": {f"{i},{j},{k}": fmt_value(v) for (i, j, k), v in sorted(cert.point.items())},
        "value": fmt_value(cert.value),
        "attempts_used": cert.attempts_used,
    }


def _emit_instance(path, witness, ctx):
    digits = int(ctx.bits * 0.30103) + 12  # full-precision transport
    data = {
        "way": witness.way,
        "precision_bits": ctx.bits,
        "rhs_integers": list(witness.rhs_integers),
        "degenerate_flags": list(witness.degenerate_flags),
        "configs": [
            _config_dict(c, digits)
            for c in (witness.config if isinstance(witness.config, tuple) else (witness.config,))
        ],
        "assignment": {
            f"{i},{j},{k}": fmt_complex(v, digits)
            for (i, j, k), v in sorted(witness.assignment.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))


def _config_dict(cfg, digits=JSON_DIGITS):
    if isinstance(cfg, SecondWayConfig):
        return {
            "kind": "second",
            "a": fmt_complex(cfg.a, digits),
            "b": fmt_complex(cfg.b, digits),
            "c": fmt_complex(cfg.c, digits),
            "pi_source": _pi_dict(cfg.pi_source, digits),
            "pi_target": _pi_dict(cfg.pi_target, digits),
            "k_source": cfg.k_source,
            "k_target": cfg.k_target,
            "integers": [cfg.p, cfg.q, cfg.r, cfg.s],
        }
    return {
        "kind": "pair",
        "a": fmt_complex(cfg.a, digits),
        "b": fmt_complex(cfg.b, digits),
        "c": fmt_complex(cfg.c, digits),
        "pi_sing": _pi_dict(cfg.pi_sing, digits),
        "pi_cm": _pi_dict(cfg.pi_cm, digits),
        "k_sing": cfg.k_sing,
        "k_cm": cfg.k_cm,
        "integers": [cfg.r, cfg.s],
    }


def _pi_dict(pi, digits=JSON_DIGITS):
    if pi is None:
        return None
    return [[fmt_complex(pi[i, j], digits) for j in range(2)] for i in range(2)]


def _pi_from(data):
    if data is None:
        return None
    return mp.matrix([[parse_complex(data[i][j]) for j in range(2)] for i in range(2)])


def _config_from(data):
    if data["kind"] == "second":
        p, q, r, s = data["integers"]
        return SecondWayConfig(
            a=parse_complex(data["a"]),
            b=parse_complex(data["b"]),
            c=parse_complex(data["c"]),
            pi_source=_pi_from(data["pi_source"]),
            pi_target=_pi_from(data["pi_target"]),
            k_source=data["k_source"],
            k_target=data["k_target"],
            p=p,
            q=q,
            r=r,
            s=s,
        )
    r, s = data["integers"]
    return PairConfig(
        a=parse_complex(data["a"]),
        b=parse_complex(data["b"]),
        c=parse_complex(data["c"]),
        pi_sing=_pi_from(data["pi_sing"]),
        pi_cm=_pi_from(data["pi_cm"]),
        k_sing=data["k_sing"],
        k_cm=data["k_cm"],
        r=r,
        s=s,
    )


def cmd_relations(args) -> int:
    ctx = _context(args)
    seed = args.seed if args.seed is not None else 0
    if args.rel_cmd == "second-way":
        if args.synthetic:
            witness = synth_second_way(seed, ctx)
        else:
            witness = _genuine_second_way_cli(args, ctx)
            if witness is None:
                return EXIT_VERIFICATION
    elif args.rel_cmd == "first-way":
        witness = synth_first_way(seed, ctx, force_r_zero=args.degenerate)
    else:  # n4
        witness = synth_four_coordinate(seed, ctx, degenerate_pair2=args.degenerate)
    payload_w, worst = _witness_payload(witness, ctx, seed=seed)
    payload = {"meta": meta_block(ctx, args.seed), "witness": payload_w}
    if args.emit_instance:
        _emit_instance(args.emit_instance, witness, ctx)
    _emit(args, payload)
    return EXIT_OK if worst < ctx.sqrt_tol else EXIT_VERIFICATION


def _genuine_second_way_cli(args, ctx):
    if not args.tau2 or args.degree is None:
        sys.stderr.write("error: second-way needs --tau2 and --degree (or --synthetic)\n")
        raise SystemExit(EXIT_USAGE)
    tau2 = parse_complex(args.tau2)
    target_tau = parse_complex(args.tau3) if args.tau3 else None
    best = None
    for sub in cyclic_sublattices(args.degree):
        lat = Lattice.from_tau(tau2)
        from .isogeny import isogeny_pair

        target, _ = isogeny_pair(lat, sub, ctx)
        if target_tau is None:
            best = sub
            break
        with ctx.workprec():
            want, _ = reduce_tau(target_tau, ctx)
            got, _ = reduce_tau(target.tau, ctx)
            if abs(want - got) < ctx.sqrt_tol * max(1, abs(want)):
                best = sub
                break
    if best is None:
        sys.stderr.write(
            f"error: no cyclic degree-{args.degree} sublattice of tau2 matches tau3\n"
        )
        return None
    witness, _ = genuine_second_way(tau2, best, ctx)
    return witness


def cmd_check_relation(args) -> int:
    ctx = _context(args)
    with open(args.instance, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    configs = tuple(_config_from(c) for c in data["configs"])
    assignment = {}
    for key, val in data["assignment"].items():
        i, j, k = (int(x) for x in key.split(","))
        assignment[(i, j, k)] = parse_complex(val)
    from .relations import RelationWitness

    witness = RelationWitness(
        way=data["way"],
        H=(),
        rhs_integers=tuple(data["rhs_integers"]),
        residual=mp.mpf(0),
        degenerate_flags=tuple(data["degenerate_flags"]),
        config=configs if data["way"] == "four" else configs[0],
        assignment=assignment,
    )
    R = build_polynomial(witness, ctx)
    vanish, relative = _vanishing(R, assignment, ctx)
    nonmember = _nonmembership(R, witness, args.attempts, ctx, args.seed or 0)
    payload = {
        "meta": meta_block(ctx, args.seed),
        "degree": R.degree(),
        "homogeneous": R.is_homogeneous(),
        "vanishing_residual": fmt_real(vanish),
        "nonmembership": nonmember,
    }
    _emit(args, payload)
    ok = relative < ctx.sqrt_tol and nonmember != "inconclusive"
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# scan / report


def _parse_levels(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            levels = list(range(int(lo), int(hi) + 1))
        else:
            levels = [int(x) for x in spec.split(",")]
    except ValueError:
        levels = []
    if not levels or min(levels) < 1 or len(set(levels)) < len(levels):
        raise ValueError(f"--levels must name distinct levels >= 1, got {spec!r}")
    return levels


def _parse_pairs(spec: str, n: int) -> list[tuple]:
    if spec == "all":
        return all_pairs(n)
    try:
        pairs = [tuple(int(i) for i in chunk.split(",")) for chunk in spec.split(";")]
    except ValueError:
        pairs = []
    if (
        not pairs
        or any(len(p) != 2 or p[0] == p[1] or not all(1 <= i <= n for i in p) for p in pairs)
        or len({frozenset(p) for p in pairs}) < len(pairs)
    ):
        raise ValueError(
            f"--pairs must name distinct pairs i,j of different coordinates in 1..{n}, got {spec!r}"
        )
    return pairs


def _scan_soundness_task(packed):
    bits, curve_text, pair, M, root = packed
    ctx = PrecisionContext(bits=bits)
    curve = parse_curve_file(curve_text)
    try:
        return soundness_residual(curve, pair, M, root, ctx)
    except ZpError:
        return None


def cmd_scan(args) -> int:
    ctx = _context(args)
    with open(args.curve, "r", encoding="utf-8") as fh:
        curve_text = fh.read()
    curve = parse_curve_file(curve_text)
    levels = _parse_levels(args.levels)
    exact_levels = [L for L in levels if L <= MAX_EXACT_LEVEL]
    numeric_levels = [L for L in levels if L > MAX_EXACT_LEVEL]
    pairs = _parse_pairs(args.pairs, curve.n)
    points = unlikely_points(curve, exact_levels, pairs=pairs, ctx=ctx)
    if numeric_levels:
        points += numeric_double_checks(curve, points, numeric_levels, ctx)
    tasks = []
    for pt in points:
        if pt.defining is None or pt.numeric_only:
            continue
        # a double point is checked on both of its strata
        for i1, i2, M in filter(None, (pt.pair1, pt.pair2)):
            for root in pt.defining.roots:
                tasks.append((ctx.bits, curve_text, (i1, i2), M, root))
    soundness = _pmap(_scan_soundness_task, tasks, _jobs(args))
    # a root whose coordinate value cannot be lifted through j is unverified
    unverified = any(s is None for s in soundness)
    worst = max((s for s in soundness if s is not None), default=mp.mpf(0))
    summary = build_report(points)
    payload = {
        "meta": meta_block(ctx, args.seed),
        "curve": {"n": curve.n, "maps": [[m.num.coeffs, m.den.coeffs] for m in curve.maps]},
        "levels": levels,
        "exact_levels": exact_levels,
        "numeric_levels": numeric_levels,
        "report": summary,
        "worst_soundness_residual": fmt_real(worst),
    }
    _emit(args, payload)
    return EXIT_OK if worst < ctx.sqrt_tol and not unverified else EXIT_VERIFICATION


def cmd_report(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = data["report"]["rows"]
    if args.format == "json":
        out = dumps(rows)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["pair1", "pair2", "M", "N", "degree_bound", "height_t", "t_minpoly", "numeric_only"]
        )
        for r in rows:
            writer.writerow(
                [
                    "/".join(str(x) for x in r["pair1"]),
                    "/".join(str(x) for x in r["pair2"]) if r["pair2"] else "",
                    r["M"],
                    r["N"] if r["N"] is not None else "",
                    r["degree_bound"],
                    r["height_t"],
                    " ".join(str(c) for c in r["t_minpoly"]) if r["t_minpoly"] else "",
                    int(r["numeric_only"]),
                ]
            )
        out = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    ctx = _context(args)
    results = run_selftest(ctx, quick=args.quick)
    checks = []
    ok = True
    for res in results:
        checks.append({"name": res.name, "ok": res.ok, "detail": res.detail})
        status = "PASS" if res.ok else "FAIL"
        sys.stderr.write(f"[{status}] {res.name}: {res.detail}\n")
        ok = ok and res.ok
    payload = {"meta": meta_block(ctx, args.seed), "ok": ok, "checks": checks}
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=None, help="mantissa bits (default 256 or ZP_PRECISION_BITS)")
    common.add_argument("--seed", type=int, default=None, help="seed recorded in output and used for sampling")
    common.add_argument("--jobs", type=int, default=None, help="worker processes (default: cpu count)")
    common.add_argument("--out", type=str, default=None, help="write JSON here instead of stdout")

    parser = _Parser(prog="zpscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", parents=[common], help="period matrix, Legendre residual, CM certificate")
    p.add_argument("--tau", type=str, default=None, help="RE,IM of tau")
    p.add_argument("--lattice", type=str, default=None, help="W1RE,W1IM,W2RE,W2IM")
    p.add_argument("--cm-bound", type=int, default=60)
    p.set_defaults(fn=cmd_periods)

    p = sub.add_parser("isogeny", help="verify the cyclic-isogeny matrix identity")
    isub = p.add_subparsers(dest="iso_cmd", required=True)
    pv = isub.add_parser("verify", parents=[common])
    pv.add_argument("--tau", type=str, required=True)
    pv.add_argument("--degree", type=int, required=True)
    pv.add_argument("--all-sublattices", action="store_true")
    pv.add_argument("--sublattice", type=str, default=None, help="a,b,d Hermite triple")
    pv.set_defaults(fn=cmd_isogeny)

    p = sub.add_parser("phi", help="modular polynomials")
    psub = p.add_subparsers(dest="phi_cmd", required=True)
    pe = psub.add_parser("exact", parents=[common])
    pe.add_argument("--level", type=_positive_int, required=True)
    pe.set_defaults(fn=cmd_phi)
    pn = psub.add_parser("eval", parents=[common])
    pn.add_argument("--level", type=_positive_int, required=True)
    pn.add_argument("--x", type=str, required=True)
    pn.add_argument("--tau", type=str, required=True)
    pn.set_defaults(fn=cmd_phi)

    p = sub.add_parser("relations", help="H-vector identities and relation polynomials")
    rsub = p.add_subparsers(dest="rel_cmd", required=True)
    r2 = rsub.add_parser("second-way", parents=[common])
    r2.add_argument("--tau2", type=str, default=None)
    r2.add_argument("--tau3", type=str, default=None)
    r2.add_argument("--degree", type=int, default=None)
    r2.add_argument("--synthetic", action="store_true")
    r2.add_argument("--emit-instance", type=str, default=None)
    r2.set_defaults(fn=cmd_relations)
    r1 = rsub.add_parser("first-way", parents=[common])
    r1.add_argument("--synthetic", action="store_true", default=True)
    r1.add_argument("--degenerate", action="store_true")
    r1.add_argument("--emit-instance", type=str, default=None)
    r1.set_defaults(fn=cmd_relations)
    r4 = rsub.add_parser("n4", parents=[common])
    r4.add_argument("--degenerate", action="store_true")
    r4.add_argument("--emit-instance", type=str, default=None)
    r4.set_defaults(fn=cmd_relations)

    p = sub.add_parser("check-relation", parents=[common], help="verify a stored relation instance")
    p.add_argument("--instance", type=str, required=True)
    p.add_argument("--attempts", type=_positive_int, default=5)
    p.set_defaults(fn=cmd_check_relation)

    p = sub.add_parser("scan", parents=[common], help="scan a rational curve for stratum points")
    p.add_argument("--curve", type=str, required=True)
    p.add_argument("--levels", type=str, default="2..5")
    p.add_argument("--pairs", type=str, default="all")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("report", parents=[common], help="reformat a scan report")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--format", type=str, choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in invariant suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ZpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFICATION
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
