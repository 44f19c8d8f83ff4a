"""The fixed batches of operations that one benchmark round runs.

Every operation calls zpscan in-process: CLI commands go through
``zpscan.cli.main(argv)`` with ``--jobs 1`` (the default would start a pool of
``cpu_count()`` workers for each command), and the relations batch calls the
public library functions.  Functions are always looked up on their module at
call time, so the tracer's rebinding reaches them.

A batch depends only on the seed.  The set-up of a workload is
``Workload.prepare`` (the Phi_N tables scan needs) and one untimed run of
``Workload.warmup``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import mpmath as mp

from zpscan import cli, modular, polyrel, relations
from zpscan.analytic import PrecisionContext
from zpscan.errors import UnsupportedConfiguration, ZpError
from zpscan.isogeny import cyclic_sublattices
from zpscan.polyrel import PairConfig, SecondWayConfig

import checks

CURVE_DIR = Path(__file__).resolve().parent / "curves"

with mp.workdps(170):
    #: rho = exp(2*pi*i/3), written out to 160 digits for the CLI's 512-bit parser
    RHO = "-0.5," + mp.nstr(mp.sqrt(3) / 2, 160)


@dataclass
class Op:
    kind: str  # the command line (or library call) with its seed removed
    call: Callable[[], tuple]  # runs the operation: (exited_ok, output)
    check: Callable[[object], list]  # problems in an output that exited ok
    # problems in the output of an operation that failed, where it has one to check
    check_failed: Callable[[object], list] | None = None


@dataclass
class Workload:
    ops: list
    warmup: Op
    prepare: Callable[[], None] = lambda: None
    # checks of state built in the set-up (e.g. the Phi_N tables)
    setup_checks: Callable[[], list] = lambda: []


def cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an uncaught crash: the shell command would exit 1
            return False, f"{type(exc).__name__}: {exc}"
        return rc == 0, out.getvalue()

    return call


def report_check(check):
    """check, applied to the report a failed command printed before its non-zero exit.

    `scan` prints its whole report and then exits 2 on the soundness verdict
    alone, so the rows, t_minpoly and heights of a failed scan can still be
    checked.  An output that is not JSON (a crash, an error message) has
    nothing to check.
    """

    def check_failed(out):
        try:
            json.loads(out)
        except ValueError:
            return []
        return check(out)

    return check_failed


def digest(output) -> str:
    """Short fingerprint of an output, to compare later rounds with the first."""
    text = output if isinstance(output, str) else output.canonical()
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# scan

#: (curve file, --levels, --pairs, extra flags); the last four exit 2 today
SCAN_BATCH = [
    ("readme.txt", "2", "all", []),
    ("generic.txt", "2", "1,2", ["--precision", "512"]),
    ("denominators.txt", "2", "all", []),
    ("four.txt", "2", "1,2;3,4", []),
    ("cm_values.txt", "2", "1,2", []),
    ("cm_values.txt", "2", "all", []),
    ("cm_values.txt", "3", "1,2", []),
    ("cm_values.txt", "4", "2,3", []),
    ("cm_values.txt", "5", "2,3", []),
]
SCAN_LEVELS = (2, 3, 4, 5)


def build_scan(seed: int, outdir: Path) -> Workload:
    ctx = PrecisionContext()
    phis = {}
    ops = []
    for curve, levels, pairs, extra in SCAN_BATCH:
        path = CURVE_DIR / curve
        args = ["scan", "--curve", str(path), "--levels", levels, "--pairs", pairs] + extra
        text = path.read_text(encoding="utf-8")
        check = lambda out, text=text, levels=levels, pairs=pairs: checks.check_scan(  # noqa: E731
            out, text, levels, pairs, phis
        )
        ops.append(
            Op(
                kind=" ".join(["scan", "--curve", curve] + args[3:]),
                call=cli_call(args + ["--jobs", "1", "--seed", str(seed)]),
                check=check,
                check_failed=report_check(check),
            )
        )

    def prepare():
        for M in SCAN_LEVELS:
            phis[M] = modular.phi_recover_exact(M, ctx)

    def setup_checks():
        rng = random.Random(seed)
        return [p for M, phi in sorted(phis.items()) for p in checks.check_phi_table(M, phi.coeffs, rng)]

    return Workload(ops=ops, warmup=ops[4], prepare=prepare, setup_checks=setup_checks)


# ---------------------------------------------------------------------------
# isogeny


def _dec(n: int) -> str:
    """n/1000 as an exact decimal string."""
    return f"{'-' if n < 0 else ''}{abs(n) // 1000}.{abs(n) % 1000:03d}"


def generic_tau(rng: random.Random) -> tuple:
    """A seeded tau = x + iy with no integer quadratic relation of height <= 1000.

    x and y are multiples of 1/1000, so tau solves tau^2 - 2x*tau + x^2 + y^2;
    draws whose primitive integer form of that quadratic is small are refused,
    so neither CM detection (bound 60) nor the probe (bound 20) can succeed.
    """
    while True:
        xn, yn = rng.randint(-499, 499), rng.randint(1050, 1950)
        x, y = Fraction(xn, 1000), Fraction(yn, 1000)
        coeffs = [Fraction(1), -2 * x, x * x + y * y]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        if max(abs(c * den) for c in coeffs) > 1000:
            return f"{_dec(xn)},{_dec(yn)}", (x, y)


#: degrees verified at each tau, up to 30; the degree-30 checks dominate the round
ISOGENY_GRID = {"i": (2, 30), "rho": (3, 12), "generic": (5, 7)}


def build_isogeny(seed: int, outdir: Path) -> Workload:
    rng = random.Random(seed)
    taus = [("i", "0,1"), ("rho", RHO), ("generic", generic_tau(rng)[0])]
    ops = []
    for label, tau in taus:
        if label != "rho":  # at rho, periods misses the D = -3 certificate (see CHANGES.md)
            ops.append(
                Op(
                    kind=f"periods --tau {label}",
                    call=cli_call(["periods", f"--tau={tau}", "--jobs", "1", "--seed", str(seed)]),
                    check=lambda out, tau=tau, label=label: checks.check_periods(out, tau, label),
                )
            )
        for degree in ISOGENY_GRID[label]:
            argv = ["isogeny", "verify", f"--tau={tau}", "--degree", str(degree), "--all-sublattices"]
            ops.append(
                Op(
                    kind=f"isogeny verify --tau {label} --degree {degree} --all-sublattices",
                    call=cli_call(argv + ["--jobs", "1", "--seed", str(seed)]),
                    check=lambda out, tau=tau, degree=degree: checks.check_isogeny(out, tau, degree),
                )
            )
    return Workload(ops=ops, warmup=ops[1])


# ---------------------------------------------------------------------------
# relations

RELATION_SEEDS = 96  # seeds per round for the library kinds
CLI_EVERY = 8  # every 8th seed also round-trips through --emit-instance / check-relation
GENUINE_DEGREES = (2, 3, 5)


def smooth_coords(witness) -> frozenset:
    """The coordinates whose value matrices have determinant one (the CM ones)."""
    configs = witness.config if isinstance(witness.config, tuple) else (witness.config,)
    out = set()
    for cfg in configs:
        if isinstance(cfg, SecondWayConfig):
            out.update((cfg.k_source, cfg.k_target))
        elif isinstance(cfg, PairConfig):
            out.add(cfg.k_cm)
    return frozenset(out)


@dataclass
class RelationOutput:
    witness: object
    poly: object  # MultiPoly, or None for a non-degenerate single pair
    value: object  # the program's value of the polynomial at the witness
    cert: object  # NonMembershipCertificate

    def canonical(self) -> str:
        w = self.witness
        parts = [w.way, repr([mp.nstr(h, 60) for h in w.H]), repr(w.rhs_integers), repr(w.degenerate_flags)]
        if self.poly is not None:
            parts += [repr(self.poly), mp.nstr(abs(self.value), 10), repr(sorted(self.cert.point.items()))]
        return "|".join(parts)


def relation_call(make, ctx, seed):
    """One witness through build_polynomial, polyrel.evaluate and not_in_I0."""

    def call():
        try:
            w = make()
            try:
                R = relations.build_polynomial(w, ctx)
            except UnsupportedConfiguration:
                # documented: a single non-degenerate pair has no polynomial relation
                if w.way == "first" and not w.degenerate_flags:
                    return True, RelationOutput(w, None, None, None)
                raise
            value = polyrel.evaluate(R, w.assignment, ctx)
            cert = polyrel.not_in_I0(R, polyrel.IdealI0(smooth_coords=smooth_coords(w)), 5, ctx, seed=seed)
        except ZpError as exc:
            return False, f"{type(exc).__name__}: {exc}"
        return True, RelationOutput(w, R, value, cert)

    return call


def build_relations(seed: int, outdir: Path) -> Workload:
    ctx = PrecisionContext()
    rng = random.Random(seed)
    rel_seeds = [rng.randrange(10 ** 6) for _ in range(RELATION_SEEDS)]
    kinds = [
        ("synth_first_way", lambda s: relations.synth_first_way(s, ctx)),
        ("synth_first_way force_r_zero", lambda s: relations.synth_first_way(s, ctx, force_r_zero=True)),
        ("synth_first_way force_s_zero", lambda s: relations.synth_first_way(s, ctx, force_s_zero=True)),
        ("synth_second_way", lambda s: relations.synth_second_way(s, ctx)),
        ("synth_second_way degenerate=q", lambda s: relations.synth_second_way(s, ctx, degenerate="q")),
        ("synth_second_way degenerate=r", lambda s: relations.synth_second_way(s, ctx, degenerate="r")),
        ("synth_four_coordinate", lambda s: relations.synth_four_coordinate(s, ctx)),
        (
            "synth_four_coordinate degenerate_pair2",
            lambda s: relations.synth_four_coordinate(s, ctx, degenerate_pair2=True),
        ),
        ("synth_four_coordinate shared_cm", lambda s: relations.synth_four_coordinate(s, ctx, shared_cm=True)),
    ]
    cli_kinds = [
        ("first-way", ["relations", "first-way", "--degenerate"]),
        ("second-way", ["relations", "second-way", "--synthetic"]),
        ("n4", ["relations", "n4"]),
    ]
    ops = []
    for k, s in enumerate(rel_seeds):
        for kind, make in kinds:
            ops.append(
                Op(
                    kind=kind,
                    call=relation_call(lambda make=make, s=s: make(s), ctx, s),
                    check=lambda out: checks.check_relation_output(out, smooth_coords(out.witness)),
                )
            )
        if k % CLI_EVERY:
            continue
        for name, argv in cli_kinds:
            path = outdir / f"instance-{name}-{s}.json"
            emit = argv + ["--seed", str(s), "--emit-instance", str(path), "--jobs", "1"]
            ops.append(
                Op(
                    kind=" ".join(argv + ["--emit-instance"]),
                    call=cli_call(emit),
                    check=lambda out, path=path: checks.check_relation_cli(out, path),
                )
            )
            ops.append(
                Op(
                    kind=f"check-relation --instance ({name})",
                    call=cli_call(["check-relation", "--instance", str(path), "--seed", str(s), "--jobs", "1"]),
                    check=lambda out, path=path: checks.check_relation_instance(out, path),
                )
            )
    _, (gx, gy) = generic_tau(rng)
    with mp.workprec(ctx.bits + 64):
        taus = [
            ("i", mp.mpc(0, 1)),
            ("rho", mp.mpc(-0.5, mp.sqrt(3) / 2)),
            ("generic", mp.mpc(mp.mpf(gx.numerator) / gx.denominator, mp.mpf(gy.numerator) / gy.denominator)),
        ]
    for label, tau in taus:
        for degree in GENUINE_DEGREES:
            for sub in cyclic_sublattices(degree):
                ops.append(
                    Op(
                        kind=f"genuine_second_way tau={label} sub={sub.a},{sub.b},{sub.d}",
                        call=relation_call(
                            lambda tau=tau, sub=sub: relations.genuine_second_way(tau, sub, ctx)[0], ctx, 0
                        ),
                        check=lambda out: checks.check_relation_output(out, smooth_coords(out.witness)),
                    )
                )
    return Workload(ops=ops, warmup=ops[0])


WORKLOADS = {"scan": build_scan, "isogeny": build_isogeny, "relations": build_relations}
