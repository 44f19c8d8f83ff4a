import json

import mpmath as mp
import pytest

from zpscan import cli, polyrel
from zpscan.analytic import PrecisionContext
from zpscan.cli import main
from zpscan.errors import NonConvergence
from zpscan.isogeny import cyclic_sublattices, make_witness
from zpscan.periods import Lattice, reduce_tau
from zpscan.relations import build_polynomial, synth_second_way
from zpscan.serialize import fmt_complex, fmt_real, parse_complex

from conftest import REPO_ROOT, validate_against


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None


def test_periods_json_schema(capsys):
    code, doc = run_json(capsys, "periods", "--tau", "0,1")
    assert code == 0
    validate_against("periods.schema.json", doc)
    assert doc["cm"]["disc"] == -4
    assert doc["meta"]["precision_bits"] == 256


def test_periods_lattice_input(capsys):
    code, doc = run_json(capsys, "periods", "--lattice", "1,0,0,1")
    assert code == 0
    assert doc["omega"][0] == ["1.0", "0.0"]


RHO_50 = "-0.5,0.86602540378443864676372317075293618347140262690519"


@pytest.mark.parametrize("argv", [["--tau=" + RHO_50], ["--lattice", "1,0," + RHO_50]])
def test_periods_at_rho_keeps_input_precision(capsys, monkeypatch, argv):
    # tau, read at the ambient 53 bits, once missed the D = -3 certificate
    reduced = []

    def recording_reduce_tau(tau, ctx):
        out = reduce_tau(tau, ctx)
        reduced.append(out[0])
        return out

    monkeypatch.setattr(cli, "reduce_tau", recording_reduce_tau)
    code, doc = run_json(capsys, "periods", *argv)
    assert code == 0
    assert doc["cm"]["disc"] == -3 and doc["cm"]["coeffs"] == [1, 1, 1]
    assert doc["tau_reduced"] == ["-0.5", "0.86602540378443864676372317075294"]
    with mp.workprec(512):
        rho = mp.mpc(-0.5, mp.sqrt(3) / 2)
        assert abs(reduced[0] - rho) < mp.mpf("1e-45")


def test_periods_usage_error(capsys):
    code, _ = run_cli(capsys, "periods")
    assert code == 1


def test_unknown_subcommand(capsys):
    assert main(["no-such-thing"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["relations", "second-way", "--synthetic", "--degenerate"],
        ["periods", "--tau", "0,1", "--format", "csv"],
    ],
)
def test_options_nothing_reads_are_rejected(capsys, argv):
    # --format belongs to report only; second-way has no degenerate branch to force
    assert main(argv) == 1


def test_isogeny_verify_schema_and_threshold(capsys):
    code, doc = run_json(
        capsys, "isogeny", "verify", "--tau", "0,1", "--degree", "2", "--all-sublattices", "--jobs", "1"
    )
    assert code == 0
    validate_against("isogeny.schema.json", doc)
    assert doc["count"] == 3
    for w in doc["witnesses"]:
        p, q, r, s = w["homology"]
        assert p * s - q * r == 2


def test_isogeny_relative_residual_at_working_precision(capsys):
    sub = cyclic_sublattices(12)[3]
    code, doc = run_json(
        capsys, "isogeny", "verify", "--tau", "0.25,1.3", "--degree", "12",
        "--sublattice", f"{sub.a},{sub.b},{sub.d}", "--precision", "256", "--jobs", "1",
    )
    assert code == 0
    ctx = PrecisionContext(bits=256)
    w, _, _, P2 = make_witness(Lattice.from_tau(parse_complex("0.25,1.3")), sub, ctx)
    with ctx.workprec():
        norm = max(abs(P2.p[i, j]) for i in range(2) for j in range(2))
        want = fmt_real(w.residual / norm)
    assert doc["witnesses"][0]["relative_residual"] == want
    assert doc["max_relative_residual"] == want


def test_isogeny_jobs_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["isogeny", "verify", "--tau", "0.25,1.3", "--degree", "6",
                 "--all-sublattices", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["isogeny", "verify", "--tau", "0.25,1.3", "--degree", "6",
                 "--all-sublattices", "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


ISOGENY_AT_I = ["isogeny", "verify", "--tau", "0,1", "--degree", "12", "--all-sublattices"]


def test_isogeny_shared_source_matrix_matches_per_sublattice_witnesses(capsys):
    # the command builds the source period matrix once; each witness must be the
    # one make_witness gives when it builds its own
    code, doc = run_json(capsys, *ISOGENY_AT_I, "--jobs", "1")
    assert code == 0
    subs = cyclic_sublattices(12)
    assert [w["sublattice"] for w in doc["witnesses"]] == [[s.a, s.b, s.d] for s in subs]
    ctx = PrecisionContext(bits=256)
    lat = Lattice.from_tau(parse_complex("0,1"))
    for got, sub in zip(doc["witnesses"], subs):
        w, target, _, P2 = make_witness(lat, sub, ctx)
        with ctx.workprec():
            norm = max(abs(P2.p[i, j]) for i in range(2) for j in range(2))
            assert got["relative_residual"] == fmt_real(w.residual / norm)
            assert got["target_tau"] == fmt_complex(target.tau)
        assert got["homology"] == list(w.homology)
        assert got["de_rham"] == [fmt_complex(v) for v in w.de_rham]
        assert got["residual"] == fmt_real(w.residual)


def test_isogeny_jobs_determinism_at_cm_point(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*ISOGENY_AT_I, "--jobs", "1", "--out", str(a)]) == 0
    assert main([*ISOGENY_AT_I, "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_phi_exact_schema(capsys):
    code, doc = run_json(capsys, "phi", "exact", "--level", "2")
    assert code == 0
    validate_against("phi_exact.schema.json", doc)
    coeffs = {(i, j): c for i, j, c in doc["coeffs"]}
    assert coeffs[(0, 0)] == -157464000000000


def test_phi_exact_level_cap(capsys):
    code, _ = run_cli(capsys, "phi", "exact", "--level", "7")
    assert code == 1


def test_phi_eval_schema(capsys):
    code, doc = run_json(capsys, "phi", "eval", "--level", "2", "--x", "1728,0", "--tau", "0,0.5")
    assert code == 0
    validate_against("phi_eval.schema.json", doc)
    # x = j(i) and tau = i/2 are 2-isogenous: the product vanishes
    assert abs(float(doc["value"][0])) < 1e-30


@pytest.mark.parametrize("level", [23, 29, 30])
def test_phi_eval_at_high_levels_matches_kleinj(capsys, monkeypatch, level):
    # sublattice taus reach Im 39 at level 30; the value printed is the one
    # computed, and that one is within tol of the product scale
    values, real = [], cli.phi_eval_numeric

    def record(*args):
        values.append(real(*args))
        return values[-1]

    monkeypatch.setattr(cli, "phi_eval_numeric", record)
    code, doc = run_json(capsys, "phi", "eval", "--level", str(level), "--x", "1728,0", "--tau", "0.1,1.3")
    assert code == 0
    (got,) = values
    assert doc["value"] == fmt_complex(got)
    ctx = PrecisionContext()
    with mp.workprec(2048):
        tau, x = parse_complex("0.1,1.3", 2048), mp.mpf(1728)
        want, scale = mp.mpf(1), mp.mpf(1)
        for sub in cyclic_sublattices(level):
            j_sub = 1728 * mp.kleinj(sub.d * tau / (sub.a + sub.b * tau))
            want *= x - j_sub
            scale *= max(1, abs(x), abs(j_sub))
        assert abs(got - want) < ctx.tol * scale


def test_relations_synthetic_and_schema(capsys):
    code, doc = run_json(capsys, "relations", "first-way", "--synthetic", "--seed", "9", "--degenerate")
    assert code == 0
    validate_against("relations.schema.json", doc)
    assert doc["witness"]["way"] == "first"
    assert doc["witness"]["degenerate_flags"] == ["r"]
    assert doc["witness"]["polynomial"]["degree"] == 2


def test_relations_n4_and_check_relation(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, doc = run_json(capsys, "relations", "n4", "--seed", "7", "--emit-instance", str(inst))
    assert code == 0
    validate_against("relations.schema.json", doc)
    with open(inst) as fh:
        validate_against("relation_instance.schema.json", json.load(fh))
    code, doc2 = run_json(capsys, "check-relation", "--instance", str(inst))
    assert code == 0
    validate_against("check_relation.schema.json", doc2)
    assert doc2["degree"] in (2, 4)
    assert doc2["homogeneous"] is True


def test_relations_genuine_second_way(capsys):
    code, doc = run_json(
        capsys, "relations", "second-way", "--tau2", "0,1", "--tau3", "0,2", "--degree", "2"
    )
    assert code == 0
    validate_against("relations.schema.json", doc)
    assert doc["witness"]["way"] == "second"
    assert sorted(doc["witness"]["degenerate_flags"]) == ["q", "r"]


def test_relations_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["relations", "n4", "--seed", "3", "--out", str(a)]) == 0
    assert main(["relations", "n4", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_report_pipeline(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    curve.write_text("n = 3\nj1 = 0 1728 / 1\nj2 = 0 287496 / 1\nj3 = 0 0 287496 / 1\n")
    out = tmp_path / "scan.json"
    code = main(["scan", "--curve", str(curve), "--levels", "2..2", "--pairs", "all", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    validate_against("scan.schema.json", doc)
    assert doc["report"]["double_strata"] == 1
    code, csv_text = run_cli(capsys, "report", "--in", str(out), "--format", "csv")
    assert code == 0
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("pair1,pair2")
    assert len(lines) == 1 + doc["report"]["points"]
    code, rows = run_json(capsys, "report", "--in", str(out), "--format", "json")
    assert code == 0
    validate_against("report.schema.json", rows)


def test_selftest_quick(capsys):
    code, doc = run_json(capsys, "selftest", "--quick")
    assert code == 0
    validate_against("selftest.schema.json", doc)
    assert doc["ok"] is True


def test_check_relation_detects_tampering(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _ = run_json(capsys, "relations", "n4", "--seed", "8", "--emit-instance", str(inst))
    assert code == 0
    data = json.loads(inst.read_text())
    key = sorted(data["assignment"])[0]
    data["assignment"][key] = ["2.5", "0.125"]  # replace one value wholesale
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, doc = run_json(capsys, "check-relation", "--instance", str(bad))
    assert code == 2  # vanishing residual now fails the threshold


def test_vanishing_residual_at_working_precision(tmp_path, capsys):
    # the modulus of the polynomial's value is taken at working precision:
    # its 32 printed digits are the 256-bit value's, and both commands print
    # the same bytes at 53 and at 1024 ambient bits
    ctx = PrecisionContext(bits=256)
    w = synth_second_way(3, ctx)
    R = build_polynomial(w, ctx)
    with ctx.workprec():
        want = fmt_real(abs(polyrel.evaluate(R, w.assignment, ctx)))
    assert want == "5.8974905897926451387842331292289e-79"
    inst = tmp_path / "inst.json"
    assert mp.mp.prec == 53
    code, doc = run_json(
        capsys, "relations", "second-way", "--synthetic", "--seed", "3", "--emit-instance", str(inst)
    )
    assert code == 0
    assert doc["witness"]["polynomial"]["vanishing_residual"] == want
    for argv in (
        ("relations", "second-way", "--synthetic", "--seed", "3"),
        ("check-relation", "--instance", str(inst)),
    ):
        low = run_cli(capsys, *argv)
        with mp.workprec(1024):
            high = run_cli(capsys, *argv)
        assert low == high and low[0] == 0


@pytest.mark.parametrize("attempts", ["0", "-2"])
def test_check_relation_rejects_attempts_below_one(tmp_path, capsys, attempts):
    inst = tmp_path / "inst.json"
    code, _ = run_json(capsys, "relations", "n4", "--seed", "8", "--emit-instance", str(inst))
    assert code == 0
    code = main(["check-relation", "--instance", str(inst), "--attempts", attempts])
    captured = capsys.readouterr()
    assert code == 1
    assert "--attempts" in captured.err and captured.out == ""


def test_scan_jobs_determinism(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    curve.write_text("n = 2\nj1 = 0 1 / 1\nj2 = 1 1 / 1\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["scan", "--curve", str(curve), "--levels", "2..2", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["scan", "--curve", str(curve), "--levels", "2..2", "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_fails_when_a_root_cannot_be_lifted(tmp_path, capsys, monkeypatch):
    curve = tmp_path / "curve.txt"
    curve.write_text("n = 2\nj1 = 0 1 / 1\nj2 = 1 1 / 1\n")
    argv = ["scan", "--curve", str(curve), "--levels", "2", "--jobs", "1"]
    code, good = run_json(capsys, *argv)
    assert code == 0
    calls = []
    real = cli.soundness_residual

    def lift_fails_once(*args):
        calls.append(args)
        if len(calls) == 2:
            raise NonConvergence("could not lift the coordinate value through j")
        return real(*args)

    monkeypatch.setattr(cli, "soundness_residual", lift_fails_once)
    code, doc = run_json(capsys, *argv)
    assert len(calls) == len(good["report"]["rows"][0]["t_minpoly"]) - 1
    assert code == 2
    assert doc["report"] == good["report"]
    assert mp.mpf(doc["worst_soundness_residual"]) < PrecisionContext().sqrt_tol


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ZP_PRECISION_BITS", "128")
    code, doc = run_json(capsys, "periods", "--tau", "0,1")
    assert code == 0
    assert doc["meta"]["precision_bits"] == 128
    monkeypatch.delenv("ZP_PRECISION_BITS")
    code, doc = run_json(capsys, "periods", "--tau", "0,1", "--precision", "320")
    assert code == 0
    assert doc["meta"]["precision_bits"] == 320


def _readme_scan(tmp_path):
    """The README's example curve file and its scan command, with the paths under tmp_path."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    curve = text.split("### Curve files", 1)[1].split("```\n", 2)[1]
    assert curve.startswith("n = 3\n")
    (tmp_path / "curve.txt").write_text(curve, encoding="utf-8")
    (command,) = [line for line in text.splitlines() if line.startswith("zpscan scan ")]
    argv = command.split()[1:]
    argv[argv.index("curve.txt")] = str(tmp_path / "curve.txt")
    argv[argv.index("report.json")] = str(tmp_path / "report.json")
    return argv


def test_readme_scan_command_exits_zero(tmp_path):
    # at mpmath's default 53 ambient bits, as a fresh CLI process runs it
    assert mp.mp.prec == 53
    argv = _readme_scan(tmp_path)
    assert argv[argv.index("--levels") + 1] == "2..5"
    assert main(argv + ["--jobs", "1"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    # the README's double point: t = 1 on two distinct level-2 strata
    doubles = [(r["pair1"], r["pair2"], r["t_minpoly"]) for r in doc["report"]["rows"] if r["pair2"]]
    assert ([1, 2, 2], [1, 3, 2], [-1, 1]) in doubles
    assert mp.mpf(doc["worst_soundness_residual"]) < PrecisionContext().sqrt_tol


def test_numeric_double_checks_find_nothing_on_the_readme_curve(tmp_path):
    # level 6 has no exact table, so the roots of the level-2 strata are
    # tested against the other pairs numerically; none lies on a level-6 stratum
    argv = _readme_scan(tmp_path)
    argv[argv.index("--levels") + 1] = "2,6"
    assert main(argv + ["--jobs", "1"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert doc["exact_levels"] == [2] and doc["numeric_levels"] == [6]
    assert doc["report"]["rows"]
    assert not any(r["numeric_only"] for r in doc["report"]["rows"])


def test_cm_values_level_five_scan_exits_zero(capsys):
    # a level-5 root of the (j2, j3) stratum lifts to Im(tau) about 43
    curve = str(REPO_ROOT / "zpbench" / "curves" / "cm_values.txt")
    code, _ = run_json(capsys, "scan", "--curve", curve, "--levels", "5", "--pairs", "2,3", "--jobs", "1")
    assert code == 0


@pytest.mark.parametrize("pairs", ["1,9", "0,1", "1,1", "1,2;2,1", "1,2,3", "1;2", ""])
def test_pairs_usage_errors_exit_one(tmp_path, capsys, pairs):
    # indices outside 1..3, a coordinate paired with itself, the same
    # unordered pair twice, and malformed pairs
    argv = _readme_scan(tmp_path)
    argv[argv.index("--pairs") + 1] = pairs
    code = main(argv + ["--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--pairs" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--level", ["phi", "exact", "--level", "0"]),
        ("--level", ["phi", "eval", "--level", "0", "--x", "1,0", "--tau", "0,1"]),
        ("--levels", "0,2"),
        ("--levels", "5..2"),
        ("--levels", "2,x"),
        # a repeated level would pair each stratum with itself as a double point
        ("--levels", "2,2"),
    ],
)
def test_level_usage_errors_exit_one(tmp_path, capsys, flag, argv):
    if flag == "--levels":
        levels, argv = argv, _readme_scan(tmp_path)
        argv[argv.index("--levels") + 1] = levels
    code = main(argv + ["--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert flag in captured.err and captured.out == ""
