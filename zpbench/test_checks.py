"""The benchmark's output checks must reject corrupted outputs.

    python3 -m pytest -q zpbench/test_checks.py

Each test takes a real output of the program, shows the check accepts it,
then corrupts one thing and shows the check rejects it.
"""

import copy
import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from zpscan import modular  # noqa: E402
from zpscan.analytic import PrecisionContext  # noqa: E402

CTX = PrecisionContext()


@pytest.fixture(scope="module")
def phis():
    return {2: modular.phi_recover_exact(2, CTX)}


@pytest.fixture(scope="module")
def readme_scan():
    curve = HERE / "curves" / "readme.txt"
    ok, out = workloads.cli_call(
        ["scan", "--curve", str(curve), "--levels", "2", "--pairs", "1,2;1,3", "--jobs", "1"]
    )()
    assert ok
    return json.loads(out), curve.read_text()


def scan_problems(data, curve_text, phis):
    return checks.check_scan(json.dumps(data), curve_text, "2", "1,2;1,3", phis)


def test_scan_accepts_real_output(readme_scan, phis):
    data, curve_text = readme_scan
    assert sum(1 for r in data["report"]["rows"] if r["pair2"]) == 1  # the double point t - 1
    assert scan_problems(data, curve_text, phis) == []


def test_scan_rejects_changed_t_minpoly(readme_scan, phis):
    data, curve_text = copy.deepcopy(readme_scan[0]), readme_scan[1]
    data["report"]["rows"][0]["t_minpoly"][0] += 1
    assert any("t_minpoly" in p for p in scan_problems(data, curve_text, phis))


def test_scan_rejects_dropped_double_row(readme_scan, phis):
    data, curve_text = copy.deepcopy(readme_scan[0]), readme_scan[1]
    rows = data["report"]["rows"]
    rows.remove(next(r for r in rows if r["pair2"]))
    data["report"]["points"] -= 1
    data["report"]["double_strata"] -= 1
    assert any(p.startswith("missing row") for p in scan_problems(data, curve_text, phis))


def test_scan_rejects_wrong_height(readme_scan, phis):
    data, curve_text = copy.deepcopy(readme_scan[0]), readme_scan[1]
    row = next(r for r in data["report"]["rows"] if r["height_t"] != "0.0")
    row["height_t"] = str(float(row["height_t"]) * (1 + 1e-9))
    assert any("height_t" in p for p in scan_problems(data, curve_text, phis))


def test_failed_scan_report_is_checked(phis):
    # this scan exits 2 on its soundness verdict today; its report is checked all the same
    curve = HERE / "curves" / "cm_values.txt"
    _, out = workloads.cli_call(["scan", "--curve", str(curve), "--levels", "2", "--pairs", "all", "--jobs", "1"])()
    check = workloads.report_check(lambda text: checks.check_scan(text, curve.read_text(), "2", "all", phis))
    assert check(out) == []
    data = json.loads(out)
    data["report"]["rows"][0]["t_minpoly"][0] += 1
    assert any("t_minpoly" in p for p in check(json.dumps(data)))
    assert check("ZeroDivisionError: float division by zero") == []


def test_phi_table_rejects_changed_coefficient(phis):
    coeffs = dict(phis[2].coeffs)
    assert checks.check_phi_table(2, coeffs, random.Random(1)) == []
    coeffs[(1, 1)] += 2  # keeps symmetry and Kronecker's congruence mod 2
    assert any("!= 0" in p for p in checks.check_phi_table(2, coeffs, random.Random(1)))


def test_isogeny_rejects_missing_witness():
    ok, out = workloads.cli_call(["isogeny", "verify", "--tau=0,1", "--degree", "5", "--all-sublattices", "--jobs", "1"])()
    assert ok
    assert checks.check_isogeny(out, "0,1", 5) == []
    data = json.loads(out)
    data["witnesses"].pop(3)
    data["count"] -= 1
    assert checks.check_isogeny(json.dumps(data), "0,1", 5)


def test_periods_rejects_wrong_certificate():
    ok, out = workloads.cli_call(["periods", "--tau=0,1", "--jobs", "1"])()
    assert ok
    assert checks.check_periods(out, "0,1", "i") == []
    data = json.loads(out)
    data["cm"]["disc"] = -16
    assert checks.check_periods(json.dumps(data), "0,1", "i")


@pytest.mark.parametrize(
    "make, i, j",
    [
        (lambda: workloads.relations.synth_first_way(3, CTX), 0, 1),
        (lambda: workloads.relations.synth_second_way(3, CTX), 0, 2),
        (lambda: workloads.relations.synth_four_coordinate(3, CTX), 1, 3),
    ],
)
def test_relations_reject_swapped_H(make, i, j):
    ok, out = workloads.relation_call(make, CTX, 3)()
    assert ok
    smooth = workloads.smooth_coords(out.witness)
    assert checks.check_relation_output(out, smooth) == []
    H = list(out.witness.H)
    H[i], H[j] = H[j], H[i]
    bad = dataclasses.replace(out, witness=dataclasses.replace(out.witness, H=tuple(H)))
    assert checks.check_relation_output(bad, smooth)


def test_relation_cli_rejects_swapped_H_and_bad_point(tmp_path):
    path = tmp_path / "instance.json"
    ok, out = workloads.cli_call(["relations", "n4", "--seed", "4", "--emit-instance", str(path), "--jobs", "1"])()
    assert ok
    assert checks.check_relation_cli(out, path) == []
    data = json.loads(out)
    H = data["witness"]["H"]
    H[0], H[1] = H[1], H[0]
    assert checks.check_relation_cli(json.dumps(data), path)

    ok, back = workloads.cli_call(["check-relation", "--instance", str(path), "--jobs", "1"])()
    assert ok
    assert checks.check_relation_instance(back, path) == []
    data = json.loads(back)
    point = data["nonmembership"]["witness_point"]
    key = "1,1,3"  # coordinate 3 is a CM (determinant-one) coordinate of the n4 instance
    point[key] = "7/5" if point[key] != "7/5" else "9/5"
    assert any("det" in p for p in checks.check_relation_instance(json.dumps(data), path))
