import copy
import hashlib
import json
import math
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import closure_members, shamir_scheme
from test_jsonio import DENSE_DOC, LISTED_PAIR, MALFORMED_FACTORS, malformed_factor_doc

from recone import cli, schemes
from recone.cli import main
from recone.cone import REVector, Violation
from recone.demos import _atom_string
from recone.jsonio import pair_to_json, vector_to_json
from recone.lattice import subsets_in_order
from recone.realize import (
    MAX_SIGMA_ATOMS,
    RealizationResult,
    VerificationReport,
    dense_pair,
    synthesize,
)
from recone.states import Factor, ProductPair

RAY6_DOC = vector_to_json(REVector(3, (1, 0, 0, 1, 1, 1, 1)))
BAD_DOC = vector_to_json(REVector(2, (1, 0, 0.5)))


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_rays_n1(capsys):
    assert main(["rays", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 up-sets" in out
    assert "  1  1" in out


def test_rays_classes_table(capsys):
    assert main(["rays", "--n", "3", "--classes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:9]]
    table = [tuple(int(x) for x in row[1:8]) for row in rows]
    assert table == [
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0, 0, 1),
        (0, 0, 0, 1, 1, 0, 1),
        (0, 0, 0, 1, 1, 1, 1),
        (1, 0, 0, 1, 1, 0, 1),
        (1, 0, 0, 1, 1, 1, 1),
        (1, 1, 0, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1),
    ]
    assert [int(row[8]) for row in rows] == [1, 3, 3, 1, 3, 3, 3, 1]
    assert "8 classes, 18 up-sets in total" in lines[-1]


# SHA-256 of the whole stdout of `recone rays --n 5 --classes` (every class
# row, in class order) and of `recone rays --n 5` (every row, in enumeration
# order); CI compares the output of one process per command to these
RAYS_SHA256 = {
    "classes": "b1c2d64d8f96b33f721294943abf5bf79c8bf316fa4bcdbda9a2110a5c9ac83b",
    "rays": "09cad991fed7ab3c5bb74d954f1ce587665af60e15343a171e742e75966ebc52",
}


def test_rays_classes_n5_scale(capsys):
    start = time.perf_counter()
    assert main(["rays", "--n", "5", "--classes"]) == 0
    assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "208 classes, 7579 up-sets in total"
    assert hashlib.sha256(out.encode()).hexdigest() == RAYS_SHA256["classes"]


def test_rays_n5_output_is_byte_stable(capsys):
    assert main(["rays", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "7579 up-sets"
    assert hashlib.sha256(out.encode()).hexdigest() == RAYS_SHA256["rays"]


def test_rays_rejects_big_n(capsys):
    assert main(["rays", "--n", "6"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_member(tmp_path, capsys):
    path = write(tmp_path, "v.json", RAY6_DOC)
    assert main(["check", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is True
    assert doc["violations"] == []


def test_check_nonmember(tmp_path, capsys):
    path = write(tmp_path, "v.json", BAD_DOC)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["member"] is False
    assert doc["violations"]
    err = json.loads(captured.err)
    assert "error" in err and err["report"] == doc


def test_check_infinite_vector(tmp_path, capsys):
    doc = {"n": 2, "entries": [
        {"parties": [1], "value": "inf"},
        {"parties": [2], "value": 0.0},
        {"parties": [1, 2], "value": "inf"},
    ]}
    path = write(tmp_path, "v.json", doc)
    assert main(["check", path]) == 0
    assert json.loads(capsys.readouterr().out)["infinite_part_ok"] is True


def test_decompose(tmp_path, capsys):
    doc = vector_to_json(REVector(2, (0.5, 0, 2.0)))
    path = write(tmp_path, "v.json", doc)
    assert main(["decompose", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [t["coefficient"] for t in out["terms"]] == [1.5, 0.5]


def test_decompose_nonmember_exits_one(tmp_path, capsys):
    path = write(tmp_path, "v.json", BAD_DOC)
    assert main(["decompose", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "report" in err and err["report"]["violations"]


def test_synthesize_relent_verify_round_trip(tmp_path, capsys):
    vec_path = write(tmp_path, "v.json", RAY6_DOC)
    out_path = str(tmp_path / "pair.json")
    assert main(["synthesize", vec_path, "-o", out_path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_abs_error"] <= 1e-9

    assert main(["relent", out_path]) == 0
    vec = json.loads(capsys.readouterr().out)
    assert vec["entries"][0] == {"parties": [1], "value": 1.0}

    assert main(["verify", vec_path, out_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["monotone_ok"] is True


def test_verify_fails_on_wrong_target(tmp_path, capsys):
    result = synthesize(REVector(2, (0, 0, 1)))
    pair_path = write(tmp_path, "pair.json", pair_to_json(result.pair))
    wrong = write(tmp_path, "w.json", vector_to_json(REVector(2, (0, 0, 2))))
    assert main(["verify", wrong, pair_path]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["failing_subsets"] == ["AB"]
    assert "at subset AB" in json.loads(captured.err)["error"]


def test_verify_names_failed_monotonicity_recheck(tmp_path, capsys, monkeypatch):
    result = synthesize(REVector(2, (0, 0, 1)))
    pair_path = write(tmp_path, "pair.json", pair_to_json(result.pair))
    vector = REVector(2, (0, 0, 1))
    vec_path = write(tmp_path, "v.json", vector_to_json(vector))
    violations = (Violation(0b11, 0b01, 0.5, 0.75), Violation(0b11, 0b10, 0.5, 1.0))
    report = VerificationReport(target=vector, achieved=vector, tol=1e-9, max_abs_error=0.0,
                                monotone_ok=False, violations=violations, passed=False)
    monkeypatch.setattr("recone.cli.verify", lambda *args, **kwargs: report)
    assert main(["verify", vec_path, pair_path]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"]
    assert "monotonicity" in error
    assert "AB = 0.5 < B = 1" in error  # the pair that drops the most
    assert json.loads(captured.out)["worst_violation"] == {
        "superset": [1, 2], "subset": [2], "v_superset": 0.5, "v_subset": 1.0}
    # no pair to name when only +inf entries fail to form an up-set
    report = VerificationReport(target=vector, achieved=vector, tol=1e-9, max_abs_error=0.0,
                                monotone_ok=False, violations=(), passed=False)
    assert main(["verify", vec_path, pair_path]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "achieved vector fails the monotonicity recheck"
    assert "worst_violation" not in json.loads(captured.out)


def test_synthesize_says_which_scheme_realized_each_ray(tmp_path, capsys):
    # 3-of-3 stays XOR (4 atoms against Shamir's 25), 2-of-3 goes Shamir (5 against 8)
    path = write(tmp_path, "v.json", vector_to_json(REVector(3, (0, 0, 0, 2, 2, 2, 3))))
    assert main(["synthesize", path, "-o", str(tmp_path / "pair.json")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["schemes"] == [
        {"kind": "xor", "table_atoms": 4, "candidates": {"xor": 4, "shamir": 25}},
        {"kind": "shamir", "table_atoms": 5, "candidates": {"xor": 8, "shamir": 5}}]
    assert summary["sigma_atoms_log2"] == math.log2(80)


def test_synthesize_over_budget_exits_one(tmp_path, capsys):
    # the factors fit, so only the dense product is refused
    path = write(tmp_path, "v.json", vector_to_json(REVector(4, tuple(range(1, 16)))))
    out = tmp_path / "pair.json"
    assert main(["synthesize", path, "-o", str(out), "--dense"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "predicted sigma support of 2**61.3 atoms" in error  # 2814749767106560000
    assert "budget" in error
    assert not out.exists()


@pytest.mark.parametrize("n", [4, 5])
def test_strictly_monotone_target_through_the_cli(n, tmp_path, capsys):
    # v_S = sum of 2^i over the parties i of S: one level, so one ray, per subset
    doc = vector_to_json(REVector(n, subsets_in_order(n)))
    vec_path = write(tmp_path, "v.json", doc)
    out_path = str(tmp_path / "pair.json")
    for argv in (["synthesize", vec_path, "-o", out_path],
                 ["verify", vec_path, out_path],
                 ["relent", out_path]):
        start = time.perf_counter()
        assert main(argv) == 0, argv
        assert time.perf_counter() - start < 1, argv
    out = capsys.readouterr().out
    assert out.endswith(json.dumps(doc, indent=2) + "\n")  # relent gives v back exactly
    with open(out_path) as f:
        assert len(json.load(f)["factors"]) == (1 << n) - 1
    if n == 4:
        assert main(["synthesize", vec_path, "-o", out_path, "--dense"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        predicted = synthesize(REVector(4, subsets_in_order(4))).pair.sigma_atoms
        assert f"predicted sigma support of 2**{math.log2(predicted):.1f} atoms" in error
        assert f"budget of {MAX_SIGMA_ATOMS} atoms" in error


# the done condition of n = 8 at scale: members drawn without enumerating
# the up-sets, 12 of the 20 with a dense product above MAX_SIGMA_ATOMS
N8_MEMBERS = list(closure_members(8, 8, 20))


@pytest.mark.parametrize("i", range(len(N8_MEMBERS)))
def test_n8_member_round_trips_through_the_cli(i, tmp_path, capsys):
    vec_path = write(tmp_path, "v.json", vector_to_json(N8_MEMBERS[i]))
    out_path = str(tmp_path / "pair.json")
    outputs = []
    start = time.perf_counter()
    for argv in (["synthesize", vec_path, "-o", out_path],
                 ["verify", vec_path, out_path],
                 ["relent", out_path]):
        assert main(argv) == 0, argv
        outputs.append(json.loads(capsys.readouterr().out))
    assert time.perf_counter() - start < 1
    summary, report, achieved = outputs
    assert report["passed"] is True
    assert achieved == summary["achieved"]  # recomputed from the file's forms


def test_dense_synthesis_of_an_over_budget_n8_member_builds_no_table(tmp_path, capsys,
                                                                      monkeypatch):
    target = next(v for v in N8_MEMBERS if synthesize(v).pair.sigma_atoms > MAX_SIGMA_ATOMS)

    def no_tables(self, b):
        raise AssertionError("a share table was built")

    monkeypatch.setattr(schemes.Scheme, "distribution", no_tables)
    vec_path = write(tmp_path, "v.json", vector_to_json(target))
    out = tmp_path / "pair.json"
    assert main(["synthesize", vec_path, "-o", str(out), "--dense"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    predicted = synthesize(target).pair.sigma_atoms
    assert f"predicted sigma support of 2**{math.log2(predicted):.1f} atoms" in error
    assert f"budget of {MAX_SIGMA_ATOMS} atoms" in error
    assert not out.exists()
    # the factored form is written, read back and verified without a table
    assert main(["synthesize", vec_path, "-o", str(out)]) == 0
    assert main(["verify", vec_path, str(out)]) == 0
    assert main(["relent", str(out)]) == 0


def test_a_sigma_past_the_json_digit_limit_is_named_by_its_log2(tmp_path, capsys, monkeypatch):
    # seventy factors of one 8-of-8 gate over GF(2**31 - 1), 2 * q**7 sigma
    # atoms each: the product's sigma, about 2**15 260, has more decimal
    # digits than json.dumps writes (4 300) however a planner sizes a ray
    q = 2 ** 31 - 1
    big = ProductPair(8, (Factor(shamir_scheme(8, [1] * 8, 8, q), Fraction(1, 2)),) * 70)
    assert big.sigma_atoms > 10 ** 4300
    result = synthesize(N8_MEMBERS[0])
    monkeypatch.setattr(cli, "synthesize", lambda v: RealizationResult(
        result.target, result.decomposition, result.plans, big, result.achieved,
        result.max_abs_error))
    vec_path = write(tmp_path, "v.json", vector_to_json(N8_MEMBERS[0]))
    out = tmp_path / "pair.json"
    assert main(["synthesize", vec_path, "-o", str(out), "--dense"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == (f"predicted sigma support of 2**{math.log2(big.sigma_atoms):.1f} atoms "
                     f"exceeds the budget of {MAX_SIGMA_ATOMS} atoms")
    assert "2**15260." in error and not out.exists()
    assert main(["synthesize", vec_path, "-o", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["sigma_atoms_log2"] == math.log2(big.sigma_atoms)
    assert json.loads(out.read_text()) == pair_to_json(big)
    # the summary is built before the pair file is opened: a summary that
    # cannot be written leaves no file
    out.unlink()

    def refused(result):
        raise ValueError("summary refused")

    monkeypatch.setattr(cli, "realization_to_json", refused)
    assert main(["synthesize", vec_path, "-o", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "summary refused"}
    assert not out.exists()


def test_synthesize_dense_writes_one_pair(tmp_path, capsys):
    target = REVector(3, (0, 0, 0, 2, 2, 2, 3))  # two rays, 80 sigma atoms
    vec_path = write(tmp_path, "v.json", vector_to_json(target))
    out_path = tmp_path / "pair.json"
    assert main(["synthesize", vec_path, "-o", str(out_path), "--dense"]) == 0
    summary = json.loads(capsys.readouterr().out)
    written = json.loads(out_path.read_text())
    assert written == pair_to_json(dense_pair(synthesize(target).pair))
    assert len(written["sigma"]) == 80 and summary["sigma_atoms_log2"] == math.log2(80)
    assert main(["verify", vec_path, str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert main(["relent", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out) == vector_to_json(target)


def _factored_doc(edit):
    (factor,) = pair_to_json(synthesize(REVector(2, (0, 0, 1))).pair)["factors"]
    doc = {"n": 2, "factors": [factor, copy.deepcopy(factor)]}
    edit(doc)
    return doc


@pytest.mark.parametrize("edit,needle", [
    (lambda d: d.update(n=3), "factor 1: 'slots' must hold one list of forms per party, 3"),
    (lambda d: d.update(factors=d["factors"][0]), "'factors' must be a list"),
    (lambda d: d.update(rho=[]), "exactly 'n' and 'factors'"),
    # A's packed form set to q ** (R + 1), one digit too many
    (lambda d: d["factors"][1]["slots"][0].__setitem__(0, 4), "factor 2: packed form 4 needs 2"),
], ids=["factor-n", "factors-not-list", "factors-and-rho", "bad-atom-in-factor-2"])
@pytest.mark.parametrize("command", ["relent", "verify"])
def test_malformed_factored_pair_exits_two(command, edit, needle, tmp_path, capsys):
    pair_path = write(tmp_path, "pair.json", _factored_doc(edit))
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(2, (0, 0, 1))))
    argv = ["relent", pair_path] if command == "relent" else ["verify", vec_path, pair_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in json.loads(captured.err)["error"]


@pytest.mark.parametrize("rho", [
    [{"symbols": [0, 0], "p": {"num": 1.9, "den": "2"}},
     {"symbols": [1, 1], "p": {"num": "1", "den": "2"}}],
    [{"symbols": [0, 0], "p": {"num": True, "den": True}}],
    [{"symbols": [0, 0], "p": {"num": " 1_0 ", "den": "\u0661\u0660"}}],
], ids=["float-num", "bool-num-den", "spaced-num-arabic-indic-den"])
def test_relent_refuses_non_string_probabilities(rho, tmp_path, capsys):
    pair_path = write(tmp_path, "pair.json", {
        "n": 2, "alphabet_sizes": [2, 2], "rho": rho,
        "sigma": [{"symbols": [0, 0], "p": {"num": "1", "den": "1"}}]})
    assert main(["relent", pair_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be decimal integer strings" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_refuses_tolerance_outside_zero_to_inf(tol, tmp_path, capsys):
    target = REVector(2, (0, 0, 1))
    pair_path = write(tmp_path, "pair.json", pair_to_json(synthesize(target).pair))
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(2, (0, 0, math.inf))))
    assert main(["verify", vec_path, pair_path, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and nonnegative" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("edit", list(MALFORMED_FACTORS.values()) + [
    lambda f: f.clear() or f.update(copy.deepcopy(DENSE_DOC))],
    ids=list(MALFORMED_FACTORS) + ["dense-pair-object"])
@pytest.mark.parametrize("command", ["relent", "verify"])
def test_malformed_scheme_factor_exits_two(command, edit, tmp_path, capsys):
    pair_path = write(tmp_path, "pair.json", malformed_factor_doc(edit))
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(2, (0, 0, 2))))
    argv = ["relent", pair_path] if command == "relent" else ["verify", vec_path, pair_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("factor 2: ")


def test_too_few_forms_for_the_randomness_exit_two_at_once(tmp_path, capsys):
    # no form, so no rank: refused before any q ** (R + 1) is built
    factor = {"q": 2, "slots": [[], []], "randomness": 10 ** 9, "weight": {"num": "1", "den": "2"}}
    pair_path = write(tmp_path, "pair.json", {"n": 2, "factors": [factor]})
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(2, (0, 0, 1))))
    assert main(["verify", vec_path, pair_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("factor 1: duplicate symbol tuple")


@pytest.mark.parametrize("uncapped", [False, True])
@pytest.mark.parametrize("command", ["relent", "verify"])
def test_form_past_the_int_digit_limit_exits_two(command, uncapped, tmp_path, capsys):
    # json refuses an int of more than 4 300 digits where Python caps them,
    # and the range check refuses it where Python reads it
    doc = _factored_doc(lambda d: d["factors"][1]["slots"][0].__setitem__(0, "FORM"))
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(doc).replace('"FORM"', "1" * 5000))
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(2, (0, 0, 2))))
    argv = ["relent", str(pair_path)] if command == "relent" else ["verify", vec_path, str(pair_path)]
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if uncapped and cap:
        sys.set_int_max_str_digits(0)
    try:
        assert main(argv) == 2
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    if 0 < cap < 5000 and not uncapped:
        assert "for integer string conversion" in error
    else:
        assert error.startswith("factor 2: packed form 1111") and "needs 2 digits in base 2" in error


def test_pair_file_with_coefficient_lists_verifies(tmp_path, capsys):
    # forms as coefficient lists, as files held them before packed ints
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(3, (0, 0, 0, 2, 2, 2, 3))))
    assert main(["verify", vec_path, write(tmp_path, "pair.json", LISTED_PAIR)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_factored_pair_file_round_trip(tmp_path, capsys):
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(2, (0, 0, 1))))
    pair_path = write(tmp_path, "pair.json", _factored_doc(lambda d: None))
    assert main(["relent", pair_path]) == 0
    assert json.loads(capsys.readouterr().out)["entries"][2]["value"] == 2.0
    assert main(["verify", vec_path, pair_path]) == 1  # two factors of 1 bit each


def test_synthesize_refuses_nonmember(tmp_path, capsys):
    path = write(tmp_path, "v.json", BAD_DOC)
    assert main(["synthesize", path, "-o", str(tmp_path / "out.json")]) == 1
    assert "report" in json.loads(capsys.readouterr().err)


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["check", str(path)]) == 2
    assert "nested" in json.loads(capsys.readouterr().err)["error"]


def test_tolerance_policy_from_the_command_line(tmp_path, capsys):
    near = write(tmp_path, "near.json", vector_to_json(REVector(2, (1.0, 0.0, 1.0 - 1e-15))))
    assert main(["check", near]) == 0
    capsys.readouterr()
    tiny = write(tmp_path, "tiny.json", vector_to_json(REVector(1, (1e-17,))))
    assert main(["synthesize", tiny, "-o", str(tmp_path / "pair.json")]) == 0
    assert json.loads(capsys.readouterr().out)["decomposition"]["terms"] == []
    subnormal = write(tmp_path, "sub.json", vector_to_json(REVector(1, (1073.5,))))
    assert main(["synthesize", subnormal, "-o", str(tmp_path / "pair.json")]) == 1
    assert "at subset A" in json.loads(capsys.readouterr().err)["error"]


def test_missing_file_exits_two(capsys):
    assert main(["check", "/nonexistent/v.json"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("argv,needle", [
    (["rays", "--n", "abc"], "invalid int value: 'abc'"),
    (["check"], "the following arguments are required: file"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["rays", "--n", "2", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_error_exits_two_with_one_json_object(argv, needle, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert list(err) == ["error"] and needle in err["error"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["rays", "--help"])
    assert exit_.value.code == 0
    assert "--classes" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["decompose", "synthesize"])
def test_huge_level_exits_two(command, tmp_path, capsys):
    path = write(tmp_path, "v.json", {"n": 1, "entries": [{"parties": [1], "value": 10 ** 400}]})
    extra = ["-o", str(tmp_path / "pair.json")] if command == "synthesize" else []
    assert main([command, path] + extra) == 2
    assert "parties [1]" in json.loads(capsys.readouterr().err)["error"]


def test_level_above_max_ray_bits_exits_one(tmp_path, capsys):
    # a member whose one ray needs a weight below the smallest double; the
    # refusal names the ray's up-set by its minimal sets
    one_party = {"n": 1, "entries": [{"parties": [1], "value": 5000}]}
    three_parties = {"n": 3, "entries": [{"parties": p, "value": v} for p, v in (
        ([1], 0), ([2], 0), ([3], 0), ([1, 2], 5000), ([1, 3], 5000), ([2, 3], 0),
        ([1, 2, 3], 5000))]}
    for doc, generators in ((one_party, "A"), (three_parties, "AB, AC")):
        path = write(tmp_path, "v.json", doc)
        out = tmp_path / "pair.json"
        assert main(["synthesize", path, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert json.loads(captured.err)["error"] == (
            "ray coefficient must be a number of bits in (0, 1074], got 5000, "
            f"on the up-set generated by {generators}")


def test_dimension_mismatch_exits_two(tmp_path, capsys):
    result = synthesize(REVector(2, (0, 0, 1)))
    pair_path = write(tmp_path, "pair.json", pair_to_json(result.pair))
    vec_path = write(tmp_path, "v.json", RAY6_DOC)
    assert main(["verify", vec_path, pair_path]) == 2


@pytest.mark.parametrize("name,needle", [
    ("example5", "A=1  B=0  C=0  AB=1  AC=1  BC=1  ABC=1"),
    ("example6", "AB=1"),
])
def test_demo_vectors(name, needle, capsys):
    assert main(["demo", name]) == 0
    assert needle in capsys.readouterr().out


def test_demo_example5_atom_listings(capsys):
    main(["demo", "example5"])
    out = capsys.readouterr().out
    block = out.split("rho marginal on A:")[1].split("sigma marginal on A:")
    rho_lines = [l.strip() for l in block[0].strip().splitlines()]
    assert rho_lines == ["00  1/5", "12  1/5", "24  1/5", "31  1/5", "43  1/5"]
    sigma_lines = [l.strip() for l in block[1].strip().splitlines()[:10]]
    assert sigma_lines == ["00  1/10", "04  1/10", "11  1/10", "12  1/10", "23  1/10",
                           "24  1/10", "30  1/10", "31  1/10", "42  1/10", "43  1/10"]
    b_block = out.split("rho marginal on B:")[1].split("sigma marginal on B:")
    assert [l.strip() for l in b_block[0].strip().splitlines()] == \
           [f"{i}  1/5" for i in range(5)]


def test_demo_example6_atom_listings(capsys):
    main(["demo", "example6"])
    out = capsys.readouterr().out
    ab = out.split("rho marginal on AB:")[1].split("sigma marginal on AB:")
    assert [l.strip() for l in ab[0].strip().splitlines()] == \
           ["00  1/3", "12  1/3", "21  1/3"]
    sigma_ab = [l.strip() for l in ab[1].split("rho marginal on BC:")[0].strip().splitlines()]
    assert sigma_ab == ["00  1/6", "02  1/6", "11  1/6", "12  1/6", "20  1/6", "21  1/6"]
    bc = out.split("rho marginal on BC:")[1].split("sigma marginal on BC:")
    rho_bc = [l.strip() for l in bc[0].strip().splitlines()]
    assert rho_bc == [f"{a}{b}  1/9" for a in range(3) for b in range(3)]
    sigma_bc = [l.strip() for l in bc[1].strip().splitlines()]
    assert sigma_bc == rho_bc


def test_demo_atom_strings_decode_one_digit_per_slot():
    # A holds two GF(5) slots, B one and C none, so C's register is degenerate
    scheme = shamir_scheme(3, (2, 1, 0), 2, 5)
    assert _atom_string(scheme, 0b111, (7, 3, 0)) == "1230"
    assert _atom_string(scheme, 0b101, (24, 0)) == "440"
    # past ten symbols per slot the digits are set apart
    assert _atom_string(schemes.Scheme(11, [[(1, 1), (0, 1)]], 1), 0b1, (87,)) == "7-10"


DEMO_SHA256 = {
    "example5": "b690ea816829c2eb535fc75c57bdb48ce0fe0054bab712b587b309fee801955d",
    "example6": "0e1ad25d37ceb5ebd47873aa632d504005246118566eae7f4f559f1e43dc3076",
}


def test_demo_output_byte_stable(capsys):
    for name, digest in DEMO_SHA256.items():
        main(["demo", name])
        first = capsys.readouterr().out
        assert hashlib.sha256(first.encode()).hexdigest() == digest, name
        main(["demo", name])
        assert capsys.readouterr().out == first


def test_module_invocation_smoke():
    proc = subprocess.run([sys.executable, "-m", "recone", "rays", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "4 up-sets" in proc.stdout


# Exit codes under mutated documents: two members, a non-member and a
# vector with +inf on an up-set; the first member's factored pair, over
# GF(5) and GF(2), and a dense pair.  DEEP stands for 100 000 nested
# lists, spliced into the file text.
FUZZ_TARGET = REVector(3, (0, 0, 0, 1, 1, 1, 2.5))
FUZZ_VECTORS = [vector_to_json(FUZZ_TARGET), RAY6_DOC, BAD_DOC,
                vector_to_json(REVector(2, (math.inf, 0.0, math.inf)))]
FUZZ_PAIRS = [pair_to_json(synthesize(FUZZ_TARGET).pair), DENSE_DOC]
DEEP = "<deeply nested>"
BAD_VALUES = [None, True, 1.5, -1, 0, 9, "", "x", "inf", "-inf", "NaN", 2 ** 64, 10 ** 400,
              -10 ** 400, [], {}, [[[[0]]]], {"num": "1", "den": "2"}, DEEP]
# values that are wrong in one place only: a party count, a modulus, a weight
BAD_BY_KEY = {"n": [0, 9], "q": [0, 1, 4, 9, 2 ** 31, 2 ** 61 - 1], "randomness": [-1, 10 ** 400],
              "num": ["0", "2", "3", "-1", "1.5", "1" * 5000], "den": ["0", "1", "+2", "1" * 5000],
              "value": ["inf", 1e308, 10 ** 400], "parties": [[0], [9], [1, 1], [2, 1]]}


def _nodes(doc, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw, bases):
    """The JSON text of a base document after one to three edits: a keyed
    value set to one that is wrong in its place, or any node replaced by
    a wrong value, deleted, or, for a list, given one more item."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        keyed = [path for path, _ in nodes if path and path[-1] in BAD_BY_KEY]
        if keyed and draw(st.booleans()):
            path, op = draw(st.sampled_from(keyed)), "replace"
            value = draw(st.sampled_from(BAD_BY_KEY[path[-1]]))
        else:
            path, node = draw(st.sampled_from(nodes))
            op = draw(st.sampled_from(["replace", "delete", "append"]))
            value = draw(st.sampled_from(BAD_VALUES))
        value = copy.deepcopy(value)  # later edits may change it in place
        if not path:
            doc = value if op == "replace" else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "replace":
            parent[path[-1]] = value
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(node, list):
            node.append(draw(st.sampled_from(node)) if node else value)
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("command", ["check", "decompose", "synthesize", "relent", "verify"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_documents_get_a_documented_exit_code(command, data):
    vector = data.draw(mutated_documents(FUZZ_VECTORS) if command != "relent" else st.just(""))
    pair = data.draw(mutated_documents(FUZZ_PAIRS) if command in ("relent", "verify")
                     else st.just(""))
    if command == "verify" and data.draw(st.booleans()):  # one document left intact
        if data.draw(st.booleans()):
            vector = json.dumps(data.draw(st.sampled_from(FUZZ_VECTORS)))
        else:
            pair = json.dumps(data.draw(st.sampled_from(FUZZ_PAIRS)))
    with tempfile.TemporaryDirectory() as tmp:
        v_path, pair_path, out_path = (str(Path(tmp) / name)
                                       for name in ("v.json", "pair.json", "out.json"))
        Path(v_path).write_text(vector)
        Path(pair_path).write_text(pair)
        args = {"relent": [pair_path], "verify": [v_path, pair_path],
                "synthesize": [v_path, "-o", out_path]}.get(command, [v_path])
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command] + args)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert isinstance(json.loads(err), dict) and "error" in json.loads(err)
        assert code == 1 or out == ""
