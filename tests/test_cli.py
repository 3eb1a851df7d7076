import json
import subprocess
import sys

import pytest

from recone.cli import main
from recone.cone import REVector, Violation
from recone.jsonio import pair_to_json, vector_to_json
from recone.realize import VerificationReport, synthesize

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
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is False
    assert doc["violations"]


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
    vec_path = write(tmp_path, "v.json", vector_to_json(REVector(2, (0, 0, 1))))
    violations = (Violation(0b11, 0b01, 0.5, 0.75), Violation(0b11, 0b10, 0.5, 1.0))
    report = VerificationReport(n=2, tol=1e-9, deviations=(), max_abs_error=0.0,
                                monotone_ok=False, violations=violations, passed=False)
    monkeypatch.setattr("recone.cli.verify", lambda *args, **kwargs: report)
    assert main(["verify", vec_path, pair_path]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"]
    assert "monotonicity" in error
    assert "AB = 0.5 < B = 1" in error  # the pair that drops the most
    assert json.loads(captured.out)["worst_violation"] == {
        "superset": [1, 2], "subset": [2], "v_superset": 0.5, "v_subset": 1.0}


def test_synthesize_refuses_nonmember(tmp_path, capsys):
    path = write(tmp_path, "v.json", BAD_DOC)
    assert main(["synthesize", path, "-o", str(tmp_path / "out.json")]) == 1
    assert "report" in json.loads(capsys.readouterr().err)


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_missing_file_exits_two(capsys):
    assert main(["check", "/nonexistent/v.json"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["decompose", "synthesize"])
def test_huge_level_exits_two(command, tmp_path, capsys):
    path = write(tmp_path, "v.json", {"n": 1, "entries": [{"parties": [1], "value": 10 ** 400}]})
    extra = ["-o", str(tmp_path / "pair.json")] if command == "synthesize" else []
    assert main([command, path] + extra) == 2
    assert "parties [1]" in json.loads(capsys.readouterr().err)["error"]


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


def test_demo_output_byte_stable(capsys):
    main(["demo", "example6"])
    first = capsys.readouterr().out
    main(["demo", "example6"])
    assert capsys.readouterr().out == first


def test_module_invocation_smoke():
    proc = subprocess.run([sys.executable, "-m", "recone", "rays", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "4 up-sets" in proc.stdout
