import json

import pytest

from cyclesets.cli import main
from cyclesets.jsonio import cycleset_to_dict
from cyclesets import relabel, trivial_cycle_set
from conftest import GOLDEN4_TABLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def golden4_file(tmp_path, golden4):
    return write_json(tmp_path / "golden4.json", cycleset_to_dict(golden4))


class TestBuild:
    def test_p2_level2_matches_golden(self, capsys):
        code, payload, _ = run_json(
            capsys, "build", "--family", "p2-level2", "--p", "2", "--t", "1"
        )
        assert code == 0
        assert payload == {"n": 4, "table": [list(r) for r in GOLDEN4_TABLE]}

    def test_trivial(self, capsys):
        code, payload, _ = run_json(capsys, "build", "--family", "trivial", "--m", "6")
        assert code == 0
        assert payload == cycleset_to_dict(trivial_cycle_set(6))

    def test_elementary_abelian(self, capsys):
        code, payload, _ = run_json(
            capsys, "build", "--family", "elementary-abelian", "--p", "3"
        )
        assert code == 0 and payload["n"] == 9

    def test_prime_power_from_spec_file(self, capsys, tmp_path, golden8):
        spec_path = write_json(
            tmp_path / "spec.json",
            {
                "p": 2,
                "k": 3,
                "level": 2,
                "exponents": [3, 1, 0],
                "digit_functions": [[0, 2]],
            },
        )
        code, payload, _ = run_json(capsys, "build", "--input", spec_path)
        assert code == 0
        assert payload == cycleset_to_dict(golden8)

    def test_mistyped_spec_is_a_usage_error(self, capsys, tmp_path):
        spec_path = write_json(
            tmp_path / "spec.json",
            {"p": 2, "k": 2, "level": 2, "exponents": [2, 1, 0],
             "digit_functions": [[0, "a"]]},
        )
        code, _, err = run(capsys, "build", "--input", spec_path)
        assert code == 2 and "digit_functions" in err

    def test_inadmissible_spec_is_mathematical_rejection(self, capsys, tmp_path):
        spec_path = write_json(
            tmp_path / "bad.json",
            {
                "p": 3,
                "k": 2,
                "level": 2,
                "exponents": [2, 1, 0],
                "digit_functions": [[0, 0, 0]],
            },
        )
        code, payload, _ = run_json(capsys, "build", "--input", spec_path)
        assert code == 1
        assert "error" in payload

    def test_missing_parameters_are_usage_errors(self, capsys):
        code, _, err = run(capsys, "build", "--family", "trivial")
        assert code == 2 and "requires" in err


class TestVerify:
    def test_valid_table(self, capsys, golden4_file):
        code, payload, _ = run_json(capsys, "verify", "-i", golden4_file)
        assert code == 0
        assert payload["valid"] is True
        assert payload["mpl"] == 2
        assert payload["tower"] == [4, 2, 1]
        assert payload["group_type"] == "cyclic"
        assert payload["indecomposable"] is True
        assert payload["solution_checks"] is True

    def test_corrupted_table_reports_violation_triple(self, capsys, tmp_path, golden4):
        table = [list(r) for r in golden4.table]
        table[0][0], table[0][1] = table[0][1], table[0][0]  # rows stay bijective
        path = write_json(tmp_path / "bad.json", {"n": 4, "table": table})
        code, payload, _ = run_json(capsys, "verify", "-i", path)
        assert code == 1
        assert payload["valid"] is False
        assert any(v["kind"] == "axiom" for v in payload["violations"])

    def test_build_verify_roundtrip_for_every_family(self, capsys, tmp_path):
        builds = [
            ("--family", "trivial", "--m", "5"),
            ("--family", "p2-level2", "--p", "3", "--t", "2"),
            ("--family", "elementary-abelian", "--p", "2"),
        ]
        for i, args in enumerate(builds):
            out_path = tmp_path / f"t{i}.json"
            code, _, _ = run(capsys, "build", *args, "-o", str(out_path))
            assert code == 0
            code, payload, _ = run_json(capsys, "verify", "-i", str(out_path))
            assert code == 0 and payload["valid"] is True

    def test_structural_errors_are_usage_errors(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "verify", "-i", str(path))[0] == 2
        path2 = write_json(tmp_path / "nokey.json", {"n": 2})
        assert run(capsys, "verify", "-i", str(path2))[0] == 2
        assert run(capsys, "verify", "-i", str(tmp_path / "missing.json"))[0] == 2
        assert run(capsys, "verify")[0] == 2  # no --input


class TestSolution:
    def test_invert_restores_input_bytes(self, capsys, golden4_file, tmp_path):
        code, out, _ = run(capsys, "solution", "-i", golden4_file)
        assert code == 0
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(out)
        code, table_out, _ = run(capsys, "solution", "-i", str(sol_path), "--invert")
        assert code == 0
        code, build_out, _ = run(
            capsys, "build", "--family", "p2-level2", "--p", "2", "--t", "1"
        )
        assert table_out == build_out

    def test_solution_payload_shape(self, capsys, golden4_file):
        code, payload, _ = run_json(capsys, "solution", "-i", golden4_file)
        assert code == 0
        assert set(payload) == {"n", "lambda", "rho"}

    def test_invalid_solution_rejected(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "sol.json",
            {"n": 2, "lambda": [[0, 1], [0, 1]], "rho": [[1, 0], [1, 0]]},
        )
        code, payload, _ = run_json(capsys, "solution", "-i", path, "--invert")
        assert code == 1 and "error" in payload


class TestIso:
    def test_isomorphic_pair(self, capsys, tmp_path, golden4):
        a = write_json(tmp_path / "a.json", cycleset_to_dict(golden4))
        b = write_json(
            tmp_path / "b.json", cycleset_to_dict(relabel(golden4, (2, 0, 3, 1)))
        )
        code, payload, _ = run_json(capsys, "iso", a, b)
        assert code == 0
        assert payload["isomorphic"] is True
        witness = payload["witness"]
        ta, tb = golden4.table, relabel(golden4, (2, 0, 3, 1)).table
        for x in range(4):
            for y in range(4):
                assert witness[ta[x][y]] == tb[witness[x]][witness[y]]

    def test_non_isomorphic_pair(self, capsys, tmp_path, golden4):
        a = write_json(tmp_path / "a.json", cycleset_to_dict(golden4))
        b = write_json(tmp_path / "b.json", cycleset_to_dict(trivial_cycle_set(4)))
        code, payload, _ = run_json(capsys, "iso", a, b)
        assert code == 1
        assert payload == {"isomorphic": False}


class TestClassifyAndEnumerate:
    def test_pq_classification(self, capsys):
        code, payload, _ = run_json(capsys, "classify", "--p", "2", "--q", "3")
        assert code == 0
        assert len(payload["classes"]) == 1
        assert payload["classes"][0]["mpl"] == 1

    def test_prime_power_classification(self, capsys):
        code, payload, _ = run_json(capsys, "classify", "--p", "3", "--k", "2")
        assert code == 0
        assert len(payload["classes"]) == 3

    def test_classify_requires_q_or_k(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "2")
        assert code == 2 and "classify" in err
        code, _, err = run(capsys, "classify", "--p", "2", "--q", "3", "--k", "2")
        assert code == 2

    def test_budget_exhaustion_is_reported(self, capsys):
        code, payload, _ = run_json(
            capsys, "enumerate", "4", "--budget", "3", "--count"
        )
        assert code == 1 and "budget" in payload["error"]

    def test_enumerate_full(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "2", "--mode", "full")
        assert code == 0
        assert payload["count"] == 2
        assert len(payload["structures"]) == 2

    def test_enumerate_one_point(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "1", "--count")
        assert code == 0 and payload["count"] == 1

    def test_enumerate_count_only(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "4", "--count")
        assert code == 0
        assert payload["count"] == 20
        assert "structures" not in payload

    def test_enumerate_spec_mode_rejects_non_prime_power(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "6", "--mode", "spec")
        assert code == 1 and "error" in payload

    def test_lemma2(self, capsys):
        code, payload, _ = run_json(capsys, "lemma2", "--p", "3")
        assert code == 0
        assert payload == {"p": 3, "functions": [[0, 1, 2], [0, 2, 1]]}

    def test_lemma2_composite_is_rejected(self, capsys):
        code, payload, _ = run_json(capsys, "lemma2", "--p", "4")
        assert code == 1


class TestRetract:
    def test_tower_payload(self, capsys, golden4_file):
        code, payload, _ = run_json(capsys, "retract", "-i", golden4_file)
        assert code == 0
        assert payload["sizes"] == [4, 2, 1]
        assert payload["mpl"] == 2
        assert payload["steps"][0]["projection"] == [0, 1, 0, 1]
        assert payload["steps"][0]["quotient"]["n"] == 2


class TestOutputModes:
    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        code, stdout, _ = run(
            capsys, "build", "--family", "trivial", "--m", "3", "-o", str(out)
        )
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["n"] == 3

    def test_pretty_table_rendering(self, capsys, golden4_file):
        code, out, _ = run(capsys, "verify", "-i", golden4_file, "--pretty")
        assert code == 0  # report payload, pretty falls back to indented JSON
        code, out, _ = run(
            capsys, "build", "--family", "p2-level2", "--p", "2", "--t", "1", "--pretty"
        )
        assert code == 0
        assert "sigma[0] = (0 1 2 3)" in out
        assert "sigma[1] = (0 3 2 1)" in out

    def test_pretty_report_rendering(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "2", "--q", "2", "--pretty")
        assert code == 0
        assert "3 classes" in out

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
