import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
    arith as arith_module,
    classify as classify_module,
    cli as cli_module,
    construct as construct_module,
    cycleset as cycleset_module,
    jsonio as jsonio_module,
)
from cyclesets.cli import main
from cyclesets.jsonio import cycleset_to_dict, solution_to_dict, spec_to_dict
from cyclesets import (
    ClassificationReport,
    CycleSet,
    CyclicBuildSpec,
    build_elementary_abelian,
    relabel,
    to_solution,
    trivial_cycle_set,
)
from conftest import GOLDEN4_SPEC, GOLDEN4_TABLE


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


def count_scans(monkeypatch):
    """Count the calls of the pair kernel and of the braid witness scan."""
    counts = {}
    for name in ("find_violations", "_braid_witness"):
        real = getattr(cycleset_module, name)
        counts[name] = 0

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cycleset_module, name, counting)
    return counts


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
        for argv, message in [
            ((), "build needs --family or an --input spec file"),
            (("--family", "p2-level2", "--p", "3"),
             "build --family p2-level2 requires --p and --t"),
            (("--family", "elementary-abelian"),
             "build --family elementary-abelian requires --p"),
        ]:
            assert run(capsys, "build", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("--family", "trivial", "--m", str(cli_module.BUILD_MAX_N + 1)),
        ("--family", "trivial", "--m", "1000000"),
        ("--family", "p2-level2", "--p", "37", "--t", "1"),
        ("--family", "elementary-abelian", "--p", "37"),
        ("--family", "elementary-abelian", "--p", "1000000000000000003"),
        ("-i", {"p": 1000000000000000003, "k": 2}),
        ("-i", {"p": 2, "k": 11}),
        ("-i", {"p": 2, "k": 10 ** 18}),
        ("-i", {"p": 1000000000000000003, "k": 0}),
    ])
    def test_size_cap_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # rejected before any work: no primality test, no table
        def no_work(*args):
            raise AssertionError("build ran past its size cap")

        for name in ("trivial_cycle_set", "build_p2_level2",
                     "build_elementary_abelian", "build_prime_power"):
            monkeypatch.setattr(cli_module, name, no_work)
        for module in (arith_module, construct_module):
            monkeypatch.setattr(module, "is_prime", no_work)
        if argv[0] == "-i":
            spec = {**spec_to_dict(GOLDEN4_SPEC), **argv[1]}
            argv = ("-i", write_json(tmp_path / "spec.json", spec))
        code, out, err = run(capsys, "build", *argv)
        assert code == 2 and out == ""
        assert f"at most {cli_module.BUILD_MAX_N} points" in err

    def test_size_cap_admits_its_bound(self, capsys, monkeypatch):
        sizes = []

        def record(m):
            sizes.append(m)
            return trivial_cycle_set(1)

        monkeypatch.setattr(cli_module, "trivial_cycle_set", record)
        n = str(cli_module.BUILD_MAX_N)
        assert run(capsys, "build", "--family", "trivial", "--m", n)[0] == 0
        assert sizes == [cli_module.BUILD_MAX_N]


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

    def test_decomposable_table(self, capsys, tmp_path):
        # 10 disjoint swaps: row x swaps 2(x // 2) and 2(x // 2) + 1.  The
        # group is intransitive and abelian, so its order takes the closure
        table = [[y ^ 1 if y // 2 == x // 2 else y for y in range(20)] for x in range(20)]
        path = write_json(tmp_path / "swaps.json", {"n": 20, "table": table})
        code, out, err = run(capsys, "verify", "-i", path)
        assert (code, err) == (0, "")
        assert out == (
            '{"valid":true,"n":20,"square_free":false,"nondegenerate":true,'
            '"indecomposable":false,"group_order":1024,'
            '"group_type":"abelian-noncyclic","mpl":2,"tower":[20,10,1],'
            '"solution_checks":true}\n'
        )

    def test_corrupted_table_reports_violation_triple(self, capsys, tmp_path, golden4):
        table = [list(r) for r in golden4.table]
        table[0][0], table[0][1] = table[0][1], table[0][0]  # rows stay bijective
        path = write_json(tmp_path / "bad.json", {"n": 4, "table": table})
        code, payload, _ = run_json(capsys, "verify", "-i", path)
        assert code == 1
        assert payload["valid"] is False
        assert any(v["kind"] == "axiom" for v in payload["violations"])

    def test_violations_list_rows_then_triples(self, capsys, tmp_path):
        path = write_json(tmp_path / "bad.json", {"n": 2, "table": [[0, 0], [1, 0]]})
        assert run(capsys, "verify", "-i", path) == (
            1,
            '{"valid":false,"violations":[{"kind":"row","x":0},'
            '{"kind":"axiom","x":0,"y":1,"z":1},{"kind":"axiom","x":1,"y":0,"z":1}]}\n',
            "",
        )

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

    def test_braid_check_runs_once(self, capsys, golden4_file, monkeypatch):
        calls = []
        real = cycleset_module._check_solution

        def counting(sol):
            calls.append(sol.n)
            return real(sol)

        for module in (cycleset_module, cli_module):
            monkeypatch.setattr(module, "_check_solution", counting, raising=False)
        scans = count_scans(monkeypatch)
        code, payload, _ = run_json(capsys, "verify", "-i", golden4_file)
        assert code == 0 and payload["solution_checks"] is True
        assert calls == []
        # the load's axiom check decides the braid identity, by Rump's
        # criterion, so the solution's checks make no second pass
        assert scans == {"find_violations": 1, "_braid_witness": 0}

    def test_verify_reports_a_faulty_solution(self, capsys, golden4_file,
                                              monkeypatch):
        # involutive, but of another table; and of this table, not involutive
        shift = to_solution(trivial_cycle_set(4))
        golden = to_solution(CycleSet(GOLDEN4_TABLE))
        for faulty in (shift, cycleset_module.Solution(golden.lam, shift.rho)):
            monkeypatch.setattr(cli_module, "to_solution", lambda X, sol=faulty: sol)
            code, payload, _ = run_json(capsys, "verify", "-i", golden4_file)
            assert code == 0 and payload["solution_checks"] is False

    def test_invert_runs_braid_check_once(self, capsys, golden4_file, tmp_path,
                                          monkeypatch):
        calls = []
        real = cycleset_module._check_solution

        def counting(sol):
            calls.append(sol.n)
            return real(sol)

        for module in (cycleset_module, jsonio_module, cli_module):
            monkeypatch.setattr(module, "_check_solution", counting, raising=False)
        code, out, _ = run(capsys, "solution", "-i", golden4_file)
        assert code == 0
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(out)
        scans = count_scans(monkeypatch)
        code, payload, _ = run_json(capsys, "solution", "-i", str(sol_path), "--invert")
        assert code == 0
        assert payload == {"n": 4, "table": [list(r) for r in GOLDEN4_TABLE]}
        assert calls == [4]
        assert scans == {"find_violations": 1, "_braid_witness": 0}

    def test_structural_errors_are_usage_errors(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "verify", "-i", str(path))[0] == 2
        path2 = write_json(tmp_path / "nokey.json", {"n": 2})
        assert run(capsys, "verify", "-i", str(path2))[0] == 2
        assert run(capsys, "verify", "-i", str(tmp_path / "missing.json"))[0] == 2
        assert run(capsys, "verify")[0] == 2  # no --input
        n_error = (2, "", 'error: "n" must match the number of rows\n')
        path3 = write_json(tmp_path / "booln.json", {"n": True, "table": [[0]]})
        assert run(capsys, "verify", "-i", path3) == n_error
        path4 = write_json(
            tmp_path / "boolsol.json", {"n": True, "lambda": [[0]], "rho": [[0]]}
        )
        assert run(capsys, "solution", "-i", path4, "--invert") == n_error

    @pytest.mark.parametrize("argv", [
        ("verify", "-i", "DEEP"),
        ("retract", "-i", "DEEP"),
        ("solution", "-i", "DEEP"),
        ("solution", "--invert", "-i", "DEEP"),
        ("iso", "DEEP", "DEEP"),
        ("build", "-i", "DEEP"),
    ])
    def test_deeply_nested_json_is_a_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = [str(path) if arg == "DEEP" else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no limit on the digits of an integer",
    )
    @pytest.mark.parametrize("argv", [
        ("verify", "-i", "BIG"),
        ("retract", "-i", "BIG"),
        ("solution", "-i", "BIG"),
        ("solution", "--invert", "-i", "BIG"),
        ("iso", "BIG", "BIG"),
        ("build", "-i", "BIG"),
    ])
    def test_oversized_integer_is_a_usage_error(self, capsys, tmp_path, argv):
        # past Python's digit limit, int() raises a plain ValueError
        digits = sys.get_int_max_str_digits() + 1
        path = tmp_path / "big.json"
        path.write_text('{"n": 1, "table": [[' + "1" * digits + "]]}")
        argv = [str(path) if arg == "BIG" else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid JSON: Exceeds the limit")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("argv", [
        ("verify", "-i", "BAD"),
        ("retract", "-i", "BAD"),
        ("solution", "-i", "BAD"),
        ("solution", "--invert", "-i", "BAD"),
        ("iso", "BAD", "GOOD"),
        ("iso", "GOOD", "BAD"),
        ("build", "-i", "BAD"),
    ])
    def test_non_utf8_input_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                             golden4_file, argv, source):
        data = b"\xff\xfe{}"
        if source == "file":
            bad = tmp_path / "bad.json"
            bad.write_bytes(data)
            bad = str(bad)
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            bad = "-"
        argv = [{"BAD": bad, "GOOD": golden4_file}.get(arg, arg) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "is not valid UTF-8" in err

    def test_stdin_input(self, capsys, monkeypatch):
        payload = json.dumps({"n": 4, "table": [list(r) for r in GOLDEN4_TABLE]})
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode("utf-8")))
        )
        code, result, _ = run_json(capsys, "verify", "-i", "-")
        assert code == 0 and result["valid"] is True and result["mpl"] == 2


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

    def test_both_tables_from_stdin_is_a_usage_error(self, capsys, monkeypatch):
        # standard input holds one payload, so the second read would see none
        payload = json.dumps({"n": 4, "table": [list(r) for r in GOLDEN4_TABLE]})
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode("utf-8")))
        )
        code, out, err = run(capsys, "iso", "-", "-")
        assert (code, out) == (2, "")
        assert err == "error: only one of the two tables can come from standard input\n"

    def test_large_decomposable_pair(self, capsys, monkeypatch, tmp_path):
        # the search ran out of recursion depth here; validating the tables
        # takes most of a minute, so the loader checks their rows only
        monkeypatch.setattr(jsonio_module, "validate", CycleSet)
        identity = {"n": 1000, "table": [list(range(1000))] * 1000}
        a = write_json(tmp_path / "a.json", identity)
        b = write_json(tmp_path / "b.json", identity)
        code, payload, err = run_json(capsys, "iso", a, b)
        assert (code, err) == (0, "")
        assert payload == {"isomorphic": True, "witness": list(range(1000))}


LOADERS = [
    ("verify", "-i", "PAYLOAD"),
    ("retract", "-i", "PAYLOAD"),
    ("solution", "-i", "PAYLOAD"),
    ("solution", "--invert", "-i", "PAYLOAD"),
    ("iso", "PAYLOAD", "PAYLOAD"),
]
LOADER_IDS = ["verify", "retract", "solution", "solution-invert", "iso"]


class TestLoaderSizeCap:
    # the cap reads the row count only, so short rows stand in for full ones
    def argv_with_payload(self, tmp_path, argv, n):
        rows = [[0]] * n
        payload = {"lambda": rows, "rho": rows} if "--invert" in argv else {"table": rows}
        path = write_json(tmp_path / "big.json", payload)
        return [path if a == "PAYLOAD" else a for a in argv]

    @pytest.mark.parametrize("argv", LOADERS, ids=LOADER_IDS)
    def test_over_the_cap_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # rejected before any validation: no axiom check, no bijectivity check
        def no_work(*args):
            raise AssertionError("a loader ran past its size cap")

        monkeypatch.setattr(jsonio_module, "validate", no_work)
        monkeypatch.setattr(cli_module, "Solution", no_work)
        argv = self.argv_with_payload(tmp_path, argv, cli_module.BUILD_MAX_N + 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {argv[0]} is limited to tables of at most "
            f"{cli_module.BUILD_MAX_N} points\n"
        )

    @pytest.mark.parametrize("argv", LOADERS, ids=LOADER_IDS)
    def test_cap_admits_its_bound(self, monkeypatch, tmp_path, argv):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached(len(args[0]))

        monkeypatch.setattr(jsonio_module, "validate", reached)
        monkeypatch.setattr(cli_module, "Solution", reached)
        with pytest.raises(Reached) as err:
            main(self.argv_with_payload(tmp_path, argv, cli_module.BUILD_MAX_N))
        assert err.value.args == (cli_module.BUILD_MAX_N,)


class TestClassifyAndEnumerate:
    @pytest.mark.parametrize("flag,p,v,digest", [
        ("--q", 3, 3, "b6fd70d2e3db5eb11ad2b2cf5b2c6369d832ed4548590dcd2d1ca2f6dfccf846"),
        ("--q", 7, 7, "aa43c4a4d50e5940c26dea55b958d6804389eab5d85ca7d243c7a19d5be5eb67"),
        ("--q", 11, 11, "335ba6c924248e8ee26a0da680845702e34974773ff69bc710ebe5828d8cad91"),
        ("--k", 3, 3, "deaf6ad88360b4608be3058c2b8add9081f0cff83433deb679c0f1a5c9ec1229"),
        ("--k", 7, 2, "bc21af08163f565948069b29c6df05dafd56f8abe33bb38688c3c45ffd14285a"),
        ("--k", 2, 4, "988f54d152b8b0044d05c1281101ef8eb9a614a40aa5c2c692392e4cbd86893e"),
        ("--k", 5, 2, "976acb121d4c1cf6f38c39c5e41c8c7b47d49a4ff55f6c99ecea2f20a7344700"),
    ])
    def test_report_bytes(self, capsys, flag, p, v, digest):
        # the sha256 of stdout that the classify-reports benchmark records
        code, out, err = run(capsys, "classify", "--p", str(p), flag, str(v))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("argv", [
        ("--p", "17", "--q", "17"),
        ("--p", "2", "--q", "89"),
        ("--p", "1000000000000000003", "--q", "2"),
        ("--p", "2", "--q", "1000000000000000003"),
        ("--p", "1000000000000000003", "--q", "0"),
        ("--p", "2", "--k", "8"),
        ("--p", "3", "--k", "5"),
        ("--p", "2", "--k", str(10 ** 18)),
        ("--p", "1000000000000000003", "--k", "1"),
    ])
    def test_classify_size_cap_is_a_usage_error(self, capsys, monkeypatch, argv):
        # rejected before any work: no primality test, no spec, no table
        def no_work(*args, **kwargs):
            raise AssertionError("classify ran past its size cap")

        for name in ("trivial_cycle_set", "build_p2_level2", "build_elementary_abelian",
                     "build_prime_power", "enumerate_specs", "is_prime"):
            monkeypatch.setattr(classify_module, name, no_work)
        monkeypatch.setattr(arith_module, "is_prime", no_work)
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2 and out == ""
        assert f"at most {cli_module.CLASSIFY_MAX_N} points" in err

    @pytest.mark.parametrize("argv,call", [
        (("--p", "13", "--q", "13"), ("pq", 13, 13)),
        (("--p", "2", "--q", "83"), ("pq", 2, 83)),
        (("--p", "13", "--k", "2"), ("k", 13, 2)),
        (("--p", "2", "--k", "7"), ("k", 2, 7)),
    ])
    def test_classify_size_cap_admits_its_bound(self, capsys, monkeypatch, argv, call):
        calls = []

        def record(kind):
            def classify(p, other, max_candidates):
                calls.append((kind, p, other))
                return ClassificationReport(1, "any", (), ())
            return classify

        monkeypatch.setattr(cli_module, "classify_pq", record("pq"))
        monkeypatch.setattr(cli_module, "classify_cyclic_prime_power", record("k"))
        assert cli_module.CLASSIFY_MAX_N == 13 ** 2
        assert run(capsys, "classify", *argv)[0] == 0
        assert calls == [call]

    @pytest.mark.parametrize("argv", [
        ("enumerate", "4", "--budget", "0"),
        ("classify", "--p", "3", "--q", "3", "--budget", "-5"),
        ("enumerate", "0"),
        ("build", "--family", "trivial", "--m", "0"),
    ])
    def test_non_positive_sizes_and_budgets_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "must be a positive integer" in err

    @pytest.mark.parametrize("argv", [
        ("classify", "--p", "3", "--k", "2", "--budget", "x"),
        ("lemma2", "--p", "x"),
    ])
    def test_non_integer_arguments_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid integer: 'x'" in err

    def test_enumerate_full(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "2", "--mode", "full")
        assert code == 0
        assert payload["count"] == 2
        assert len(payload["structures"]) == 2

    def test_enumerate_one_point(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "1", "--count")
        assert code == 0 and payload["count"] == 1

    @pytest.mark.parametrize("mode,name", [
        ("full", "full-bruteforce"),
        ("regular-abelian", "regular-abelian-restricted"),
        ("spec", "spec-parameterized"),
    ])
    def test_enumerate_one_point_bytes(self, capsys, mode, name):
        code, out, err = run(capsys, "enumerate", "1", "--mode", mode)
        assert (code, err) == (0, "")
        assert out == (
            f'{{"n":1,"mode":"{name}","count":1,'
            '"structures":[{"n":1,"table":[[0]]}]}\n'
        )

    def test_enumerate_count_only(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "4", "--count")
        assert code == 0
        assert payload["count"] == 20
        assert "structures" not in payload

    def test_enumerate_spec_mode(self, capsys):
        # the shift plus the single admissible spec
        code, payload, _ = run_json(capsys, "enumerate", "4", "--mode", "spec")
        assert code == 0 and payload["count"] == len(payload["structures"]) == 2

    def test_enumerate_spec_mode_rejects_non_prime_power(self, capsys):
        code, out, err = run(capsys, "enumerate", "6", "--mode", "spec")
        assert (code, err) == (1, "")
        assert out == '{"error":"spec-parameterized mode requires a prime-power size"}\n'

    def test_enumerate_spec_mode_budget_message(self, capsys):
        code, out, err = run(capsys, "enumerate", "8", "--mode", "spec", "--budget", "3")
        assert (code, err) == (1, "")
        assert out == (
            '{"error":"spec enumeration at (p, k) = (2, 3) used up its budget of 3 '
            'expansions while lifting exponent chain (3, 2, 0) at size 2^3"}\n'
        )

    @pytest.mark.parametrize("n,mode,cap", [
        ("170", "spec", 169),
        ("1000003", "spec", 169),
        ("7", "full", 6),
        ("26", "regular-abelian", 25),
    ])
    def test_enumerate_size_cap_is_a_usage_error(self, capsys, monkeypatch, n, mode,
                                                 cap):
        # rejected before any work: no search, no spec, no table (the oracle's
        # own cap, behind this one, is checked by TestSearchConfig)
        def no_work(*args, **kwargs):
            raise AssertionError("enumerate ran past its size cap")

        for name in ("_spec_family", "prime_power", "brute_force_enumerate"):
            monkeypatch.setattr(cli_module, name, no_work)
        code, out, err = run(capsys, "enumerate", n, "--mode", mode, "--count")
        assert code == 2 and out == ""
        assert f"at most {cap} points" in err

    # full mode's bound, n = 6, takes about 14 s, so CI checks it instead
    @pytest.mark.parametrize("n,mode,count", [("5", "full", 2640), ("169", "spec", 13)])
    def test_enumerate_size_cap_admits_its_bound(self, capsys, n, mode, count):
        code, payload, _ = run_json(capsys, "enumerate", n, "--mode", mode, "--count")
        assert code == 0 and payload["count"] == count

    @pytest.mark.parametrize("argv", [
        ("classify", "--p", "3", "--q", "3"),
        ("classify", "--p", "2", "--k", "4"),
        ("enumerate", "4", "--mode", "full"),
        ("enumerate", "8", "--mode", "regular-abelian"),
        ("classify", "--p", "3", "--k", "3"),
        ("retract", "-i", "GOLDEN4"),  # the golden4 table, written to a file
        ("verify", "-i", "GOLDEN4"),
        ("iso", "GOLDEN4", "RELABELED4"),  # golden4 relabeled by (2, 0, 3, 1)
        ("solution", "-i", "GOLDEN4"),
        ("solution", "--invert", "-i", "SOLUTION4"),  # golden4's solution
        ("build", "--family", "elementary-abelian", "--p", "5"),
        ("enumerate", "12"),
        ("enumerate", "27", "--mode", "spec"),  # builds and validates all 8 specs
    ])
    def test_reports_are_identical_across_hash_seeds(self, argv, golden4, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        files = {
            "GOLDEN4": cycleset_to_dict(golden4),
            "RELABELED4": cycleset_to_dict(relabel(golden4, (2, 0, 3, 1))),
            "SOLUTION4": solution_to_dict(to_solution(golden4)),
        }
        argv = [
            write_json(tmp_path / f"{arg}.json", files[arg]) if arg in files else arg
            for arg in argv
        ]
        outputs = []
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            path = filter(None, (src, env.get("PYTHONPATH")))
            env["PYTHONPATH"] = os.pathsep.join(path)
            proc = subprocess.run(
                [sys.executable, "-m", "cyclesets.cli", *argv],
                env=env, capture_output=True, timeout=120, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] and outputs.count(outputs[0]) == len(outputs)

    def test_lemma2(self, capsys):
        code, payload, _ = run_json(capsys, "lemma2", "--p", "3")
        assert code == 0
        assert payload == {"p": 3, "functions": [[0, 1, 2], [0, 2, 1]]}

    def test_lemma2_composite_is_rejected(self, capsys):
        code, payload, _ = run_json(capsys, "lemma2", "--p", "4")
        assert code == 1

    @pytest.mark.parametrize("p", [cli_module.LEMMA2_MAX_P + 1, 10 ** 12 + 39])
    def test_lemma2_size_cap_is_a_usage_error(self, capsys, monkeypatch, p):
        # rejected before any work: no primality test, no table
        def no_work(p):
            raise AssertionError("lemma2 ran past its size cap")

        monkeypatch.setattr(cli_module, "compatible_bijections", no_work)
        code, out, err = run(capsys, "lemma2", "--p", str(p))
        assert code == 2 and out == ""
        assert f"must be at most {cli_module.LEMMA2_MAX_P}" in err


class TestRetract:
    def test_tower_payload(self, capsys, golden4_file):
        code, payload, _ = run_json(capsys, "retract", "-i", golden4_file)
        assert code == 0
        assert payload["sizes"] == [4, 2, 1]
        assert payload["mpl"] == 2
        assert payload["steps"][0]["projection"] == [0, 1, 0, 1]
        assert payload["steps"][0]["quotient"]["n"] == 2


class TestInputOption:
    @pytest.mark.parametrize("argv", [
        ("iso", "TABLE", "TABLE"),
        ("classify", "--p", "3", "--q", "3"),
        ("enumerate", "3"),
        ("lemma2", "--p", "3"),
    ])
    @pytest.mark.parametrize("flag", ["-i", "--input"])
    def test_rejected_where_nothing_reads_it(self, capsys, golden4_file, argv, flag):
        argv = [golden4_file if arg == "TABLE" else arg for arg in argv]
        code, out, err = run(capsys, *argv, flag, golden4_file)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command", ["verify", "build", "retract", "solution"])
    def test_read_where_accepted(self, capsys, tmp_path, golden4_file, command):
        if command == "build":
            path = write_json(tmp_path / "spec.json", spec_to_dict(GOLDEN4_SPEC))
        else:
            path = golden4_file
        code, _, err = run(capsys, command, "-i", path)
        assert (code, err) == (0, "")


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

    def test_unwritable_output_is_an_io_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "out.json"
        code, stdout, err = run(
            capsys, "build", "--family", "trivial", "--m", "3", "-o", str(out)
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error: [Errno 2]")

    def test_closed_stdout_is_an_io_error(self):
        # about 206 KB of JSON, more than a pipe holds, so the write meets
        # the closed pipe whatever the timing
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclesets.cli", "enumerate", "5", "--mode", "full"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(300).startswith(b'{"n":5,"mode":"full-bruteforce"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        # no traceback, and nothing more at interpreter exit
        assert proc.wait(timeout=120) == 2
        assert err.splitlines() == ["error: [Errno 32] Broken pipe"]

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, out, err = run(capsys)
        assert (code, out) == (2, "")
        assert "the following arguments are required: command" in err


# JSON values of at most 6 rows, with keys that the loaders look for
_KEYS = st.sampled_from(["n", "table", "lambda", "rho", "p", "k", "level",
                         "exponents", "digit_functions"]) | st.text(max_size=3)
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 8) | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=3))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(_KEYS, inner, max_size=6),
    max_leaves=12,
)
_VALID = [
    cycleset_to_dict(CycleSet(GOLDEN4_TABLE)),
    cycleset_to_dict(trivial_cycle_set(3)),
    cycleset_to_dict(build_elementary_abelian(2)),
    solution_to_dict(to_solution(CycleSet(GOLDEN4_TABLE))),
    spec_to_dict(GOLDEN4_SPEC),
    spec_to_dict(CyclicBuildSpec(2, 2, 2, (2, 1, 0), ((0, 0),))),
]


@st.composite
def _mutated(draw, value):
    """A copy of ``value`` with one entry somewhere inside it replaced,
    deleted or duplicated, or the whole value replaced."""
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        out = value.copy()
        key = draw(st.sampled_from(range(len(out)) if isinstance(out, list) else list(out)))
        op = draw(st.sampled_from(["descend", "delete", "duplicate"]))
        if op == "delete":
            del out[key]
        elif op == "duplicate" and isinstance(out, list):
            out.insert(key, out[key])
        else:
            out[key] = draw(_mutated(out[key]))
        return out
    return draw(st.integers(-1, 6) | _JSON)


_PAYLOADS = st.one_of(
    _JSON,
    st.sampled_from(_VALID),
    st.sampled_from(_VALID).flatmap(_mutated),
    st.sampled_from(_VALID).flatmap(_mutated).flatmap(_mutated),
)
_COMMANDS = [
    ("verify", "-i", "IN"),
    ("retract", "-i", "IN"),
    ("solution", "-i", "IN"),
    ("solution", "--invert", "-i", "IN"),
    ("iso", "IN", "GOLDEN4"),
    ("iso", "IN", "IN"),
    ("build", "-i", "IN"),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_json(path / "golden4.json", {"n": 4, "table": [list(r) for r in GOLDEN4_TABLE]})
    return path


@settings(max_examples=200, deadline=None)
@given(argv=st.sampled_from(_COMMANDS), payload=_PAYLOADS)
def test_loaders_end_in_a_documented_exit_code(fuzz_dir, argv, payload):
    files = {"IN": write_json(fuzz_dir / "in.json", payload),
             "GOLDEN4": str(fuzz_dir / "golden4.json")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([files.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
