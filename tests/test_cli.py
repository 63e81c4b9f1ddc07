import os
import subprocess
import sys
from pathlib import Path

import pytest

from chloc import NotConvergentError, Ring, cli, parse_class_expr

from conftest import assert_chloc_imported, child_pythonpath

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("CHLOC_Q_MAX", None)
    env["PYTHONPATH"] = child_pythonpath(env.get("PYTHONPATH"))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "chloc", *args],
        capture_output=True,
        env=env,
        cwd=cwd or GOLDEN,
    )
    assert_chloc_imported(proc)
    return proc


GOLDEN_CASES = [
    (("chain", "analyze", "2", "2", "3"), "chain_analyze_223.txt", 0),
    (("ifunction", "2", "2", "3", "--k-max", "3"), "ifunction_223_k3.txt", 0),
    (
        ("classes", "identity", "--job", "job_identity.json"),
        "classes_identity.txt",
        0,
    ),
    (
        ("classes", "hodge", "--job", "job_hodge_divergent.json"),
        "classes_hodge_divergent.txt",
        2,
    ),
    (
        ("classes", "hodge", "--job", "job_hodge_convergent.json"),
        "classes_hodge_convergent.txt",
        0,
    ),
    (
        ("classes", "hodge", "--job", "job_hodge_empty.json"),
        "classes_hodge_empty.txt",
        0,
    ),
    (
        ("classes", "tautrel", "--job", "job_tautrel.json"),
        "classes_tautrel.txt",
        0,
    ),
    (
        ("classes", "tautrel", "--job", "job_tautrel_mixed.json"),
        "classes_tautrel_mixed.txt",
        2,
    ),
    (
        ("classes", "general", "--job", "job_general.json"),
        "classes_general.txt",
        0,
    ),
]


@pytest.mark.parametrize("args,golden,code", GOLDEN_CASES)
def test_golden_output(args, golden, code):
    proc = run_cli(*args)
    expected = (GOLDEN / golden).read_bytes()
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stdout == expected


def test_byte_determinism_across_runs():
    for args, _, _ in GOLDEN_CASES[:4]:
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("chain", "analyze").returncode == 1
    assert run_cli("nonsense").returncode == 1
    assert run_cli("ifunction", "2", "2", "3").returncode == 1  # missing --k-max
    assert run_cli("classes", "hodge", "--job", "missing.json").returncode == 1


def test_domain_errors_exit_1():
    proc = run_cli("chain", "analyze", "3", "1")
    assert proc.returncode == 1
    assert b"last exponent" in proc.stderr
    proc = run_cli("ifunction", "3", "2", "--k-max", "2")
    assert proc.returncode == 1
    assert b"Calabi-Yau" in proc.stderr


def test_schema_error_reports_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"chow": {"generators": [{"name": "a", "degree": 0}], "truncation": 2}}')
    proc = run_cli("classes", "identity", "--job", str(bad))
    assert proc.returncode == 1
    assert b"chow" in proc.stderr
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(
        '{"chow": {"generators": [], "truncation": 0},'
        ' "classes": [{"name": "A", "rank": 0, "ch": {"1": "zz"}}],'
        ' "job": {"pairs": []}}'
    )
    proc2 = run_cli("classes", "identity", "--job", str(bad2))
    assert proc2.returncode == 1
    assert b"classes[0].ch.1" in proc2.stderr


def test_unresolved_name_exit_1(tmp_path):
    doc = (
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        ' "classes": [],'
        ' "job": {"hodge": "nope", "hodge_weight": 1, "pushed": []}}'
    )
    f = tmp_path / "job.json"
    f.write_text(doc)
    proc = run_cli("classes", "hodge", "--job", str(f))
    assert proc.returncode == 1
    assert b"unresolved" in proc.stderr


def test_env_q_max_override(tmp_path):
    doc = (
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        ' "classes": [], "job": {"hodge": null, "hodge_weight": 1, "pushed": []}}'
    )
    f = tmp_path / "job.json"
    f.write_text(doc)
    base = run_cli("classes", "hodge", "--job", str(f))
    assert b"q_max: 4" in base.stdout
    env = run_cli("classes", "hodge", "--job", str(f), env_extra={"CHLOC_Q_MAX": "9"})
    assert b"q_max: 9" in env.stdout
    flag = run_cli(
        "classes", "hodge", "--job", str(f), "--q-max", "11",
        env_extra={"CHLOC_Q_MAX": "9"},
    )
    assert b"q_max: 11" in flag.stdout  # the flag wins over the environment


def test_relation_output_reparses():
    proc = run_cli("classes", "hodge", "--job", "job_hodge_divergent.json")
    ring = Ring([("x", 1)], 1)
    x = ring.generator("x")
    relations = {}
    for line in proc.stdout.decode().splitlines():
        if line.startswith("relation "):
            _, exp, expr = line.split(" ", 2)
            relations[int(exp)] = parse_class_expr(expr, ring)
    assert relations == {-2: -x, -1: ring.one()}


def test_verify_pf_flag_runs_green():
    proc = run_cli("ifunction", "2", "2", "3", "--k-max", "5", "--verify-pf")
    assert proc.returncode == 0
    assert b"pf: 8/8 pass" in proc.stdout


def _assert_usage_error(proc, source: bytes):
    assert proc.returncode == 1, proc.stdout.decode()
    assert b"Traceback" not in proc.stderr
    assert source in proc.stderr
    assert proc.stdout == b""


def test_negative_q_max_flag_exit_1():
    proc = run_cli("classes", "identity", "--job", "job_identity.json", "--q-max", "-2")
    _assert_usage_error(proc, b"--q-max")


def test_negative_job_q_max_exit_1(tmp_path):
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1, "q_max": -4},'
        ' "classes": [], "job": {"hodge": null, "hodge_weight": 1, "pushed": []}}'
    )
    _assert_usage_error(run_cli("classes", "hodge", "--job", str(f)), b"chow.q_max")


def test_negative_env_q_max_exit_1():
    proc = run_cli(
        "classes", "general", "--job", "job_general.json", env_extra={"CHLOC_Q_MAX": "-4"}
    )
    _assert_usage_error(proc, b"CHLOC_Q_MAX")


def test_non_list_pairs_exit_1(tmp_path):
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        ' "classes": [], "job": {"pairs": 5}}'
    )
    _assert_usage_error(run_cli("classes", "identity", "--job", str(f)), b"job.pairs")


@pytest.mark.parametrize("error", [ArithmeticError("not reliable"), NotConvergentError([])])
def test_computation_errors_exit_1(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "localization_product", fail)
    code = cli.main(["classes", "general", "--job", str(GOLDEN / "job_general.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("chloc: error:")
    assert "Traceback" not in captured.err


def test_chain_analyze_aut_order_is_product():
    proc = run_cli("chain", "analyze", "40", "40", "40")
    assert proc.returncode == 0
    assert b"\naut_order: 64000\n" in proc.stdout


def test_pair_without_class_exit_1(tmp_path):
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        ' "classes": [], "job": {"pairs": [{"weight": 1}]}}'
    )
    _assert_usage_error(run_cli("classes", "identity", "--job", str(f)), b"job.pairs[0].class")


def test_deeply_nested_class_expression_exit_1(tmp_path):
    expr = "(" * 300 + "x" + ")" * 300
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 2},'
        f' "classes": [{{"name": "L", "rank": 1, "ch": {{"1": "{expr}"}}}}],'
        ' "job": {"pairs": [{"class": "L", "weight": 1}]}}'
    )
    _assert_usage_error(run_cli("classes", "identity", "--job", str(f)), b"classes[0].ch.1")
