import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from chloc import NotConvergentError, Ring, cli, parse_class_expr

from conftest import assert_chloc_imported, child_pythonpath

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
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


def test_q_max_sources(tmp_path):
    doc = (
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1%s},'
        ' "classes": [], "job": {"hodge": null, "hodge_weight": 1, "pushed": []}}'
    )
    plain, with_q = tmp_path / "plain.json", tmp_path / "with_q.json"
    plain.write_text(doc % "")
    with_q.write_text(doc % ', "q_max": 6')
    base = run_cli("classes", "hodge", "--job", str(plain))
    assert b"q_max: 4" in base.stdout  # the default 2*truncation+2
    job = run_cli("classes", "hodge", "--job", str(with_q))
    assert b"q_max: 6" in job.stdout
    flag = run_cli("classes", "hodge", "--job", str(with_q), "--q-max", "11")
    assert b"q_max: 11" in flag.stdout  # the flag wins over the job file
    # the environment is no source of q_max
    env = run_cli("classes", "hodge", "--job", str(plain), env_extra={"CHLOC_Q_MAX": "9"})
    assert env.stdout == base.stdout


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


def test_non_list_pairs_exit_1(tmp_path):
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        ' "classes": [], "job": {"pairs": 5}}'
    )
    _assert_usage_error(run_cli("classes", "identity", "--job", str(f)), b"job.pairs")


def test_empty_pairs_exit_1(tmp_path):
    # an identity job with no pair checks nothing: it used to print
    # "identity: 0/0 equal" and exit 0
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        ' "classes": [], "job": {"pairs": []}}'
    )
    _assert_usage_error(run_cli("classes", "identity", "--job", str(f)), b"job.pairs")


def test_empty_factors_exit_1(tmp_path):
    # a tautrel job with no factor checks nothing: it used to print
    # "tautrel: pass" and exit 0
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        ' "classes": [], "job": {"factors": []}}'
    )
    _assert_usage_error(run_cli("classes", "tautrel", "--job", str(f)), b"job.factors")


@pytest.mark.parametrize("error", [ArithmeticError("not reliable"), NotConvergentError([])])
def test_computation_errors_exit_1(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.localize, "localization_product", fail)
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


@pytest.mark.parametrize("mode,key,item", [
    ("hodge", "pushed", '{"weight": 1}'),
    ("general", "v", '{"weight": 1}'),
    ("general", "t", '{"class": null, "weight": 1}'),
    ("general", "n", '{"weight": 1}'),
    ("tautrel", "factors", '{"weight": 1}'),
    ("identity", "pairs", '{"class": null, "weight": 1}'),
])
def test_weighted_item_without_class_exit_1(tmp_path, mode, key, item):
    # an item naming no class is an error, not the zero class
    f = tmp_path / "job.json"
    f.write_text(
        '{"chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1},'
        f' "classes": [], "job": {{"hodge": null, "hodge_weight": 1, "{key}": [{item}]}}}}'
    )
    _assert_usage_error(run_cli("classes", mode, "--job", str(f)), f"job.{key}[0].class".encode())


_BOOL_BASE = {
    "chow": {"generators": [{"name": "x", "degree": 1}], "truncation": 1, "q_max": 4},
    "classes": [{"name": "L", "rank": 1, "ch": {"1": "x"}}],
    "chain": [2, 2, 3],
}
_PAIRS = {"pairs": [{"class": "L", "weight": 1}]}


_BOOL_CASES = [
    ("identity", _PAIRS, "chow.generators[0].degree"),
    ("identity", _PAIRS, "chow.truncation"),
    ("identity", _PAIRS, "chow.q_max"),
    ("identity", _PAIRS, "classes[0].rank"),
    ("identity", _PAIRS, "chain[0]"),
    ("identity", _PAIRS, "job.pairs[0].weight"),
    ("identity", {"seed": 7, "count": 2}, "job.seed"),
    ("identity", {"seed": 7, "count": 2}, "job.count"),
    ("hodge", {"hodge": "L", "hodge_weight": 2, "pushed": []}, "job.hodge_weight"),
    ("general", {"hodge": "L", "hodge_weight": 2, "n": [{"class": "L", "weight": 1}]},
     "job.n[0].weight"),
    ("tautrel", {"factors": [{"class": "L", "weight": 1}]}, "job.factors[0].weight"),
]


@pytest.mark.parametrize("mode,job,path", _BOOL_CASES, ids=[c[2] for c in _BOOL_CASES])
def test_boolean_integer_field_exit_1(tmp_path, capsys, mode, job, path):
    # JSON true is a bool, not an integer, even though Python's bool is an int
    doc = json.loads(json.dumps({**_BOOL_BASE, "job": job}))
    f = tmp_path / "job.json"
    f.write_text(json.dumps(doc))
    assert cli.main(["classes", mode, "--job", str(f)]) != 1, capsys.readouterr().err
    capsys.readouterr()
    *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    parent = doc
    for key in keys:
        parent = parent[key]
    parent[last] = True
    f.write_text(json.dumps(doc))
    assert cli.main(["classes", mode, "--job", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"chloc: schema error at {path}:")


@pytest.mark.parametrize("key", ["0", "x", "\u00b2"])
def test_bad_ch_key_reports_path(tmp_path, capsys, key):
    # "\u00b2" (superscript two) passes str.isdigit() but not int()
    doc = {**_BOOL_BASE, "classes": [{"name": "L", "rank": 1, "ch": {key: "x"}}], "job": _PAIRS}
    f = tmp_path / "job.json"
    f.write_text(json.dumps(doc))
    code = cli.main(["classes", "identity", "--job", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert f"classes[0].ch.{key}" in captured.err


# Runs each argv list read from stdin as ``python -m chloc`` would, in one
# interpreter so that hundreds of runs stay cheap, and prints one
# [exit code, stderr] pair per run.
_FUZZ_RUNNER = r"""
import contextlib, io, json, runpy, sys, traceback
results = []
for argv in json.load(sys.stdin):
    sys.argv = ["chloc", *argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("chloc", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            code = 1
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""

_FUZZ_VALUES = [None, True, 0, -1, 2, 1.5, "x", "", [], {}, [{}], {"class": "x"}]


def _paths(doc, prefix=()):
    """Every (key or index) path into a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, rng):
    """doc with one value dropped, retyped, nested or negated (a list is
    negated by doubling it, an object by emptying it)."""
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kind = rng.choice(["drop", "type", "nest", "negate"])
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = rng.choice([v for v in _FUZZ_VALUES if type(v) is not type(value)])
    elif kind == "nest":
        parent[key] = rng.choice([[value], {"value": value}])
    elif isinstance(value, bool) or value is None:
        parent[key] = not value
    elif isinstance(value, (int, float)):
        parent[key] = -value
    elif isinstance(value, str):
        parent[key] = "-" + value
    else:
        parent[key] = [value, value] if isinstance(value, list) else {}
    return doc


def test_fuzzed_golden_jobs_exit_cleanly(tmp_path):
    # seeded one- to three-step mutations of the golden job files, run under
    # their own mode or a random one: every run exits 0, 1 or 2, never with a
    # traceback
    rng = Random(20261018)
    modes = ["hodge", "general", "identity", "tautrel"]
    jobs = sorted(GOLDEN.glob("job_*.json"))
    assert len(jobs) == 7
    runs = []
    for i in range(300):
        job = rng.choice(jobs)
        doc = json.loads(job.read_text())
        for _ in range(rng.choice([1, 1, 2, 3])):
            if isinstance(doc, (dict, list)) and doc:
                doc = _mutate(doc, rng)
        f = tmp_path / f"job_{i}.json"
        f.write_text(json.dumps(doc))
        mode = job.stem.split("_")[1] if rng.random() < 0.8 else rng.choice(modes)
        runs.append(["classes", mode, "--job", str(f)])
    env = dict(os.environ, PYTHONPATH=child_pythonpath(os.environ.get("PYTHONPATH")))
    proc = subprocess.run(
        [sys.executable, "-c", _FUZZ_RUNNER],
        input=json.dumps(runs).encode(), capture_output=True, env=env, cwd=GOLDEN,
    )
    assert_chloc_imported(proc)
    assert proc.returncode == 0, proc.stderr.decode()
    results = json.loads(proc.stdout)
    assert len(results) == len(runs)
    bad = [(argv, code, err) for argv, (code, err) in zip(runs, results)
           if code not in (0, 1, 2) or "Traceback" in err]
    assert not bad, bad[:3]
    assert {code for code, _ in results} >= {0, 1, 2}
