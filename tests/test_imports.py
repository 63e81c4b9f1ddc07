"""What ``import chloc`` runs, and which layers each CLI mode runs.

``import chloc`` registers every layer module in ``sys.modules`` without
running its code; a layer runs on the first read of one of its attributes.
A later top-level import that loads a layer a mode does not use fails here.
"""

import json
from pathlib import Path

import pytest

from conftest import layers_run_by_cli, run_python

GOLDEN = Path(__file__).parent / "golden"

LAYERS = ["chains", "charclasses", "classexpr", "cli", "ifunction", "localize", "ratfunc",
          "rings", "sampling", "series"]

# The facts are gathered in the order listed: nothing before the name
# checks reads a public name of the package.
_CONTRACT = """
import json, sys
import chloc

ran = lambda m: "__builtins__" in object.__getattribute__(m, "__dict__")
layers = {n: m for n, m in sys.modules.items() if n.startswith("chloc.")}
facts = {"registered": sorted(layers), "ran": sorted(n for n, m in layers.items() if ran(m))}
facts["dir_missing"] = sorted(set(chloc.__all__) - set(dir(chloc)))
facts["tracer_name"] = sys.modules["chloc.localize"].crosscheck_factors.__name__
facts["not_the_layers"] = [n for n in chloc.__all__ if getattr(chloc, n)
                           is not getattr(sys.modules[getattr(chloc, n).__module__], n)]
facts["not_kept"] = [n for n in chloc.__all__ if n not in vars(chloc)]
star = {}
exec("from chloc import *", star)
facts["star_differs"] = [n for n in chloc.__all__ if star.get(n) is not getattr(chloc, n)]
print(json.dumps(facts))
"""


def test_import_chloc_registers_every_layer_and_runs_none():
    proc = run_python(_CONTRACT)
    assert proc.returncode == 0, proc.stderr.decode()
    facts = json.loads(proc.stdout)
    assert facts == {
        "registered": [f"chloc.{layer}" for layer in LAYERS],
        "ran": [],
        "dir_missing": [],
        "tracer_name": "crosscheck_factors",
        "not_the_layers": [],
        "not_kept": [],
        "star_differs": [],
    }


@pytest.mark.parametrize("args,code,layers", [
    (("chain", "analyze", "2", "2", "3"), 0, ["chains", "cli", "rings"]),
    (("ifunction", "2", "2", "3", "--k-max", "3", "--verify-pf"), 0,
     ["chains", "cli", "ifunction", "ratfunc", "rings"]),
    (("classes", "identity", "--job", "job_identity.json"), 0,
     ["charclasses", "cli", "rings", "sampling", "series"]),
    (("classes", "tautrel", "--job", "job_tautrel.json"), 0,
     ["charclasses", "classexpr", "cli", "localize", "rings", "series"]),
], ids=["chain", "ifunction", "identity", "tautrel"])
def test_each_cli_mode_runs_only_its_layers(args, code, layers):
    status, out, ran = layers_run_by_cli(*args, cwd=GOLDEN)
    assert status == code, out
    assert ran == layers


# Sixteen threads make their first reads of the layers at once, through the
# package and directly, with a switch interval short enough that each load
# is interrupted; a reader must wait for a layer another thread is running.
_FIRST_READS = """
import sys, threading
sys.setswitchinterval(1e-6)
import chloc

errors = []

def run(i):
    try:
        ring = chloc.Ring([("x", 1)], 2)
        bundle = chloc.line_bundle(ring.generator("x"))
        if i % 2:
            chloc.todd(bundle)
        else:
            sys.modules["chloc.localize"].crosscheck_factors(ring, [(bundle, 1)])
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=run, args=(i,)) for i in range(16)]
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
finally:
    sys.setswitchinterval(0.005)
print(sum(t.is_alive() for t in threads), errors)
"""


def test_concurrent_first_reads_wait_for_the_load():
    proc = run_python(_FIRST_READS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["0", "[]"]
