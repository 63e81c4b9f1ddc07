import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(__file__))

import chloc  # noqa: E402

# The directory this test process imported ``chloc`` from, as an absolute
# path. CLI tests start ``python -m chloc`` in another working directory, so
# a relative PYTHONPATH entry such as ``src`` would not reach the child.
CHLOC_ROOT = str(Path(chloc.__file__).resolve().parents[1])


def child_pythonpath(inherited=""):
    """PYTHONPATH for a ``python -m chloc`` child: ``CHLOC_ROOT`` first, so the
    child runs the same source tree as the tests, then any inherited entries."""
    return os.pathsep.join(filter(None, [CHLOC_ROOT, inherited]))


def assert_chloc_imported(proc):
    """Fail loudly if the child could not import ``chloc``; otherwise the
    import error's exit code 1 and empty stdout pass for a real result."""
    err = proc.stderr.decode(errors="replace")
    assert "No module named chloc" not in err, err


# Runs chloc as ``python -m chloc`` does, then reports on stderr, as a JSON
# list, the chloc layers whose code ran. A layer registered by ``import
# chloc`` but never used has no ``__builtins__`` in its namespace yet; the
# dict is read with ``object.__getattribute__``, which does not load it.
_LAYER_PROBE = """
import json, runpy, sys
try:
    runpy.run_module("chloc", run_name="__main__", alter_sys=True)
finally:
    ran = sorted(name for name, m in sys.modules.items() if name.startswith("chloc.")
                 and "__builtins__" in object.__getattribute__(m, "__dict__"))
    print(json.dumps(ran), file=sys.stderr)
"""


def run_python(code, *args, cwd=None):
    """Run Python source with ``args`` in a fresh child importing the tested chloc."""
    env = dict(os.environ, PYTHONPATH=child_pythonpath(os.environ.get("PYTHONPATH")))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          env=env, cwd=cwd, timeout=120)
    assert_chloc_imported(proc)
    return proc


def layers_run_by_cli(*args, cwd=None):
    """(exit code, stdout, sorted names of the chloc layers whose code ran)
    for one ``chloc`` call in a fresh child."""
    proc = run_python(_LAYER_PROBE, *args, cwd=cwd)
    ran = json.loads(proc.stderr.decode().splitlines()[-1])
    return proc.returncode, proc.stdout, [name.removeprefix("chloc.") for name in ran]
