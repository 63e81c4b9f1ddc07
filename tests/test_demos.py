import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_chloc_imported, child_pythonpath

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_golden():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_is_golden(demo):
    # each demo runs as a child process; its stdout must match the golden
    # byte for byte and it must write nothing to stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = child_pythonpath(env.get("PYTHONPATH"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert_chloc_imported(proc)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_bytes()
