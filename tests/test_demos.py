"""Smoke test: every script under demos/ runs to a clean exit.

The demos use only the public API, so a removed or renamed export shows
up here even when no unit test imports it.
"""

import glob
import os
import subprocess
import sys

import pytest

import eigentrack

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    src = os.path.dirname(os.path.dirname(eigentrack.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)     # demos that write files keep them here
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
