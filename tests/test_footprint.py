"""A run loads only what it uses.

Each check runs in a fresh interpreter: the test session itself (numpy's
own helpers, the fixtures' random data) has already imported
``numpy.random``, so ``sys.modules`` here says nothing about a run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from eigentrack.flows import diag_linear_flow, write_flow_file

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# subpackages a run has no use for: numpy.random (the seeded basis comes
# from the standard library) and numpy.ma (np.median's masked-array test)
_UNUSED = ("numpy.random", "numpy.ma")

_RUN = """
import json, sys
from eigentrack import cli
rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps([rc, [m for m in json.loads(sys.argv[2])
                       if m in sys.modules]]))
"""


def _fresh(code, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def _run_loads(argv, tmp_path):
    rc, loaded = json.loads(_fresh(_RUN, json.dumps(argv),
                                   json.dumps(_UNUSED), cwd=tmp_path))
    assert rc == 0
    return loaded


def test_paper_run_loads_neither_numpy_random_nor_numpy_ma(tmp_path):
    argv = ["run", "--tf", "1.0", "--output", str(tmp_path) + "/"]
    assert _run_loads(argv, tmp_path) == []
    assert (tmp_path / "report.json").exists()


def test_file_flow_run_loads_neither_numpy_random_nor_numpy_ma(tmp_path):
    flow_path = tmp_path / "diag.flow"
    write_flow_file(flow_path, diag_linear_flow(), t0=0.0, tau=0.01,
                    count=121)
    argv = ["run", "--flow", str(flow_path), "--tau", "0.01", "--tf", "1.0",
            "--output", str(tmp_path) + "/"]
    assert _run_loads(argv, tmp_path) == []
    assert (tmp_path / "report.json").exists()


def test_seeded_basis_is_the_same_in_every_interpreter(tmp_path):
    code = ("from eigentrack import OrthogonalRandomizer\n"
            "print(OrthogonalRandomizer.from_seed(7, 7).U.tobytes().hex())")
    first = _fresh(code, cwd=tmp_path)
    assert _fresh(code, cwd=tmp_path) == first
    assert len(first) == 2 * 8 * 49
