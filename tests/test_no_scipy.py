"""The package runs with numpy alone: scipy is blocked before import."""

import os
import subprocess
import sys

SCRIPT = r"""
import io
import sys
from contextlib import redirect_stdout

sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError

import numpy as np

import conespec
import conespec.cli

buf = io.StringIO()
with redirect_stdout(buf):
    assert conespec.cli.main(["paper"]) == 0
    assert conespec.cli.main(["verify", "--suite", "all"]) == 0
mat = np.full((5, 5), 0.3)
np.fill_diagonal(mat, 1.0)
assert 0.0 < conespec.general_t_size_fraction(mat) < 1.0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
assert not loaded, loaded
print("ok")
"""


def test_runs_without_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
