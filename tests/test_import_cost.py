"""The runtime imports only the standard library's graph routines:
importing the package, the batch runner and the CLI must not pull in
networkx (about a third of the interpreter's import time and RSS)."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_networkx_on_import():
    code = (
        "import sys\n"
        "import repro, repro.verify.runner, repro.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
