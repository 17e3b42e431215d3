"""Run code in a fresh interpreter on the source tree.

Import checks need a process whose ``sys.modules`` holds only what the
code under test imported, not what the test session loaded before it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` on the source tree; fail on a non-zero exit."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result


def modules_loaded_by(code: str) -> set[str]:
    """The modules ``code`` adds to a fresh interpreter's ``sys.modules``.

    ``code`` may set ``baseline`` (a set of module names) to count only the
    modules loaded after that point.
    """
    script = (
        "import sys\nbaseline = set()\n"
        f"{code}\n"
        "import json\n"
        "print(json.dumps(sorted(set(sys.modules) - baseline)))"
    )
    return set(json.loads(run_python("-c", script).stdout.splitlines()[-1]))
