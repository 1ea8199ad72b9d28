"""The benchmark's traced hook points (perfbench/spans.py) still exist."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_span_hooks_install():
    # spans.install wraps module attributes by name; a renamed or moved
    # attribute raises here instead of only in a traced benchmark run.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    result = subprocess.run(
        [sys.executable, "-c", "from spans import Tracer, install; install(Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
