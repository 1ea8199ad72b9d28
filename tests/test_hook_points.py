"""The benchmark's traced hook points (perfbench/spans.py) still exist and still fire."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from corpus_fixture import build_fixture

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))

# Runs a jarcompat command with every hook point wrapped and prints the
# calls per span name.
TRACED = """
import json, sys
from spans import Tracer, install
from jarcompat import cli
tracer = Tracer()
install(tracer)
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "calls": {k: v["calls"] for k, v in tracer.layers().items()}}))
"""


def test_span_hooks_install():
    # spans.install wraps module attributes by name; a renamed or moved
    # attribute raises here instead of only in a traced benchmark run.
    result = subprocess.run(
        [sys.executable, "-c", "from spans import Tracer, install; install(Tracer())"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_traced_corpus_run_records_every_layer(tmp_path):
    # A hook point the program stops calling through its module attribute
    # still installs, but records nothing; every corpus layer must show up.
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    result = subprocess.run(
        [sys.executable, "-c", TRACED, "corpus", "run", "--artifacts", str(artifacts),
         "--edges", str(edges), "--jars", str(jar_root), "--out", str(tmp_path / "out"),
         "--jobs", "1"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout.splitlines()[-1])
    assert traced["code"] == 0
    layers = [
        "corpus.load_graph", "corpus.derive_upgrades", "corpus.derive_clients",
        "classfile.open_jar", "apimodel.build_model", "delta.compute_delta",
        "usage.extract_usage", "detect.compute_detections", "detect.classify_impact",
    ]
    assert [name for name in layers if not traced["calls"].get(name)] == []
