"""The machine-readable CLI outputs validate against the shipped schemas."""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from bench_cases import write_benchmark
from conftest import write_jar
from jarcompat.classfile import ClassSpec, MethodSpec
from jarcompat.cli import main


def _schema(name: str) -> dict:
    text = resources.files("jarcompat.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


@pytest.fixture
def jars(tmp_path):
    v1 = write_jar(
        tmp_path / "v1.jar",
        [
            ClassSpec(
                "srv.Handler",
                kind="interface",
                methods=(MethodSpec("a", is_abstract=True),),
            ),
            ClassSpec("srv.internal.Util", methods=(MethodSpec("helper"), MethodSpec("keep"))),
        ],
    )
    v2 = write_jar(
        tmp_path / "v2.jar",
        [
            ClassSpec(
                "srv.Handler",
                kind="interface",
                methods=(MethodSpec("a", is_abstract=True), MethodSpec("b", is_abstract=True)),
            ),
            ClassSpec("srv.internal.Util", methods=(MethodSpec("keep"),)),
        ],
    )
    client = write_jar(
        tmp_path / "client.jar",
        [ClassSpec("cli.Mock", interfaces=("srv.Handler",), methods=(MethodSpec("a"),))],
    )
    return v1, v2, client


def test_delta_json_validates(jars, capsys):
    v1, v2, _ = jars
    main(["delta", str(v1), str(v2), "--json", "-", "--scope", "all"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("delta.schema.json"))
    # Both a stable and an unstable (internal-package) change are present.
    statuses = {c["stability"]["status"] for c in payload["changes"]}
    assert statuses == {"stable", "unstable"}


def test_detections_json_validates(jars, capsys):
    v1, v2, client = jars
    main(["detect", str(v1), str(v2), str(client), "--json", "-"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("detections.schema.json"))
    assert payload["impact"]["broken"] is True


def test_bench_json_validates(tmp_path, capsys):
    manifest = write_benchmark(tmp_path / "bench")
    main(["bench", str(manifest), "--json", "-"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("bench-report.schema.json"))
    assert payload["cases"] == len(payload["perCase"])
