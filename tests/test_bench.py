"""Benchmark harness: scoring, matching, and the per-kind case suite."""

from __future__ import annotations

import json

import pytest

from bench_cases import BENCH_CASES, write_benchmark
from conftest import damage_entry, jar_bytes, write_jar
from jarcompat.bench import (
    AccuracyReport,
    BenchCase,
    CaseVerdict,
    load_manifest,
    run_benchmark,
    run_case,
    score,
)
from jarcompat.classfile import ClassSpec
from jarcompat.delta import BcKind


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    manifest = write_benchmark(root)
    return run_benchmark(manifest)


def test_score_published_confusion():
    precision, recall = score(130, 5, 2)
    assert precision == pytest.approx(0.963, abs=0.001)
    assert recall == pytest.approx(0.985, abs=0.001)


def test_score_vacuous_and_direct():
    assert score(0, 0, 0) == (1.0, 1.0)
    assert score(3, 1, 1) == (0.75, 0.75)
    with pytest.raises(ValueError):
        score(-1, 0, 0)


def test_vacuous_suite_is_perfect():
    report = AccuracyReport(verdicts=[CaseVerdict(case_id="empty")])
    assert report.precision == 1.0
    assert report.recall == 1.0


def test_manifest_round_trip(tmp_path):
    manifest = write_benchmark(tmp_path)
    cases = load_manifest(manifest)
    assert len(cases) == len(BENCH_CASES)
    by_id = {case.case_id: case for case in cases}
    fig_case = by_id["methodAddedToInterface"]
    assert fig_case.entry == "cli.MockHandler"
    assert fig_case.oracle is not None
    assert fig_case.oracle.error_class == "java.lang.AbstractMethodError"


def test_suite_covers_every_catalog_kind():
    exercised = {case.expected_kind for case in BENCH_CASES if case.expected_kind}
    assert exercised == {kind.value for kind in BcKind}


def test_no_invalid_cases(bench_report):
    assert bench_report.invalid_cases() == []


def test_recall_is_total_outside_known_gaps(bench_report):
    fn_cases = [v for v in bench_report.verdicts if v.valid and v.fn]
    assert all(v.known_gap in ("native", "strictfp") for v in fn_cases)
    assert {v.known_gap for v in fn_cases} == {"native", "strictfp"}
    tp = sum(v.tp for v in bench_report.verdicts if v.valid and not v.known_gap)
    fn = sum(v.fn for v in bench_report.verdicts if v.valid and not v.known_gap)
    assert score(tp, 0, fn)[1] == 1.0


def test_every_fp_is_attributed_to_a_pessimistic_rule(bench_report):
    assert bench_report.unexplained_fps() == []
    for verdict in bench_report.verdicts:
        if verdict.fp:
            assert verdict.fp_rules, f"{verdict.case_id} has unannotated FPs"


def test_interface_evolution_case_single_detection(bench_report):
    verdict = next(v for v in bench_report.verdicts if v.case_id == "methodAddedToInterface")
    assert verdict.tp == 1 and verdict.fp == 0 and verdict.fn == 0
    assert len(verdict.detections) == 1
    detection = verdict.detections[0]
    assert detection.bc_kind is BcKind.METHOD_ADDED_TO_INTERFACE
    assert detection.use_kind.value == "implements"


def test_determinism(tmp_path):
    manifest = write_benchmark(tmp_path)
    first = run_benchmark(manifest).to_dict()
    second = run_benchmark(manifest).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_invalid_case_listed_but_excluded(tmp_path):
    manifest_path = write_benchmark(tmp_path)
    entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    entries.append(
        {
            "id": "broken_case",
            "v1": "nope/missing.jar",
            "v2": "nope/missing.jar",
            "client": "nope/missing.jar",
            "entry": "cli.X",
            "oracle": None,
            "expectedKind": None,
        }
    )
    manifest_path.write_text(json.dumps(entries), encoding="utf-8")
    report = run_benchmark(manifest_path)
    assert [v.case_id for v in report.invalid_cases()] == ["broken_case"]
    baseline = run_benchmark(write_benchmark(tmp_path / "clean"))
    assert (report.tp, report.fp, report.fn) == (baseline.tp, baseline.fp, baseline.fn)


def test_case_with_a_damaged_library_entry_is_invalid(tmp_path):
    v1 = write_jar(tmp_path / "v1.jar", [ClassSpec("p.A"), ClassSpec("p.B")])
    v2 = tmp_path / "v2.jar"
    v2.write_bytes(damage_entry(jar_bytes([ClassSpec("p.A"), ClassSpec("p.B")]), "p/A.class"))
    client = write_jar(tmp_path / "client.jar", [ClassSpec("c.X")])
    verdict = run_case(BenchCase("damaged", v1, v2, client, "c.X"))
    assert verdict.error.startswith("NotAZip") and "damaged entry p/A.class" in verdict.error
    assert verdict.detections == []


def test_case_with_a_library_class_that_does_not_parse_is_invalid(tmp_path):
    v1 = write_jar(tmp_path / "v1.jar", [ClassSpec("p.A"), ClassSpec("p.B")])
    v2 = write_jar(tmp_path / "v2.jar", [ClassSpec("p.B")], extra={"p/A.class": b"\xca\xfe\xba\xbe\x00"})
    client = write_jar(tmp_path / "client.jar", [ClassSpec("c.X")])
    verdict = run_case(BenchCase("unparsed", v1, v2, client, "c.X"))
    assert verdict.error.startswith("ClassFormatError") and "p/A.class does not parse" in verdict.error
    assert verdict.detections == []


def test_report_table_renders(bench_report):
    text = bench_report.table()
    assert "precision=" in text
    assert "methodAddedToInterface" in text
