"""CLI surface: exit codes, report shapes, end-to-end wiring."""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import zipfile
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_cases import write_benchmark
from conftest import assert_no_child_left, damage_entry, refuse_directory, write_jar
from corpus_fixture import (
    build_every_reason_fixture,
    build_fixture,
    build_two_library_fixture,
    write_graph_csvs,
)
from jarcompat import analyze
from jarcompat.analyze import analyze_results
from jarcompat.classfile import ClassSpec, MethodSpec
from jarcompat.cli import build_parser, main
from jarcompat.corpus import usable_cpus, write_csv
from jarcompat.stats import LEVEL_ORDER

HANDLER_V1 = ClassSpec(
    "srv.Handler", kind="interface", methods=(MethodSpec("a", "()V", is_abstract=True),)
)
HANDLER_V2 = ClassSpec(
    "srv.Handler",
    kind="interface",
    methods=(MethodSpec("a", "()V", is_abstract=True), MethodSpec("b", "()V", is_abstract=True)),
)
MOCK = ClassSpec("cli.MockHandler", interfaces=("srv.Handler",), methods=(MethodSpec("a", "()V"),))


@pytest.fixture
def jars(tmp_path):
    return {
        "v1": write_jar(tmp_path / "v1.jar", [HANDLER_V1]),
        "v2": write_jar(tmp_path / "v2.jar", [HANDLER_V2]),
        "client": write_jar(tmp_path / "client.jar", [MOCK]),
        "dir": tmp_path,
    }


def test_delta_gate_detects_breaking(jars, capsys):
    code = main(
        ["delta", str(jars["v1"]), str(jars["v2"]), "--json", "-", "--fail-on-breaking"]
    )
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 1
    assert payload["schemaVersion"] == 1
    assert [c["kind"] for c in payload["changes"]] == ["methodAddedToInterface"]


def test_delta_identical_jars_exit_zero(jars, capsys):
    code = main(["delta", str(jars["v1"]), str(jars["v1"]), "--fail-on-breaking", "--json", "-"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["changes"] == []


def test_delta_corrupt_jar_exit_three(tmp_path, jars, capsys):
    bad = tmp_path / "bad.jar"
    bad.write_bytes(b"not a zip")
    code = main(["delta", str(bad), str(jars["v2"])])
    assert code == 3


def test_delta_jar_with_a_damaged_entry_exit_three(tmp_path, jars, capsys):
    bad = tmp_path / "bad.jar"
    data = jars["v1"].read_bytes()
    bad.write_bytes(damage_entry(data, zipfile.ZipFile(jars["v1"]).namelist()[0]))
    assert main(["delta", str(jars["v1"]), str(bad)]) == 3
    assert main(["delta", str(bad), str(jars["v1"])]) == 3
    assert capsys.readouterr().err.count("damaged entry") == 2


def test_library_class_that_does_not_parse_exit_three(tmp_path, jars, capsys):
    # Left out of the model, the class would look removed.
    bad_class = {"srv/Extra.class": b"\xca\xfe\xba\xbe\x00"}
    bad = write_jar(tmp_path / "bad.jar", [HANDLER_V2], extra=bad_class)
    assert main(["delta", str(jars["v1"]), str(bad)]) == 3
    assert main(["detect", str(bad), str(jars["v2"]), str(jars["client"])]) == 3
    assert capsys.readouterr().err.count("class entry srv/Extra.class does not parse") == 2
    # A client's class that does not parse is only left out of its usage.
    client = write_jar(tmp_path / "client.jar", [MOCK], extra=bad_class)
    assert main(["detect", str(jars["v1"]), str(jars["v2"]), str(client), "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["impact"]["broken"] is True


def test_delta_csv_output(jars, capsys):
    code = main(["delta", str(jars["v1"]), str(jars["v2"]), "--csv", "-"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "kind,element,stability,detail"
    assert out[1].startswith("methodAddedToInterface,srv.Handler.b()V,stable")


def test_delta_json_and_csv_exclude_each_other(jars):
    reports = [jars["dir"] / "delta.json", jars["dir"] / "delta.csv"]
    with pytest.raises(SystemExit) as exc:
        main(["delta", str(jars["v1"]), str(jars["v2"]), "--json", str(reports[0]), "--csv", str(reports[1])])
    assert exc.value.code == 2
    assert not any(report.exists() for report in reports)


def test_delta_csv_quotes_multi_value_details(tmp_path, capsys):
    v1 = write_jar(tmp_path / "q1.jar", [ClassSpec("lib.A", methods=(MethodSpec("m"),))])
    v2 = write_jar(
        tmp_path / "q2.jar",
        [ClassSpec("lib.A", methods=(
            MethodSpec("m", exceptions=("java.io.IOException", "java.sql.SQLException")),
        ))],
    )
    assert main(["delta", str(v1), str(v2), "--csv", "-"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["kind", "element", "stability", "detail"]
    assert all(len(row) == 4 for row in rows)
    assert rows[1] == [
        "methodNowThrowsCheckedException", "lib.A.m()V", "stable",
        "added=java.io.IOException,java.sql.SQLException",
    ]


def test_delta_scope_all_flag(tmp_path, capsys):
    beta_v1 = write_jar(
        tmp_path / "beta1.jar",
        [ClassSpec("p.A", methods=(MethodSpec("m", annotations=("x.Beta",)), MethodSpec("keep")))],
    )
    beta_v2 = write_jar(tmp_path / "beta2.jar", [ClassSpec("p.A", methods=(MethodSpec("keep"),))])
    assert main(["delta", str(beta_v1), str(beta_v2), "--fail-on-breaking"]) == 0
    capsys.readouterr()
    assert (
        main(["delta", str(beta_v1), str(beta_v2), "--fail-on-breaking", "--scope", "all"]) == 1
    )


def test_detect_end_to_end(jars, capsys):
    code = main(
        [
            "detect",
            str(jars["v1"]),
            str(jars["v2"]),
            str(jars["client"]),
            "--json",
            "-",
            "--fail-on-broken",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["impact"]["broken"] is True
    assert len(payload["detections"]) == 1
    detection = payload["detections"][0]
    assert detection["bcKind"] == "methodAddedToInterface"
    assert detection["useKind"] == "implements"
    assert detection["client"] == "cli.MockHandler"


def test_detect_unrelated_client(tmp_path, jars, capsys):
    loner = write_jar(tmp_path / "loner.jar", [ClassSpec("cli.Loner")])
    code = main(
        ["detect", str(jars["v1"]), str(jars["v2"]), str(loner), "--json", "-", "--fail-on-broken"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["impact"]["broken"] is False
    assert payload["detections"] == []
    assert payload["impact"]["unused"] == 1


def test_classify_examples(capsys):
    assert main(["classify", "3.0.1", "3.1.0"]) == 0
    assert capsys.readouterr().out.startswith("minor")
    assert main(["classify", "0.1.0", "0.2.0"]) == 0
    assert capsys.readouterr().out.startswith("dev")
    assert main(["classify", "1.0.0", "1.0.0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_corpus_derive_and_run(tmp_path, capsys):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    out_derive = tmp_path / "derived"
    code = main(
        [
            "corpus",
            "derive",
            "--artifacts",
            str(artifacts),
            "--edges",
            str(edges),
            "--jars",
            str(jar_root),
            "--out",
            str(out_derive),
        ]
    )
    assert code == 0
    rows = (out_derive / "upgrades.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 4
    assert {row.split(",")[4] for row in rows[1:]} == {"minor", "major", "patch"}

    out_run = tmp_path / "ran"
    code = main(
        [
            "corpus",
            "run",
            "--artifacts",
            str(artifacts),
            "--edges",
            str(edges),
            "--jars",
            str(jar_root),
            "--out",
            str(out_run),
            "--jobs",
            "1",
            "--sample",
            "all:0.99:0.01",
        ]
    )
    assert code == 0
    assert (out_run / "detections.csv").exists()
    assert (out_run / "sample_sizes.csv").exists()


def test_corpus_run_draws_each_sample_from_the_rows_of_clients_csv(tmp_path):
    # Tasks run org.lib1 before org.lib10, but clients.csv puts org.lib10
    # first; a seed's sample is its draw over the rows as clients.csv lists them.
    artifacts, edges, jar_root = build_two_library_fixture(tmp_path / "fixture")
    for seed in range(6):
        out = tmp_path / f"seed-{seed}"
        code = main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                     "--jars", str(jar_root), "--out", str(out), "--jobs", "1",
                     "--seed", str(seed), "--sample", "all:0.5:0.4"])
        assert code == 0
        with open(out / "clients.csv", newline="", encoding="utf-8") as handle:
            clients = list(csv.DictReader(handle))
        with open(out / "sample_sizes.csv", newline="", encoding="utf-8") as handle:
            (sizes,) = csv.DictReader(handle)
        drawn = random.Random(seed).sample(range(len(clients)), int(sizes["sample_size"]))
        expected = [["all", *itemgetter("client", "library", "v1", "v2")(clients[i])] for i in sorted(drawn)]
        with open(out / "samples.csv", newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle))[1:] == expected, seed


def test_corpus_compares_release_dates_with_and_without_a_utc_offset(tmp_path):
    # A date without an offset is read as UTC. g:lib 1.0.0 is out at 08:00Z,
    # after 1.1.0 at 06:00Z, so the pair is inverted. Neither version of x:app
    # follows the other along NEXT, so the later one, 1.0.0 at 23:00Z against
    # 2.0.0 at 20:00Z, is g:other's client.
    jar_root = tmp_path / "jars"
    write_jar(jar_root / "lib.jar", [ClassSpec("p.A")])
    write_jar(jar_root / "other-1.0.0.jar", [ClassSpec("o.X", methods=(MethodSpec("x"),))])
    write_jar(jar_root / "other-1.1.0.jar", [ClassSpec("o.X")])
    rows = [
        ("g", "lib", "1.0.0", "2010-01-01T03:00:00-05:00", "jar", "lib.jar"),
        ("g", "lib", "1.1.0", "2010-01-01T06:00:00", "jar", "lib.jar"),
        ("g", "other", "1.0.0", "2010-01-01", "jar", "other-1.0.0.jar"),
        ("g", "other", "1.1.0", "2010-06-01T12:00:00+02:00", "jar", "other-1.1.0.jar"),
        ("x", "app", "1.0.0", "2010-02-01T00:00:00+01:00", "jar", ""),
        ("x", "app", "2.0.0", "2010-01-31T20:00:00", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("NEXT", "", "g:other:1.0.0", "g:other:1.1.0"),
        ("DEPENDS", "compile", "x:app:1.0.0", "g:lib:1.0.0"),
        ("DEPENDS", "compile", "x:app:1.0.0", "g:other:1.0.0"),
        ("DEPENDS", "compile", "x:app:2.0.0", "g:other:1.0.0"),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    common = ["--artifacts", str(artifacts), "--edges", str(edges), "--jars", str(jar_root)]
    assert main(["corpus", "derive", *common, "--out", str(tmp_path / "derived")]) == 0
    assert main(["corpus", "run", *common, "--out", str(tmp_path / "ran"), "--jobs", "1"]) == 0
    for out in ("derived", "ran"):
        exclusions = (tmp_path / out / "exclusions.csv").read_text(encoding="utf-8").splitlines()
        assert exclusions[1:] == ["pair,g:lib:1.0.0,g:lib:1.1.0,release_date_inversion"]
    ran = tmp_path / "ran"
    assert (ran / "clients.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "x:app:1.0.0,compile,g:other,1.0.0,1.1.0,minor,,0"
    ]
    with open(ran / "upgrades.csv", newline="", encoding="utf-8") as handle:
        assert [row["year"] for row in csv.DictReader(handle)] == ["2010"]


@pytest.mark.parametrize("build, reasons", [
    (build_fixture, {"qualified", "no_external_client"}),
    (build_every_reason_fixture, {
        "qualified", "not_an_upgrade", "no_external_client", "packaging_not_jar", "jar_unavailable",
        "unreadable_jar", "non_java_language", "invalid_java_version", "release_date_inversion",
    }),
], ids=["fixture", "every_reason"])
def test_corpus_derive_exclusions_match_run(tmp_path, build, reasons):
    artifacts, edges, jar_root = build(tmp_path / "fixture")
    common = ["--artifacts", str(artifacts), "--edges", str(edges), "--jars", str(jar_root)]
    assert main(["corpus", "derive", *common, "--out", str(tmp_path / "derived")]) == 0
    assert main(["corpus", "run", *common, "--out", str(tmp_path / "ran"), "--jobs", "1"]) == 0
    derived = (tmp_path / "derived" / "exclusions.csv").read_bytes()
    assert {line.rpartition(b",")[2] for line in derived.splitlines()[1:]} == {r.encode() for r in reasons}
    assert derived == (tmp_path / "ran" / "exclusions.csv").read_bytes()


@pytest.mark.parametrize(
    "build", [build_fixture, build_two_library_fixture], ids=["fixture", "two_libraries"]
)
def test_corpus_derive_upgrades_match_run_in_run_order(tmp_path, build):
    # On the two-library fixture, org.lib10's walk reaches 1.10.5 -> 1.11.0
    # before 1.9.0 -> 1.10.0; both files put them in version order.
    artifacts, edges, jar_root = build(tmp_path / "fixture")
    common = ["--artifacts", str(artifacts), "--edges", str(edges), "--jars", str(jar_root)]
    assert main(["corpus", "derive", *common, "--out", str(tmp_path / "derived")]) == 0
    assert main(["corpus", "run", *common, "--out", str(tmp_path / "ran"), "--jobs", "1"]) == 0
    with open(tmp_path / "derived" / "upgrades.csv", newline="", encoding="utf-8") as handle:
        derived = list(csv.reader(handle))
    with open(tmp_path / "ran" / "upgrades.csv", newline="", encoding="utf-8") as handle:
        ran = [row[:5] for row in csv.reader(handle)]
    assert len(derived) > 3
    assert derived == ran


def test_a_data_error_prints_one_line_on_stderr(tmp_path):
    # In a process of its own, so that the line a logging handler would
    # print reaches stderr instead of pytest's log capture.
    proc = subprocess.run(
        [sys.executable, "-m", "jarcompat.cli", "delta", str(tmp_path / "missing.jar"), str(tmp_path / "x.jar")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(analyze.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"jarcompat: {tmp_path / 'missing.jar'}: ")


def test_corpus_run_seed_without_sample_is_a_usage_error(tmp_path, capsys):
    # Only the --sample draws read the seed, so alone it would change nothing.
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
              "--jars", str(jar_root), "--out", str(tmp_path / "o"), "--jobs", "1", "--seed", "3"])
    assert exc.value.code == 2
    assert "--sample" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("level", ["all", *LEVEL_ORDER, "beta", "Major"])
def test_corpus_run_samples_all_clients_or_one_level(tmp_path, capsys, level):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    out = tmp_path / "o"
    code = main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                 "--jars", str(jar_root), "--out", str(out), "--jobs", "1", "--sample", f"{level}:0.95:0.05"])
    if level in ("all", *LEVEL_ORDER):
        assert code == 0
        with open(out / "sample_sizes.csv", newline="", encoding="utf-8") as handle:
            assert [row["level"] for row in csv.DictReader(handle)] == [level]
    else:
        assert code == 3
        assert f"unknown sample level {level!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("spec", ["all:1.5:0.05", "all:0.95:0", "major:0.95:nan", "minor:nan:0.05",
                                  "all:1:0.05", "patch:0.95:-0.1"])
def test_corpus_run_rejects_a_sample_confidence_or_margin_outside_zero_to_one(tmp_path, capsys, spec):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    out = tmp_path / "o"
    code = main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                 "--jars", str(jar_root), "--out", str(out), "--jobs", "1", "--sample", spec])
    assert code == 3
    err = capsys.readouterr().err
    assert f"bad sample spec {spec!r}: confidence and margin must be in (0, 1)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_corpus_run_counts_a_corrupt_client_jar_as_missing(tmp_path, caplog):
    outputs = {}
    for case in ("corrupt", "damaged", "deleted"):
        artifacts, edges, jar_root = build_fixture(tmp_path / case)
        client_jar = jar_root / "mock-1.0.0.jar"
        if case == "corrupt":
            client_jar.write_text("not a zip archive\n", encoding="utf-8")
        elif case == "damaged":
            first = zipfile.ZipFile(client_jar).namelist()[0]
            client_jar.write_bytes(damage_entry(client_jar.read_bytes(), first))
        else:
            client_jar.unlink()
        out = tmp_path / case / "out"
        assert main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                     "--jars", str(jar_root), "--out", str(out), "--jobs", "1"]) == 0
        outputs[case] = [(out / name).read_bytes() for name in ("clients.csv", "detections.csv")]
    assert outputs["corrupt"] == outputs["damaged"] == outputs["deleted"]
    assert b"org.fw:mock:1.0.0,compile,javax.servlet:servlet-api,3.0.1,3.1.0,minor,,0\n" in outputs["corrupt"][0]
    assert "mock-1.0.0.jar" in caplog.text


@pytest.mark.parametrize("defect", ["version", "name"], ids=["extract-version-6.4", "utf8-flag-on-a-name-not-in-utf8"])
def test_a_jar_whose_central_directory_zipfile_refuses_costs_one_row(tmp_path, jars, capsys, defect):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    for name in ("mock-1.0.0.jar", "servlet-api-4.0.1.jar"):
        (jar_root / name).write_bytes(refuse_directory((jar_root / name).read_bytes(), defect))
    out = tmp_path / "out"
    assert main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                 "--jars", str(jar_root), "--out", str(out), "--jobs", "1"]) == 0
    # The client keeps its row, without a verdict; the library pair is excluded.
    clients = (out / "clients.csv").read_text(encoding="utf-8")
    assert "org.fw:mock:1.0.0,compile,javax.servlet:servlet-api,3.0.1,3.1.0,minor,,0\n" in clients
    exclusions = (out / "exclusions.csv").read_text(encoding="utf-8")
    assert "pair,javax.servlet:servlet-api:4.0.0,javax.servlet:servlet-api:4.0.1,unreadable_jar\n" in exclusions
    bad = tmp_path / "bad.jar"
    bad.write_bytes(refuse_directory(jars["v2"].read_bytes(), defect))
    assert main(["delta", str(jars["v1"]), str(bad)]) == 3
    assert main(["detect", str(jars["v1"]), str(bad), str(jars["client"])]) == 3
    assert capsys.readouterr().err.count("bad.jar") == 2


def test_corpus_run_reads_each_library_jar_once(tmp_path, monkeypatch):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    reads = Counter()
    read_bytes = Path.read_bytes

    def counted(path):
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    assert main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                 "--jars", str(jar_root), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    library_reads = {name: n for name, n in reads.items() if name.startswith("servlet-api-")}
    assert library_reads == {f"servlet-api-{v}.jar": 1 for v in ("3.0.1", "3.1.0", "4.0.0", "4.0.1")}


# A library whose one upgrade removes a @x.Beta method, which its client calls.
BETA_ROWS = [
    ("org.b", "lib", "1.0.0", "2015-01-01", "jar", "lib-1.0.0.jar"),
    ("org.b", "lib", "2.0.0", "2016-01-01", "jar", "lib-2.0.0.jar"),
    ("org.c", "app", "1.0.0", "2015-06-01", "jar", "app-1.0.0.jar"),
]
BETA_EDGES = [
    ("NEXT", "", "org.b:lib:1.0.0", "org.b:lib:2.0.0"),
    ("DEPENDS", "compile", "org.c:app:1.0.0", "org.b:lib:1.0.0"),
]


def test_corpus_run_recomputes_deltas_under_another_stability_config(tmp_path):
    artifacts, edges = write_graph_csvs(tmp_path / "graph", BETA_ROWS, BETA_EDGES)
    jars = tmp_path / "graph" / "jars"
    write_jar(jars / "lib-1.0.0.jar", [ClassSpec("p.A", methods=(
        MethodSpec("m", annotations=("x.Beta",)), MethodSpec("keep")))])
    write_jar(jars / "lib-2.0.0.jar", [ClassSpec("p.A", methods=(MethodSpec("keep"),))])
    write_jar(jars / "app-1.0.0.jar", [ClassSpec("c.Use", methods=(
        MethodSpec("run", calls=(("p.A", "m", "()V"),)),))])
    # Under this config @Beta marks nothing unstable, so the removal is a stable break.
    config = tmp_path / "stability.cfg"
    config.write_text("[keywords]\nzzz\n[annotations]\n", encoding="utf-8")

    def run(out, *extra):
        assert main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                     "--jars", str(jars), "--out", str(out), "--jobs", "1", *extra]) == 0
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    reused = tmp_path / "reused"
    assert b",major,2016,false,true,1,0," in run(reused)["upgrades.csv"]
    rerun = run(reused, "--stability-config", str(config))
    fresh = run(tmp_path / "fresh", "--stability-config", str(config))
    assert b",major,2016,true,true,1,1," in fresh["upgrades.csv"]
    assert rerun == fresh


# "org.lib1" sorts before "org.lib10" as a (group, artifact) tuple, but
# "org.lib10:..." sorts before "org.lib1:..." as a string, and version "1.10.0"
# sorts before "1.9.0" as a string.
ORDERING_ROWS = [
    ("org.lib1", "lib1", "1.9.0", "2015-01-01", "jar", ""),
    ("org.lib1", "lib1", "1.10.0-rc1", "2015-06-01", "jar", ""),
    ("org.lib1", "lib1", "1.10.0", "2016-01-01", "jar", ""),
    ("org.lib1", "lib1", "2.0.0", "2017-01-01", "jar", ""),
    ("org.lib10", "lib10", "1.0.0", "2015-01-01", "jar", ""),
    ("org.lib10", "lib10", "1.1.0-beta", "2015-06-01", "jar", ""),
    ("org.lib10", "lib10", "1.1.0", "2016-01-01", "jar", ""),
    ("x.c", "c", "1.0.0", "2015-02-01", "jar", ""),
]
ORDERING_EDGES = [
    ("NEXT", "", "org.lib1:lib1:1.9.0", "org.lib1:lib1:1.10.0-rc1"),
    ("NEXT", "", "org.lib1:lib1:1.10.0-rc1", "org.lib1:lib1:1.10.0"),
    ("NEXT", "", "org.lib1:lib1:1.10.0", "org.lib1:lib1:2.0.0"),
    ("NEXT", "", "org.lib10:lib10:1.0.0", "org.lib10:lib10:1.1.0-beta"),
    ("NEXT", "", "org.lib10:lib10:1.1.0-beta", "org.lib10:lib10:1.1.0"),
    ("DEPENDS", "compile", "x.c:c:1.0.0", "org.lib10:lib10:1.0.0"),
]
ORDERED_EXCLUSIONS = """\
stage,subject,v2,reason
version,org.lib10:lib10:1.1.0-beta,,qualified
version,org.lib1:lib1:1.10.0-rc1,,qualified
pair,org.lib1:lib1:1.10.0,org.lib1:lib1:2.0.0,no_external_client
pair,org.lib1:lib1:1.9.0,org.lib1:lib1:1.10.0,no_external_client
pair,org.lib10:lib10:1.0.0,org.lib10:lib10:1.1.0,jar_unavailable
"""


@pytest.mark.parametrize(
    "command", [["derive"], ["run", "--jobs", "1"], ["run", "--jobs", "2"]],
    ids=["derive", "run-jobs-1", "run-jobs-2"],
)
def test_exclusions_order_versions_by_string_then_pairs_by_tuple(tmp_path, command):
    artifacts, edges = write_graph_csvs(tmp_path / "graph", ORDERING_ROWS, ORDERING_EDGES)
    out = tmp_path / "out"
    assert main(["corpus", command[0], "--artifacts", str(artifacts), "--edges", str(edges),
                 "--out", str(out), *command[1:]]) == 0
    assert (out / "exclusions.csv").read_text(encoding="utf-8") == ORDERED_EXCLUSIONS
    if command[0] == "run":
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert (summary["candidates"], summary["emitted"], summary["excluded"]) == (3, 0, 3)
        assert summary["exclusionReasons"] == {"no_external_client": 2, "jar_unavailable": 1}
        assert summary["skippedVersions"] == {"qualified": 2}


def test_corpus_derive_rejects_run_only_flags(tmp_path):
    artifacts, edges, _ = build_fixture(tmp_path / "fixture")
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "derive", "--artifacts", str(artifacts), "--edges", str(edges),
              "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == 2


def test_corpus_run_rejects_scope(tmp_path):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
              "--jars", str(jar_root), "--out", str(tmp_path / "o"), "--scope", "all"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_must_be_a_positive_whole_number(tmp_path, jobs, capsys):
    artifacts, edges, _ = build_fixture(tmp_path / "fixture")
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
              "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_corpus_schema_error_exit_three(tmp_path):
    artifacts = tmp_path / "artifacts.csv"
    artifacts.write_text("wrong,header\n", encoding="utf-8")
    edges = tmp_path / "edges.csv"
    edges.write_text("kind,scope,from,to\n", encoding="utf-8")
    code = main(
        ["corpus", "derive", "--artifacts", str(artifacts), "--edges", str(edges), "--out", str(tmp_path / "o")]
    )
    assert code == 3


@pytest.mark.parametrize("command", ["derive", "run"])
@pytest.mark.parametrize("table", ["artifacts", "edges"])
@pytest.mark.parametrize("defect", ["not utf-8", "over-long cell"])
def test_corpus_unreadable_graph_file_exit_three(tmp_path, capsys, command, table, defect):
    artifacts, edges = write_graph_csvs(tmp_path / "fixture")
    path = {"artifacts": artifacts, "edges": edges}[table]
    lines = len(path.read_bytes().splitlines())
    cell = b"\xff" if defect == "not utf-8" else b"x" * 140_000
    with open(path, "ab") as handle:
        handle.write(b"g," + cell + b",1.0.0,2010-01-01,jar,\n")
    out = tmp_path / "o"
    code = main(["corpus", command, "--artifacts", str(artifacts), "--edges", str(edges), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    if defect == "not utf-8":
        assert f"{path}: not UTF-8" in err
    else:
        assert f"{path}:{lines + 1}: field larger than field limit" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["derive", "run"])
def test_corpus_next_cycle_exit_three(tmp_path, capsys, command):
    artifacts, edges = write_graph_csvs(tmp_path / "fixture")
    with open(edges, "a", encoding="utf-8") as handle:
        handle.write("NEXT,,org.fw:multi:1.2.0,org.fw:multi:1.0.0\n")
    out = tmp_path / "o"
    code = main(["corpus", command, "--artifacts", str(artifacts), "--edges", str(edges), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{edges}: NEXT edges form a cycle through org.fw:multi:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_corpus_run_recomputes_a_delta_file_cut_short(tmp_path):
    # A run killed while writing a delta file can leave part of it behind.
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    out = tmp_path / "results"
    command = ["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
               "--jars", str(jar_root), "--out", str(out), "--jobs", "1"]

    def files() -> dict[str, bytes]:
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    assert main(command) == 0
    cold = files()
    cut = sorted((out / "deltas").glob("*.json"))[0]
    cut.write_bytes(cut.read_bytes()[:100])
    assert main(command) == 0
    assert files() == cold


# The published table 5: sampled and broken clients per level.
TABLE5 = {
    "levels": {
        "major": {"population": 29847, "sample": 10663, "broken": 1250},
        "minor": {"population": 111830, "sample": 14445, "broken": 1130},
        "patch": {"population": 123286, "sample": 14621, "broken": 735},
        "dev": {"population": 28854, "sample": 10533, "broken": 1772},
    }
}


def test_analyze_summary_mode(tmp_path):
    summary_path = tmp_path / "table5.json"
    summary_path.write_text(json.dumps(TABLE5), encoding="utf-8")
    out = tmp_path / "report"
    code = main(["analyze", "--out", str(out), "--summary", str(summary_path)])
    assert code == 0
    proportions = (out / "proportions.csv").read_text(encoding="utf-8").splitlines()
    assert "major,29847,10663,1250,11.7" in proportions
    pairwise = (out / "q3_pairwise_fisher.csv").read_text(encoding="utf-8").splitlines()
    major_minor = next(line for line in pairwise if line.startswith("major vs minor"))
    assert ",0.64," in major_minor
    assert major_minor.endswith("***")


def test_analyze_pipeline_results(tmp_path, capsys):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    results = tmp_path / "results"
    assert (
        main(
            [
                "corpus", "run",
                "--artifacts", str(artifacts),
                "--edges", str(edges),
                "--jars", str(jar_root),
                "--out", str(results),
            ]
        )
        == 0
    )
    out = tmp_path / "analysis"
    assert main(["analyze", str(results), "--out", str(out)]) == 0
    q1 = (out / "q1_ratios.csv").read_text(encoding="utf-8").splitlines()
    total = next(line for line in q1 if line.startswith("total,"))
    assert total.split(",")[1] == "3"
    assert (out / "report.md").exists()
    assert (out / "q2_trend.csv").exists()


def test_analyze_empty_results(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    out = tmp_path / "analysis"
    assert main(["analyze", str(results), "--out", str(out)]) == 0
    assert (out / "report.md").exists()


UPGRADE_HEADER = ["group", "artifact", "v1", "v2", "level", "year", "breaking", "breaking_any",
                  "bc_count", "bc_count_stable", "delta_file"]
CLIENT_HEADER = ["client", "scope", "library", "v1", "v2", "level", "broken", "detections"]


def results_tables() -> tuple[list[list], list[list]]:
    """Small upgrades and clients tables covering every level, laid out as ``corpus run`` writes them."""
    upgrades, clients = [], []
    for i in range(24):
        level = LEVEL_ORDER[i % 4]
        breaking = "true" if i % 3 == 0 else "false"
        upgrades.append(["g", f"a{i}", "1.0", "2.0", level, 2010 + i % 5, breaking, breaking, i % 3, 0, ""])
    for i in range(40):
        level = LEVEL_ORDER[i % 4]
        broken = i % 5 < 2
        clients.append([f"c{i}:app:1", "compile", f"g:a{i}", "1.0", "2.0", level,
                        "true" if broken else "false", 1 + i % 7 if broken else 0])
    return upgrades, clients


def write_table(path, header: list[str], rows: list[list], order: list[str] | None = None) -> None:
    """Write ``rows`` under ``header``, with the columns rearranged into ``order`` if given."""
    order = order or header
    picks = [header.index(name) if name in header else None for name in order]
    write_csv(path, order, [["x" if i is None else row[i] for i in picks] for row in rows])


def report_files(out) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def record_fallbacks(monkeypatch) -> list[str]:
    """The names of the tables ``analyze`` counts with ``csv.reader`` from now on, in order."""
    fell_back = []
    count_rows = analyze._count_rows

    def recording(path, columns):
        fell_back.append(path.name)
        return count_rows(path, columns)

    monkeypatch.setattr(analyze, "_count_rows", recording)
    return fell_back


def count_in_ranges(monkeypatch, n: int) -> None:
    """Have ``analyze`` cut its tables into ``n`` ranges, whatever their size and the host's CPUs.
    Forked counters inherit both patches."""
    monkeypatch.setattr(analyze, "_RANGE_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_analyze_reads_columns_by_name(tmp_path):
    upgrades, clients = results_tables()
    canonical = tmp_path / "canonical"
    canonical.mkdir()
    write_table(canonical / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(canonical / "clients.csv", CLIENT_HEADER, clients)
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    write_table(shuffled / "upgrades.csv", UPGRADE_HEADER, upgrades,
                ["extra"] + list(reversed(UPGRADE_HEADER)))
    write_table(shuffled / "clients.csv", CLIENT_HEADER, clients,
                CLIENT_HEADER[5:] + ["extra"] + CLIENT_HEADER[:5])
    assert main(["analyze", str(canonical), "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", str(shuffled), "--out", str(tmp_path / "b")]) == 0
    expected = report_files(tmp_path / "a")
    assert set(expected) == {"q1_ratios.csv", "q2_trend.csv", "q3_pairwise_fisher.csv",
                             "q3_pairwise_mannwhitney.csv", "report.md"}
    assert report_files(tmp_path / "b") == expected


ANALYZE_GOLDEN = Path(__file__).parent / "golden" / "analyze"


def analyze_input(root: Path, name: str) -> list[str]:
    """Write one golden input under ``root``; returns the ``analyze`` arguments that read it."""
    root.mkdir(parents=True)
    if name == "summary":
        (root / "table5.json").write_text(json.dumps(TABLE5), encoding="utf-8")
        return ["--summary", str(root / "table5.json")]
    upgrades, clients = results_tables()
    write_table(root / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(root / "clients.csv", CLIENT_HEADER, clients)
    return [str(root)]


@pytest.mark.parametrize("name", ["results", "summary"])
def test_analyze_outputs_match_golden_files(tmp_path, name):
    out = tmp_path / "out"
    assert main(["analyze", *analyze_input(tmp_path / "in", name), "--out", str(out)]) == 0
    assert report_files(out) == report_files(ANALYZE_GOLDEN / name)


@pytest.mark.parametrize("layout", ["crlf", "quoted comma"])
def test_analyze_tables_read_with_csv_reader_match_golden_files(tmp_path, monkeypatch, layout):
    # A CR or a quote sends a table to csv.reader; the reports must not change.
    results = tmp_path / "in"
    results.mkdir()
    upgrades, clients = results_tables()
    if layout == "quoted comma":
        clients[0][CLIENT_HEADER.index("client")] = "c0,x:app:1"  # write_csv quotes it
    write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(results / "clients.csv", CLIENT_HEADER, clients)
    if layout == "crlf":
        for table in ("upgrades.csv", "clients.csv"):
            path = results / table
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    fell_back = record_fallbacks(monkeypatch)
    out = tmp_path / "out"
    assert main(["analyze", str(results), "--out", str(out)]) == 0
    assert fell_back == (["upgrades.csv", "clients.csv"] if layout == "crlf" else ["clients.csv"])
    assert report_files(out) == report_files(ANALYZE_GOLDEN / "results")


@pytest.mark.parametrize("inputs", [[], ["results", "--summary", "table5.json"]], ids=["neither", "both"])
def test_analyze_takes_exactly_one_input(tmp_path, inputs):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *inputs, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_analyze_missing_results_directory_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    assert main(["analyze", str(missing), "--out", str(tmp_path / "out")]) == 3
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_summary_with_an_unknown_level_is_a_data_error(tmp_path, capsys):
    levels = dict(TABLE5["levels"])
    levels["Major"] = levels.pop("major")
    summary = tmp_path / "counts.json"
    summary.write_text(json.dumps({"levels": levels}), encoding="utf-8")
    assert main(["analyze", "--summary", str(summary), "--out", str(tmp_path / "out")]) == 3
    assert "'Major'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, error", [
    (b"\xff{}", "not UTF-8 (invalid start byte)"),
    (b'{"levels": {', "not JSON (Expecting property name"),
    (b"[]", 'no "levels" object'),
    (b"{}", 'no "levels" object'),
    (b'{"levels": []}', 'no "levels" object'),
    (b'{"levels": {"major": 5}}', "level 'major' is not an object"),
    (b'{"levels": {"major": {"sample": 10}}}', "level 'major' has no broken"),
    (b'{"levels": {"major": {"sample": "10", "broken": 1}}}', "level 'major' sample \"10\" is not a count"),
    (b'{"levels": {"minor": {"sample": 10, "broken": 1.5}}}', "level 'minor' broken 1.5 is not a count"),
    (b'{"levels": {"patch": {"sample": 10, "broken": true}}}', "level 'patch' broken true is not a count"),
    (b'{"levels": {"dev": {"population": -1, "sample": 3, "broken": 1}}}', "level 'dev' population -1 is not a count"),
    (b'{"levels": {"dev": {"population": 9, "sample": 3, "broken": 5}}}', "level 'dev' broken 5 exceeds sample 3"),
], ids=["not utf-8", "not json", "list", "no levels", "levels list", "entry not object", "no broken",
        "string count", "float count", "bool count", "negative count", "broken over sample"])
def test_analyze_bad_summary_is_a_data_error(tmp_path, capsys, text, error):
    summary = tmp_path / "counts.json"
    summary.write_bytes(text)
    assert main(["analyze", "--summary", str(summary), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{summary}: {error}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table, header", [("upgrades.csv", UPGRADE_HEADER), ("clients.csv", CLIENT_HEADER)])
def test_analyze_unknown_level_cell_is_a_data_error(tmp_path, capsys, table, header):
    # Counted as its own level, "Major" would add to the totals but to no level's row.
    upgrades, clients = results_tables()
    {"upgrades.csv": upgrades, "clients.csv": clients}[table][0][header.index("level")] = "Major"
    results = tmp_path / "results"
    results.mkdir()
    write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(results / "clients.csv", CLIENT_HEADER, clients)
    assert main(["analyze", str(results), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{results / table}: bad level cell 'Major'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verdict", ["true", "false"])
def test_analyze_when_every_client_has_the_same_verdict(tmp_path, verdict):
    # A 2 x k table with an empty column has no chi-squared statistic, but
    # the pairwise tests are still defined.
    upgrades, clients = results_tables()
    for i, row in enumerate(clients):
        row[CLIENT_HEADER.index("broken")] = verdict
        row[CLIENT_HEADER.index("detections")] = 1 + i % 7 if verdict == "true" else 0
    results = tmp_path / "results"
    results.mkdir()
    write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(results / "clients.csv", CLIENT_HEADER, clients)
    out = tmp_path / "out"
    assert main(["analyze", str(results), "--out", str(out)]) == 0
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "- chi-squared across levels: undefined for this table" in report
    fisher = list(csv.reader(io.StringIO((out / "q3_pairwise_fisher.csv").read_text(encoding="utf-8"))))
    pairs = itertools.combinations(LEVEL_ORDER, 2)
    assert [row[:3] for row in fisher[1:]] == [[f"{a} vs {b}", "1", "1"] for a, b in pairs]
    mann_whitney = (out / "q3_pairwise_mannwhitney.csv").read_text(encoding="utf-8").splitlines()
    assert len(mann_whitney) == (7 if verdict == "true" else 1)


@pytest.mark.parametrize("defect", ["no detections column", "short row"])
def test_analyze_malformed_clients_is_a_data_error(tmp_path, capsys, defect):
    upgrades, clients = results_tables()
    results = tmp_path / "results"
    results.mkdir()
    write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
    if defect == "short row":
        write_table(results / "clients.csv", CLIENT_HEADER, clients)
        with open(results / "clients.csv", "a", encoding="utf-8") as handle:
            handle.write("c:app:1,compile,g:a,1.0,2.0\n")
    else:
        write_table(results / "clients.csv", CLIENT_HEADER, clients, CLIENT_HEADER[:-1])
    assert main(["analyze", str(results), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(results / "clients.csv") in err
    assert ("detections" in err) == (defect == "no detections column")
    if defect == "short row":
        # The header is line 1, so the appended row is line len(clients) + 2.
        assert f"clients.csv:{len(clients) + 2}: too few cells" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("table, header, column, bad", [
    ("upgrades.csv", UPGRADE_HEADER, "year", "20x1"),
    ("clients.csv", CLIENT_HEADER, "detections", "x7"),
    # corpus run writes a count in ASCII digits; read as a float, each of
    # these would enter the rank tests.
    *[
        ("clients.csv", CLIENT_HEADER, "detections", bad)
        for bad in ("nan", "inf", "-4", "2.5", "1e3", "+3", " 3", "\u0663")
    ],
])
def test_analyze_bad_number_names_file_column_and_value(tmp_path, capsys, table, header, column, bad):
    upgrades, clients = results_tables()
    # The first client row is a broken one, so analyze reads its detections.
    {"upgrades.csv": upgrades, "clients.csv": clients}[table][0][header.index(column)] = bad
    results = tmp_path / "results"
    results.mkdir()
    write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(results / "clients.csv", CLIENT_HEADER, clients)
    assert main(["analyze", str(results), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(results / table) in err
    assert column in err and repr(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("table, header, column, bad", [
    ("upgrades.csv", UPGRADE_HEADER, "breaking", "TRUE"),
    ("upgrades.csv", UPGRADE_HEADER, "breaking", ""),
    ("clients.csv", CLIENT_HEADER, "broken", "TRUE"),
    ("clients.csv", CLIENT_HEADER, "broken", "yes"),
])
def test_analyze_bad_verdict_cell_is_a_data_error(tmp_path, capsys, table, header, column, bad):
    # Taken as false or dropped, such a cell would change the ratios without a word.
    upgrades, clients = results_tables()
    {"upgrades.csv": upgrades, "clients.csv": clients}[table][0][header.index(column)] = bad
    results = tmp_path / "results"
    results.mkdir()
    write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(results / "clients.csv", CLIENT_HEADER, clients)
    assert main(["analyze", str(results), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{results / table}: bad {column} cell {bad!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_analyze_header_only_upgrades_is_like_none(tmp_path):
    _, clients = results_tables()
    without = tmp_path / "without"
    without.mkdir()
    write_table(without / "clients.csv", CLIENT_HEADER, clients)
    header_only = tmp_path / "header_only"
    header_only.mkdir()
    write_table(header_only / "clients.csv", CLIENT_HEADER, clients)
    write_table(header_only / "upgrades.csv", UPGRADE_HEADER, [])
    assert main(["analyze", str(without), "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", str(header_only), "--out", str(tmp_path / "b")]) == 0
    expected = report_files(tmp_path / "a")
    assert "q1_ratios.csv" not in expected
    assert report_files(tmp_path / "b") == expected


@pytest.mark.parametrize("copies", [1, 3])
def test_analyze_reports_do_not_depend_on_row_order(tmp_path, copies):
    upgrades, clients = results_tables()
    upgrades, clients = upgrades * copies, clients * copies
    rng = random.Random(copies)
    for name, rows in (("canonical", (upgrades, clients)),
                       ("shuffled", (rng.sample(upgrades, len(upgrades)), rng.sample(clients, len(clients))))):
        (tmp_path / name).mkdir()
        write_table(tmp_path / name / "upgrades.csv", UPGRADE_HEADER, rows[0])
        write_table(tmp_path / name / "clients.csv", CLIENT_HEADER, rows[1])
        assert main(["analyze", str(tmp_path / name), "--out", str(tmp_path / f"{name}-out")]) == 0
    expected = report_files(tmp_path / "canonical-out")
    assert len(expected) == 5
    assert report_files(tmp_path / "shuffled-out") == expected


def count_cells(path: Path, columns: tuple[str, ...]) -> Counter:
    """``analyze._count_cells`` of one table."""
    return analyze._count_cells([(path, columns)])[0]


def count_columns(path: Path, columns: tuple[str, ...]) -> Counter | None:
    """``analyze._count_cells`` of one table over its bytes, or None where it falls back to csv.reader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyze, "_count_rows", lambda path, columns: None)
        return count_cells(path, columns)


def reference_counts(path: Path, columns: tuple[str, ...]) -> Counter:
    """What ``_count_cells`` must give: every row after the header through csv.reader."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        pick = itemgetter(*(header.index(name) for name in columns))
        try:
            return Counter(map(pick, filter(None, reader)))
        except IndexError:
            raise ValueError(f"{path}:{reader.line_num}: too few cells") from None


def outcome(count, path: Path, columns: tuple[str, ...]):
    try:
        return count(path, columns)
    except ValueError as exc:
        return str(exc)


# Cell separators, line ends and blank lines, a quote, characters that
# str.splitlines also breaks on, a non-ASCII letter, cells and whole rows.
TABLE_TEXT = st.lists(st.sampled_from([",", '"', "\r", "\n", "\n\n", "\x0b", "\x1c", "\x85", "\u2028",
                                       "é", "7", "x,y,z\n"]), max_size=40).map("".join)


@settings(max_examples=200, deadline=None)
@given(eol=st.sampled_from(["\n", "\r\n"]), body=TABLE_TEXT,
       columns=st.permutations(["a", "b", "c"]).map(lambda names: tuple(names[:2])))
def test_count_cells_matches_csv_reader(tmp_path_factory, eol, body, columns):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("a,b,c" + eol + body)
    expected = outcome(reference_counts, path, columns)
    for chunk in (1, 2, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analyze, "_CHUNK", chunk)
            assert outcome(count_cells, path, columns) == expected, chunk


# Cells that make header-width rows: characters of two, three and four
# UTF-8 bytes, which straddle chunk edges, NUL, and characters that
# str.splitlines breaks on.
CELL = st.text(st.sampled_from(["\u00e9", "\u20ac", "\U0001f600", "\x00", "\x85", "\u2028", "0", "7"]), max_size=3)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(CELL, min_size=3, max_size=3), min_size=1, max_size=12),
       columns=st.permutations(["a", "b", "c"]).map(lambda names: tuple(names[:2])),
       last_line_ended=st.booleans(), defect=st.sampled_from(["short", "long", "blank"]), at=st.integers(0, 12))
def test_count_columns_splits_header_width_tables(tmp_path_factory, rows, columns, last_line_ended, defect, at):
    def table(lines: list[str], ended: bool) -> Path:
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_bytes(("a,b,c\n" + "\n".join(lines) + "\n" * ended).encode("utf-8"))
        return path

    lines = [",".join(row) for row in rows]
    at %= len(lines)
    damaged = list(lines)
    if defect == "short":
        damaged[at] = ",".join(rows[at][:2])
    elif defect == "long":
        damaged[at] += ","
    else:
        damaged.insert(at, "")
    # A blank last line needs its line end, or it is no line at all.
    clean, bad = table(lines, last_line_ended), table(damaged, last_line_ended or defect == "blank")
    expected, expected_bad = reference_counts(clean, columns), outcome(reference_counts, bad, columns)
    for chunk in (1, 2, 7, analyze._CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analyze, "_CHUNK", chunk)
            counts = count_columns(clean, columns)
            assert counts is not None and counts == expected, chunk
            assert count_columns(bad, columns) is None, chunk
            assert outcome(count_cells, bad, columns) == expected_bad, chunk


@pytest.mark.parametrize("table, columns", [
    ("upgrades.csv", ("level", "breaking", "year")),
    ("clients.csv", ("level", "broken", "detections")),
])
def test_count_columns_splits_the_golden_results_tables(table, columns):
    # corpus run's own tables must never fall back to csv.reader.
    paths = sorted((Path(__file__).parent / "golden" / "corpus_run").glob(f"*/{table}"))
    assert len(paths) == 2
    for path in paths:
        counts = count_columns(path, columns)
        assert counts is not None and counts == reference_counts(path, columns), path


def test_count_cells_keeps_the_csv_field_limit(tmp_path):
    # A cell longer than csv.field_size_limit() fails where csv.reader fails,
    # as an error that names the file and the line.
    path = tmp_path / "table.csv"
    path.write_text("a,b,c\n1,2,3\n" + "x" * (csv.field_size_limit() + 1) + ",2,3\n", encoding="utf-8")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        reference_counts(path, ("a", "c"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: field larger than field limit"):
        count_cells(path, ("a", "c"))


# Rows of header width and blank lines, so that cuts fall next to both.
RANGE_LINES = st.lists(st.sampled_from(["x,y,z", "\u00e9,7,\u20ac", "1,,3", ""]), max_size=30)


@settings(max_examples=25, deadline=None)
@given(lines=RANGE_LINES, last_line_ended=st.booleans(), chunk=st.sampled_from([1, 3, 16 * 1024]),
       columns=st.permutations(["a", "b", "c"]).map(lambda names: tuple(names[:2])))
def test_count_cells_over_ranges_matches_csv_reader(tmp_path_factory, lines, last_line_ended, chunk, columns):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_bytes(("a,b,c\n" + "\n".join(lines) + "\n" * last_line_ended).encode("utf-8"))
    expected = reference_counts(path, columns)
    serial = count_columns(path, columns)
    for n in (1, 2, 3, 5):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analyze, "_CHUNK", chunk)
            count_in_ranges(patch, n)
            fell_back = record_fallbacks(patch)
            assert count_cells(path, columns) == expected, n
            # A blank line sends the table to csv.reader, in whichever range it is.
            assert fell_back == ([] if serial is not None else ["table.csv"]), n


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("defect", ["quote", "cr"])
def test_a_defect_in_a_later_range_sends_the_whole_table_to_csv_reader(tmp_path, monkeypatch, defect, n):
    results = tmp_path / "in"
    analyze_input(results, "results")
    path = results / "clients.csv"
    data = path.read_bytes()
    last = data.rindex(b"\n", 0, -1) + 1
    # Quoting the last row's first cell or ending it with CRLF leaves csv.reader's cells as they were.
    data = data[:last] + b'"' + data[last:].replace(b",", b'",', 1) if defect == "quote" else data[:-1] + b"\r\n"
    path.write_bytes(data)
    count_in_ranges(monkeypatch, n)
    ranges = analyze._ranges(path, ("level", "broken", "detections"), n)
    # Range 0 holds rows, and only the last range holds the defect.
    assert ranges[0][3] < ranges[0][4] <= ranges[-1][3] <= max(data.find(b'"'), data.find(b"\r"))
    fell_back = record_fallbacks(monkeypatch)
    out = tmp_path / "out"
    assert main(["analyze", str(results), "--out", str(out)]) == 0
    assert fell_back == ["clients.csv"]
    assert report_files(out) == report_files(ANALYZE_GOLDEN / "results")


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("name", ["results", "summary"])
def test_analyze_golden_files_with_tables_counted_in_ranges(tmp_path, monkeypatch, name, n):
    count_in_ranges(monkeypatch, n)
    jobs = []
    count_jobs = analyze._count_jobs
    monkeypatch.setattr(analyze, "_count_jobs", lambda js: jobs.append(len(js)) or count_jobs(js))
    out = tmp_path / "out"
    assert main(["analyze", *analyze_input(tmp_path / "in", name), "--out", str(out)]) == 0
    assert jobs == ([n] if name == "results" else [])
    assert report_files(out) == report_files(ANALYZE_GOLDEN / name)
    assert_no_child_left()


@pytest.mark.parametrize("name", ["results", "summary"])
def test_analyze_golden_files_where_processes_cannot_be_placed_on_cpus(tmp_path, monkeypatch, name):
    # Without os.sched_getaffinity, as off Linux, the tables are counted in one
    # range in this process, whatever their size and the machine's CPUs.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(analyze, "_RANGE_BYTES", 0)
    moves = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(cpus), raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    jobs = []
    count_jobs = analyze._count_jobs
    monkeypatch.setattr(analyze, "_count_jobs", lambda js: jobs.append(len(js)) or count_jobs(js))
    out = tmp_path / "out"
    assert main(["analyze", *analyze_input(tmp_path / "in", name), "--out", str(out)]) == 0
    assert jobs == ([1] if name == "results" else [])
    assert moves == []
    assert report_files(out) == report_files(ANALYZE_GOLDEN / name)


def test_analyze_of_tables_over_the_range_size_warns_of_nothing_in_dev_mode(tmp_path):
    # Each table is larger than _RANGE_BYTES, so on two or more CPUs they are
    # counted on a fork pool, in a process where unclosed files and pipes warn.
    results = tmp_path / "in"
    analyze_input(results, "results")
    for table in ("upgrades.csv", "clients.csv"):
        header, body = (results / table).read_bytes().split(b"\n", 1)
        (results / table).write_bytes(header + b"\n" + body * (analyze._RANGE_BYTES // len(body) + 1))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "jarcompat.cli",
         "analyze", str(results), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(analyze.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_the_cli_loads_neither_openssl_nor_multiprocessing():
    # -S keeps site's own imports out of the count.
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, jarcompat.cli; "
         "print([name for name in ('_hashlib', 'hashlib', 'multiprocessing') if name in sys.modules])"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(analyze.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_jobs_default_to_the_cpus_this_process_may_run_on(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 4, 6}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 3
    jobs = []
    monkeypatch.setattr("jarcompat.cli.run_pipeline", lambda graph, root, out, options: jobs.append(options.jobs) or {})
    artifacts, edges, _ = build_fixture(tmp_path / "fixture")
    assert main(["corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
                 "--out", str(tmp_path / "o")]) == 0
    assert jobs == [3]
    # Without os.sched_getaffinity, as off Linux, run_forked forks nothing,
    # so one process is all there is to use, whatever the machine's CPUs.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 1


@pytest.mark.parametrize("defect", ["not utf-8", "over-long cell"])
def test_analyze_unreadable_results_table_is_a_data_error(tmp_path, capsys, defect):
    upgrades, clients = results_tables()
    clients[1][0] = "@" if defect == "not utf-8" else "c" * 140_000
    results = tmp_path / "results"
    results.mkdir()
    write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
    write_table(results / "clients.csv", CLIENT_HEADER, clients)
    if defect == "not utf-8":  # byte 0xff in the third line
        table = results / "clients.csv"
        table.write_bytes(table.read_bytes().replace(b"@", b"\xff"))
    assert main(["analyze", str(results), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    if defect == "not utf-8":
        assert f"{results / 'clients.csv'}: not UTF-8" in err
    else:
        assert f"{results / 'clients.csv'}:3: field larger than field limit" in err
    assert "Traceback" not in err


def test_analyze_memory_does_not_grow_with_rows(tmp_path):
    # A growth rate, not a size, so the gate holds on any machine. Both sizes
    # have the same distinct cells, so counting keeps the traced peak nearly
    # flat; holding the rows makes it grow about as fast as the rows.
    peaks = []
    for rows in (20_000, 80_000):
        upgrades = [
            ["g", f"a{i}", "1.0", "2.0", LEVEL_ORDER[i % 4], 2010 + i % 10,
             "true" if i % 9 < 2 else "false", "false", 0, 0, f"deltas/{i}.json"]
            for i in range(rows)
        ]
        clients = [
            [f"c{i}:app:1", "compile", f"g:a{i}", "1.0", "2.0", LEVEL_ORDER[i % 4],
             "true" if i % 13 == 0 else "false", 1 + i % 7 if i % 13 == 0 else 0]
            for i in range(rows)
        ]
        results = tmp_path / f"results{rows}"
        results.mkdir()
        write_table(results / "upgrades.csv", UPGRADE_HEADER, upgrades)
        write_table(results / "clients.csv", CLIENT_HEADER, clients)
        del upgrades, clients
        tracemalloc.start()
        try:
            analyze_results(results, tmp_path / f"out{rows}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_bench_command(tmp_path, capsys):
    manifest = write_benchmark(tmp_path / "bench")
    code = main(["bench", str(manifest), "--json", "-"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["fn"] == 2  # the two documented gaps
    assert payload["invalid"] == []
    capsys.readouterr()
    assert main(["bench", str(manifest)]) == 0
    assert "precision=" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["delta"])  # missing positional arguments
    assert exc.value.code == 2


def test_stability_config_flag(tmp_path, capsys):
    config = tmp_path / "stability.cfg"
    config.write_text("[keywords]\nzzz\n[annotations]\n", encoding="utf-8")
    v1 = write_jar(
        tmp_path / "c1.jar",
        [ClassSpec("p.A", methods=(MethodSpec("m", annotations=("x.Beta",)), MethodSpec("keep")))],
    )
    v2 = write_jar(tmp_path / "c2.jar", [ClassSpec("p.A", methods=(MethodSpec("keep"),))])
    # Under the custom config @Beta no longer marks instability, so the
    # removal now counts as a stable break.
    code = main(
        ["delta", str(v1), str(v2), "--fail-on-breaking", "--stability-config", str(config)]
    )
    assert code == 1


def _parser_options(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(subcommand path, long options) for each subcommand ``parser`` accepts."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, {o for a in parser._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        return
    for name, sub in subparsers[0].choices.items():
        yield from _parser_options(sub, path + (name,))


def _readme_options() -> dict[tuple[str, ...], set[str]]:
    """(subcommand path -> long options) from the synopsis in the README's CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    options: dict[tuple[str, ...], set[str]] = {}
    for line in block.splitlines():
        if line.startswith("jarcompat "):
            words = line.split()[1:]
            command = tuple(itertools.takewhile(lambda w: w.isalpha() and w.islower(), words))
            options[command] = set()
        options[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_readme_synopsis_lists_every_option():
    assert _readme_options() == dict(_parser_options(build_parser()))
