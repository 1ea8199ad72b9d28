"""Graph loading, upgrade derivation, client selection, and the pipeline."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, damage_entry, jar_bytes, misfile_entry, write_jar
from corpus_fixture import build_fixture, build_two_library_fixture, write_graph_csvs
from jarcompat import corpus, delta
from jarcompat.classfile import ClassSpec, MethodSpec, parser, write_class
from jarcompat.cli import main
from jarcompat.corpus import (
    DependencyGraph,
    PipelineOptions,
    SchemaError,
    derive_clients,
    derive_upgrades,
    load_graph,
    run_pipeline,
)
from jarcompat.semver import SemverLevel, Unparseable, parse_version


def pair_reasons(exclusions: list[list]) -> list[str]:
    return [reason for stage, _, _, reason in exclusions if stage == "pair"]


def skipped_versions(exclusions: list[list]) -> dict[str, str]:
    return {subject: reason for stage, subject, _, reason in exclusions if stage == "version"}


@pytest.fixture
def fig_graph(tmp_path):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    return load_graph(artifacts, edges), jar_root


def test_load_graph_counts(fig_graph):
    graph, _ = fig_graph
    assert len(graph.artifacts) == 14
    next_edges = sum(len(v) for v in graph.next_out.values())
    assert next_edges == 8
    # The fixture's runtime edge is checked, then dropped: only compile and
    # test edges make clients, so only they are kept.
    depends = sum(len(v) for v in graph.dependents.values())
    assert depends == 6
    assert graph.diagnostics == []


def test_load_graph_empty(tmp_path):
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=[], edge_rows=[])
    graph = load_graph(artifacts, edges)
    assert graph.artifacts == {}
    assert derive_upgrades(graph) == ([], [])


def test_load_graph_duplicate_coordinates(tmp_path):
    rows = [
        ("g", "a", "1.0.0", "2011-01-01", "jar", ""),
        ("g", "a", "1.0.0", "2011-02-01", "jar", ""),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=[])
    with pytest.raises(SchemaError):
        load_graph(artifacts, edges)


def test_load_graph_bad_header(tmp_path):
    artifacts = tmp_path / "artifacts.csv"
    artifacts.write_text("nope\n", encoding="utf-8")
    edges = tmp_path / "edges.csv"
    edges.write_text("kind,scope,from,to\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_graph(artifacts, edges)


def test_load_graph_errors_name_the_physical_line(tmp_path):
    # A quoted cell over two lines puts the fifth row on line 6.
    artifacts = tmp_path / "a2.csv"
    artifacts.write_text(
        "group,artifact,version,release_date,packaging,jar_path\n"
        'g,a,1.0.0,2010-01-01,jar,"a\nb.jar"\n'
        "g,a,1.1.0,2010-02-01,jar,\n"
        "g,a,1.2.0,2010-03-01,jar,\n"
        "g,a,1.3.0,20x0-04-01,jar,\n",
        encoding="utf-8",
    )
    edges = tmp_path / "edges.csv"
    edges.write_text("kind,scope,from,to\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(artifacts))}:6: bad release_date"):
        load_graph(artifacts, edges)


def test_load_graph_dangling_edge_is_diagnostic(tmp_path):
    rows = [("g", "a", "1.0.0", "2011-01-01", "jar", "")]
    edge_rows = [("DEPENDS", "compile", "g:missing:1.0.0", "g:a:1.0.0")]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    graph = load_graph(artifacts, edges)
    assert len(graph.diagnostics) == 1


@pytest.mark.parametrize("cycle", [
    [("2.0.0-rc1", "2.0.0"), ("2.0.0", "2.1.0"), ("2.1.0", "2.0.0-rc1")],
    [("2.0.0", "2.0.0")],
    # No root reaches 10.0.0 either, and it sorts and is listed first, but
    # it follows the cycle without lying on it.
    [("2.1.0", "10.0.0"), ("2.0.0", "2.1.0"), ("2.1.0", "2.0.0")],
])
def test_load_graph_rejects_a_next_cycle(tmp_path, cycle):
    # No root reaches the versions of a cycle, so derivation would leave
    # them out of every output instead of accounting for each.
    versions = ["1.0.0", "1.1.0", *sorted({v for edge in cycle for v in edge})]
    rows = [("g", "lib", v, "2011-01-01", "jar", "") for v in versions]
    edge_rows = [("NEXT", "", f"g:lib:{a}", f"g:lib:{b}") for a, b in [("1.0.0", "1.1.0"), *cycle]]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    with pytest.raises(SchemaError) as raised:
        load_graph(artifacts, edges)
    message = str(raised.value)
    assert message.startswith(f"{edges}: NEXT edges form a cycle through g:lib:")
    named = message.rsplit(":", 1)[1]
    reached, frontier = set(), {named}
    while frontier:
        frontier = {b for a, b in cycle if a in frontier} - reached
        reached |= frontier
    assert named in reached  # the edges lead from it back to it


def test_a_graph_built_by_hand_rejects_a_next_cycle():
    # Making a graph is the one walk that indexes it, so no graph that
    # derivation reads can leave a cycle's versions out of every row.
    versions = ["1.0.0", "1.1.0", "2.0.0", "2.1.0"]
    records = [corpus.ArtifactRecord("g", "lib", v, datetime(2011, 1, 1), "jar", None) for v in versions]
    next_out = {"g:lib:1.0.0": ["g:lib:1.1.0"], "g:lib:2.0.0": ["g:lib:2.1.0"], "g:lib:2.1.0": ["g:lib:2.0.0"]}
    with pytest.raises(SchemaError, match=r"^NEXT edges form a cycle through g:lib:2\.[01]\.0$"):
        DependencyGraph({record.coord: record for record in records}, next_out)


def test_a_next_edge_listed_twice_is_walked_once(tmp_path):
    # Each edge of a 12-version history listed twice once made 2**11 chains.
    versions = [f"1.{i}.0" for i in range(12)]
    rows = [("g", "lib", v, "2011-01-01", "jar", "") for v in versions]
    edge_rows = [("NEXT", "", f"g:lib:{a}", f"g:lib:{b}") for a, b in zip(versions, versions[1:])]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows * 2)
    graph = load_graph(artifacts, edges)
    assert graph.versions[("g", "lib")] == [f"g:lib:{v}" for v in versions]
    assert graph.next_out["g:lib:1.0.0"] == ["g:lib:1.1.0"]
    _, exclusions = derive_upgrades(graph)
    assert pair_reasons(exclusions) == ["no_external_client"] * 11


def _branched_graph(root: Path) -> tuple:
    """g:lib's NEXT history branches after 1.1.0 into 1.1.1 (a maintenance
    release without a JAR), 1.2.0-rc1 and 2.0.0, and 1.2.0-rc1 branches on
    into 1.2.0 and 1.3.0. The client c:app branches after 1.0.0 into 2.0.0
    and the later-released 1.0.1, which both use lib 1.1.0. Returns the
    graph and the JAR root."""
    api = MethodSpec("a")
    calls_a = MethodSpec("run", calls=(("p.Api", "a", "()V"),))
    jars = {
        "lib-1.0.0.jar": [ClassSpec("p.Api", methods=(api,))],
        "lib-1.1.0.jar": [ClassSpec("p.Api", methods=(api, MethodSpec("b")))],
        "lib-1.2.0.jar": [ClassSpec("p.Api", methods=(api, MethodSpec("b"), MethodSpec("c")))],
        "lib-1.3.0.jar": [ClassSpec("p.Api", methods=(api, MethodSpec("b"), MethodSpec("d")))],
        "lib-2.0.0.jar": [ClassSpec("p.Api", methods=(MethodSpec("b"),))],
        "app-1.0.0.jar": [ClassSpec("c.App", methods=(calls_a,))],
        "app-1.0.1.jar": [ClassSpec("c.App", methods=(calls_a,))],
        "app-2.0.0.jar": [ClassSpec("c.App", methods=(calls_a,))],
    }
    jar_root = root / "jars"
    for name, specs in jars.items():
        write_jar(jar_root / name, specs)
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", "lib-1.0.0.jar"),
        ("g", "lib", "1.1.0", "2012-01-01", "jar", "lib-1.1.0.jar"),
        ("g", "lib", "1.1.1", "2013-06-01", "jar", ""),
        ("g", "lib", "1.2.0-rc1", "2012-06-01", "jar", ""),
        ("g", "lib", "1.2.0", "2013-01-01", "jar", "lib-1.2.0.jar"),
        ("g", "lib", "1.3.0", "2014-01-01", "jar", "lib-1.3.0.jar"),
        ("g", "lib", "2.0.0", "2015-01-01", "jar", "lib-2.0.0.jar"),
        ("c", "app", "1.0.0", "2011-06-01", "jar", "app-1.0.0.jar"),
        ("c", "app", "2.0.0", "2012-06-01", "jar", "app-2.0.0.jar"),
        ("c", "app", "1.0.1", "2013-06-01", "jar", "app-1.0.1.jar"),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("NEXT", "", "g:lib:1.1.0", "g:lib:2.0.0"),
        ("NEXT", "", "g:lib:1.1.0", "g:lib:1.1.1"),
        ("NEXT", "", "g:lib:1.1.0", "g:lib:1.2.0-rc1"),
        ("NEXT", "", "g:lib:1.2.0-rc1", "g:lib:1.2.0"),
        ("NEXT", "", "g:lib:1.2.0-rc1", "g:lib:1.3.0"),
        ("NEXT", "", "c:app:1.0.0", "c:app:2.0.0"),
        ("NEXT", "", "c:app:1.0.0", "c:app:1.0.1"),
        ("DEPENDS", "compile", "c:app:1.0.0", "g:lib:1.0.0"),
        ("DEPENDS", "compile", "c:app:2.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "c:app:1.0.1", "g:lib:1.1.0"),
    ]
    return load_graph(*write_graph_csvs(root, artifact_rows=rows, edge_rows=edge_rows)), jar_root


def test_derive_upgrades_walks_every_branch_of_a_next_history(tmp_path):
    graph, jar_root = _branched_graph(tmp_path)
    upgrades, exclusions = derive_upgrades(graph, jar_root)
    # 1.0.0 -> 1.1.0 lies on all four of lib's maximal NEXT paths and is
    # emitted once; the qualified 1.2.0-rc1 is skipped, so 1.1.0 pairs with
    # 1.2.0 and 1.3.0.
    assert sorted((u.v1.raw, u.v2.raw, u.level.value) for u in upgrades) == [
        ("1.0.0", "1.1.0", "minor"),
        ("1.1.0", "1.2.0", "minor"),
        ("1.1.0", "1.3.0", "minor"),
        ("1.1.0", "2.0.0", "major"),
    ]
    assert exclusions == [
        ["version", "g:lib:1.2.0-rc1", "", "qualified"],
        ["pair", "c:app:1.0.0", "c:app:1.0.1", "no_external_client"],
        ["pair", "c:app:1.0.0", "c:app:2.0.0", "no_external_client"],
        ["pair", "g:lib:1.1.0", "g:lib:1.1.1", "jar_unavailable"],
    ]
    # c:app's 2.0.0 and 1.0.1 stand at the same place on their branches,
    # so the later release date picks 1.0.1.
    chosen = {(u.v1.raw, u.v2.raw): [e.src for e in derive_clients(u, graph)] for u in upgrades}
    assert chosen == {
        ("1.0.0", "1.1.0"): ["c:app:1.0.0"],
        ("1.1.0", "1.2.0"): ["c:app:1.0.1"],
        ("1.1.0", "1.3.0"): ["c:app:1.0.1"],
        ("1.1.0", "2.0.0"): ["c:app:1.0.1"],
    }

    outputs = {}
    for jobs in (1, 2):
        outputs[jobs] = tmp_path / f"jobs-{jobs}"
        run_pipeline(graph, jar_root, outputs[jobs], PipelineOptions(jobs=jobs))
    files = snapshot(outputs[1])
    assert snapshot(outputs[2]) == files
    assert files["upgrades.csv"].decode().splitlines()[1:] == [
        "g,lib,1.0.0,1.1.0,minor,2012,false,false,0,0,deltas/g__lib__1.0.0__1.1.0.json",
        "g,lib,1.1.0,1.2.0,minor,2013,false,false,0,0,deltas/g__lib__1.1.0__1.2.0.json",
        "g,lib,1.1.0,1.3.0,minor,2014,false,false,0,0,deltas/g__lib__1.1.0__1.3.0.json",
        "g,lib,1.1.0,2.0.0,major,2015,true,true,1,1,deltas/g__lib__1.1.0__2.0.0.json",
    ]
    # Client rows that share library, v1 and client sort by v2, whatever
    # order the walk derived their upgrades in.
    assert files["clients.csv"].decode().splitlines()[1:] == [
        "c:app:1.0.0,compile,g:lib,1.0.0,1.1.0,minor,false,0",
        "c:app:1.0.1,compile,g:lib,1.1.0,1.2.0,minor,false,0",
        "c:app:1.0.1,compile,g:lib,1.1.0,1.3.0,minor,false,0",
        "c:app:1.0.1,compile,g:lib,1.1.0,2.0.0,major,true,1",
    ]


def test_a_merged_client_history_ranks_versions_by_longest_next_path(tmp_path):
    # c:app's NEXT history splits after 1.0.0 and joins again at 2.0.0: a
    # long branch through 1.0.1 and 1.0.2 and a short one through 1.1.0.
    # 2.0.0 follows 1.0.2 in NEXT order, so it is chosen over the later
    # released 1.0.2, whichever branch is walked last.
    lib = [ClassSpec("p.Api", methods=(MethodSpec("a"),))]
    app = [ClassSpec("c.App", methods=(MethodSpec("run", calls=(("p.Api", "a", "()V"),)),))]
    jar_root = tmp_path / "jars"
    for name, specs in {"lib-1.0.0.jar": lib, "lib-1.1.0.jar": lib, "app.jar": app}.items():
        write_jar(jar_root / name, specs)
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", "lib-1.0.0.jar"),
        ("g", "lib", "1.1.0", "2012-01-01", "jar", "lib-1.1.0.jar"),
        *(("c", "app", v, date, "jar", "app.jar") for v, date in [
            ("1.0.0", "2011-02-01"), ("1.0.1", "2011-03-01"), ("1.1.0", "2011-04-01"),
            ("2.0.0", "2011-05-01"), ("1.0.2", "2011-06-01"),
        ]),
    ]
    next_edges = [("1.0.0", "1.0.1"), ("1.0.1", "1.0.2"), ("1.0.2", "2.0.0"),
                  ("1.0.0", "1.1.0"), ("1.1.0", "2.0.0")]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        *(("NEXT", "", f"c:app:{a}", f"c:app:{b}") for a, b in next_edges),
        ("DEPENDS", "compile", "c:app:2.0.0", "g:lib:1.0.0"),
        ("DEPENDS", "compile", "c:app:1.0.2", "g:lib:1.0.0"),
    ]
    graph = load_graph(*write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows))
    assert {coord: graph.positions[coord] for coord in graph.artifacts if coord.startswith("c:")} == {
        "c:app:1.0.0": 0, "c:app:1.0.1": 1, "c:app:1.1.0": 1, "c:app:2.0.0": 3, "c:app:1.0.2": 2,
    }
    assert graph.versions[("c", "app")] == [
        "c:app:1.0.0", "c:app:1.0.1", "c:app:1.0.2", "c:app:1.1.0", "c:app:2.0.0",
    ]
    (upgrade,), _ = derive_upgrades(graph, jar_root)
    assert [edge.src for edge in derive_clients(upgrade, graph)] == ["c:app:2.0.0"]


@pytest.mark.parametrize(
    "versions, latest",
    [
        (["1.9.0", "1.10.0"], "1.10.0"),
        (["1.10.0", "final"], "1.10.0"),  # unparseable ranks below parseable
        (["1.10", "1.10.0"], "1.10.0"),  # equal keys: the string decides
        (["final", "ga"], "ga"),
    ],
)
def test_derive_clients_breaks_a_tie_of_place_and_date_by_version(tmp_path, versions, latest):
    # No NEXT edge orders x:app's versions and they share a release date,
    # so only the versions themselves can tell which is the latest.
    lib = [ClassSpec("p.Api", methods=(MethodSpec("a"),))]
    jar_root = tmp_path / "jars"
    for name in ("lib-1.0.0.jar", "lib-1.1.0.jar"):
        write_jar(jar_root / name, lib)
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", "lib-1.0.0.jar"),
        ("g", "lib", "1.1.0", "2012-01-01", "jar", "lib-1.1.0.jar"),
        *(("x", "app", v, "2011-02-01", "jar", "") for v in versions),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        *(("DEPENDS", "compile", f"x:app:{v}", "g:lib:1.0.0") for v in versions),
    ]
    graph = load_graph(*write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows))
    (upgrade,), _ = derive_upgrades(graph, jar_root)
    assert [edge.src for edge in derive_clients(upgrade, graph)] == [f"x:app:{latest}"]


def _diamonds(count: int) -> DependencyGraph:
    """One library whose NEXT history is ``count`` diamonds in a row: 1.i.0
    branches into 1.i.1 and 1.i.2, which both lead to 1.(i+1).0. It has
    2**count maximal NEXT paths and 4 * count candidate pairs."""
    artifacts, next_out = {}, {}
    for i in range(count + 1):
        for patch in (0, 1, 2) if i < count else (0,):
            record = corpus.ArtifactRecord("g", "lib", f"1.{i}.{patch}", datetime(2011, 1, 1), "jar", None)
            artifacts[record.coord] = record
    for i in range(count):
        next_out[f"g:lib:1.{i}.0"] = [f"g:lib:1.{i}.1", f"g:lib:1.{i}.2"]
        for patch in (1, 2):
            next_out[f"g:lib:1.{i}.{patch}"] = [f"g:lib:1.{i + 1}.0"]
    return DependencyGraph(artifacts, next_out)


def test_twenty_diamonds_derive_in_under_a_second():
    graph = _diamonds(20)
    started = time.perf_counter()
    upgrades, exclusions = derive_upgrades(graph)
    elapsed = time.perf_counter() - started
    assert upgrades == []
    assert pair_reasons(exclusions) == ["no_external_client"] * 80
    assert elapsed < 1.0


def test_derivation_parses_each_version_once(monkeypatch):
    # 1.0.0 lies on all 2**12 maximal NEXT paths, and is parsed once.
    graph = _diamonds(12)
    calls = Counter()

    def counting(text):
        calls[text] += 1
        return parse_version(text)

    monkeypatch.setattr(corpus, "parse_version", counting)
    derive_upgrades(graph)
    assert calls == Counter(record.version for record in graph.artifacts.values())


def _chain_walk(graph: DependencyGraph) -> tuple[set[tuple[str, str]], dict[str, str], dict[str, int]]:
    """The former derivation, kept as a reference: walk every maximal NEXT
    path from a root, pair the compliant versions adjacent on it, and keep
    each pair once. Returns the pairs, each skipped version's reason and
    each version's greatest index on a path."""
    successors = {coord: sorted(set(dsts)) for coord, dsts in graph.next_out.items()}
    has_predecessor = {dst for dsts in successors.values() for dst in dsts}
    pending = [[coord] for coord in graph.artifacts if coord not in has_predecessor]
    pairs: set[tuple[str, str]] = set()
    skipped: dict[str, str] = {}
    positions: dict[str, int] = {}
    while pending:
        chain = pending.pop()
        if chain[-1] in successors:
            pending += [chain + [dst] for dst in successors[chain[-1]]]
            continue
        compliant = []
        for index, coord in enumerate(chain):
            positions[coord] = max(positions.get(coord, 0), index)
            try:
                reason = parse_version(graph.artifacts[coord].version).noncompliance_reason
            except Unparseable:
                reason = "unparseable"
            if reason is None:
                compliant.append(coord)
            else:
                skipped[coord] = reason
        pairs.update(zip(compliant, compliant[1:]))
    return pairs, skipped, positions


@st.composite
def next_dags(draw) -> DependencyGraph:
    """A library of at most 14 versions whose NEXT edges form a DAG, some
    edges listed twice. Version i's name comes from a permutation, so the
    coordinate order is not the NEXT order."""
    count = draw(st.integers(1, 14))
    minors = draw(st.permutations(range(count)))
    # Compliant, listed twice so that it comes up more often, qualified,
    # date-like and unparseable.
    forms = draw(st.lists(st.sampled_from(["1.{}.0", "1.{}.0", "1.{}.0-rc1", "1.{}.20110712", "v{}"]),
                          min_size=count, max_size=count))
    artifacts, next_out = {}, {}
    names = [form.format(minor) for form, minor in zip(forms, minors)]
    for name in names:
        record = corpus.ArtifactRecord("g", "lib", name, datetime(2011, 1, 1), "jar", None)
        artifacts[record.coord] = record
    ends = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    for a, b in map(sorted, draw(st.lists(ends, max_size=2 * count))):
        if a < b:
            next_out.setdefault(f"g:lib:{names[a]}", []).append(f"g:lib:{names[b]}")
    return DependencyGraph(artifacts, next_out)


@settings(max_examples=150, deadline=None)
@given(graph=next_dags())
def test_the_walk_derives_what_the_chain_walk_derived(graph):
    pairs, skipped, positions = _chain_walk(graph)
    walk = graph.versions[("g", "lib")]
    assert sorted(walk) == sorted(graph.artifacts)
    assert all(walk.index(src) < walk.index(dst) for src, dsts in graph.next_out.items() for dst in dsts)
    assert graph.positions == positions
    upgrades, exclusions = derive_upgrades(graph)
    assert upgrades == []
    assert {(subject, v2) for stage, subject, v2, _ in exclusions if stage == "pair"} == pairs
    assert len(pair_reasons(exclusions)) == len(pairs)
    assert [row for row in exclusions if row[0] == "version"] == [
        ["version", coord, "", reason] for coord, reason in sorted(skipped.items())
    ]


def test_derive_upgrades_fig_fixture(fig_graph):
    graph, jar_root = fig_graph
    upgrades, exclusions = derive_upgrades(graph, jar_root)
    emitted = {
        (u.v1.raw, u.v2.raw, u.level)
        for u in upgrades
        if u.rec1.artifact_id == "servlet-api"
    }
    assert emitted == {
        ("3.0.1", "3.1.0", SemverLevel.MINOR),
        ("3.1.0", "4.0.0", SemverLevel.MAJOR),
        ("4.0.0", "4.0.1", SemverLevel.PATCH),
    }
    assert len(upgrades) == 3  # client-side chains all excluded
    skipped = skipped_versions(exclusions)
    assert skipped == {
        "javax.servlet:servlet-api:3.1-b01": "qualified",
        "javax.servlet:servlet-api:4.0.0-b01": "qualified",
        "javax.servlet:servlet-api:4.0.0-b02": "qualified",
    }
    reasons = {(subject, reason) for stage, subject, _, reason in exclusions if stage == "pair"}
    assert reasons == {
        ("org.fw:multi:1.0.0", "no_external_client"),
        ("org.fw:multi:1.1.0", "no_external_client"),
    }
    # Every row is a skipped version or an excluded pair.
    assert len(exclusions) == len(skipped) + len(reasons)


def test_derive_upgrades_no_external_client(tmp_path):
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", ""),
        ("g", "lib", "1.1.0", "2011-06-01", "jar", ""),
        ("g", "consumer", "1.0.0", "2011-02-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "g:consumer:1.0.0", "g:lib:1.0.0"),  # same groupId
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    upgrades, exclusions = derive_upgrades(load_graph(artifacts, edges))
    assert upgrades == []
    assert pair_reasons(exclusions) == ["no_external_client"]


def test_derive_upgrades_date_like_versions_skipped(tmp_path):
    rows = [
        ("g", "lib", "2.5.20110712", "2011-07-12", "jar", ""),
        ("g", "lib", "2.6.0", "2011-09-01", "jar", ""),
        ("x", "client", "1.0.0", "2011-08-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:2.5.20110712", "g:lib:2.6.0"),
        ("DEPENDS", "compile", "x:client:1.0.0", "g:lib:2.5.20110712"),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    upgrades, exclusions = derive_upgrades(load_graph(artifacts, edges))
    assert upgrades == []
    assert skipped_versions(exclusions) == {"g:lib:2.5.20110712": "date_like"}


def test_derive_upgrades_release_date_inversion(tmp_path, make_jar):
    from jarcompat.classfile import ClassSpec

    jar = make_jar([ClassSpec("p.A")], "lib.jar")
    rows = [
        ("g", "lib", "3.0.0", "2012-01-01", "jar", str(jar)),
        ("g", "lib", "3.0.1", "2011-01-01", "jar", str(jar)),  # dated before v1
        ("x", "client", "1.0.0", "2011-02-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:3.0.0", "g:lib:3.0.1"),
        ("DEPENDS", "compile", "x:client:1.0.0", "g:lib:3.0.0"),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    _, exclusions = derive_upgrades(load_graph(artifacts, edges))
    assert pair_reasons(exclusions) == ["release_date_inversion"]


def test_derive_upgrades_non_java_jar(tmp_path, make_jar):
    from jarcompat.classfile import ClassSpec

    java_jar = make_jar([ClassSpec("p.A")], "java.jar")
    scala_jar = make_jar([ClassSpec("p.B", source_file="B.scala")], "scala.jar")
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", str(java_jar)),
        ("g", "lib", "1.1.0", "2011-06-01", "jar", str(scala_jar)),
        ("x", "client", "1.0.0", "2011-02-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "x:client:1.0.0", "g:lib:1.0.0"),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    _, exclusions = derive_upgrades(load_graph(artifacts, edges))
    assert pair_reasons(exclusions) == ["non_java_language"]


def test_derive_upgrades_java_version_filter(tmp_path, make_jar):
    from jarcompat.classfile import ClassSpec

    old_jar = make_jar([ClassSpec("p.A", major_version=52)], "j8.jar")
    new_jar = make_jar([ClassSpec("p.A", major_version=53)], "j9.jar")
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", str(old_jar)),
        ("g", "lib", "1.1.0", "2011-06-01", "jar", str(new_jar)),
        ("x", "client", "1.0.0", "2011-02-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "x:client:1.0.0", "g:lib:1.0.0"),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    _, exclusions = derive_upgrades(load_graph(artifacts, edges))
    assert pair_reasons(exclusions) == ["invalid_java_version"]


def test_derive_upgrades_jar_unavailable(tmp_path):
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", "missing.jar"),
        ("g", "lib", "1.1.0", "2011-06-01", "jar", "missing2.jar"),
        ("x", "client", "1.0.0", "2011-02-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "x:client:1.0.0", "g:lib:1.0.0"),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    _, exclusions = derive_upgrades(load_graph(artifacts, edges), tmp_path)
    assert pair_reasons(exclusions) == ["jar_unavailable"]


@pytest.mark.parametrize("specs, extra, verdict", [
    ([ClassSpec("p.A", major_version=52), ClassSpec("p.B", major_version=50, source_file=None)], {}, None),
    ([], {"META-INF/MANIFEST.MF": b"Manifest-Version: 1.0\n"}, None),
    ([ClassSpec("p.A"), ClassSpec("p.B", source_file="B.scala")], {}, "non_java_language"),
    ([ClassSpec("p.A", source_file="A.kt")], {}, "non_java_language"),
    ([ClassSpec("p.A", major_version=52), ClassSpec("p.B", major_version=53)], {}, "invalid_java_version"),
    ([ClassSpec("p.A", major_version=53, source_file="A.scala")], {}, "non_java_language"),
    ([ClassSpec("p.A", source_file="A.scala")], {"p/Bad.class": b"\x00"}, "unreadable_jar"),
    (None, {}, "jar_unavailable"),
], ids=["java-8", "no-classes", "scala", "kotlin", "java-9", "scala-on-java-9", "bad-class", "missing"])
def test_the_probe_judges_each_jar_once_when_it_opens_it(tmp_path, monkeypatch, specs, extra, verdict):
    opened = []
    monkeypatch.setattr(corpus, "open_jar", lambda *args: opened.append(args) or parser.open_jar(*args))
    if specs is not None:
        write_jar(tmp_path / "lib.jar", specs, extra)
    record = corpus.ArtifactRecord("g", "lib", "1.0.0", datetime(2011, 1, 1), "jar", "lib.jar")
    probe = corpus._JarProbe(record.library, tmp_path, corpus.StabilityConfig())
    jar = probe.open(record)
    assert probe.open(record) is jar and probe.jars == {record.coord: jar}
    assert len(opened) == (specs is not None)
    if verdict is None:
        assert [cls.this_name for cls in jar.classes()] == [spec.name for spec in specs]
    else:
        assert jar == verdict


def test_a_pair_takes_the_reason_of_the_earliest_jar_stage_either_version_fails(tmp_path):
    # The stages are: available and readable, then language, then Java
    # version; on a tie, v1's reason.
    jar_root = tmp_path / "jars"
    write_jar(jar_root / "a-1.0.0.jar", [ClassSpec("p.A", major_version=53)])
    write_jar(jar_root / "a-1.1.0.jar", [ClassSpec("p.A", source_file="A.scala")])
    (jar_root / "b-1.0.0.jar").write_bytes(b"not a zip archive")
    (jar_root / "c-1.1.0.jar").write_bytes(b"not a zip archive")
    rows = [("x", "app", "1.0.0", "2011-02-01", "jar", "")]
    edge_rows = []
    for lib in "abc":
        rows += [("g", lib, "1.0.0", "2011-01-01", "jar", f"{lib}-1.0.0.jar"),
                 ("g", lib, "1.1.0", "2011-06-01", "jar", f"{lib}-1.1.0.jar")]
        edge_rows += [("NEXT", "", f"g:{lib}:1.0.0", f"g:{lib}:1.1.0"),
                      ("DEPENDS", "compile", "x:app:1.0.0", f"g:{lib}:1.0.0")]
    graph = load_graph(*write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows))
    _, exclusions = derive_upgrades(graph, jar_root)
    assert pair_reasons(exclusions) == ["non_java_language", "unreadable_jar", "jar_unavailable"]


def test_run_pipeline_excludes_a_library_jar_with_a_damaged_entry(tmp_path):
    # Read past, the damaged p/A.class would look removed in 1.1.0.
    jar_root = tmp_path / "jars"
    write_jar(jar_root / "lib-1.0.0.jar", [ClassSpec("p.A"), ClassSpec("p.B")])
    v2 = jar_bytes([ClassSpec("p.A"), ClassSpec("p.B", methods=(MethodSpec("m"),))])
    (jar_root / "lib-1.1.0.jar").write_bytes(damage_entry(v2, "p/A.class"))
    write_jar(jar_root / "app-1.0.0.jar", [ClassSpec("c.App")])
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", "lib-1.0.0.jar"),
        ("g", "lib", "1.1.0", "2011-06-01", "jar", "lib-1.1.0.jar"),
        ("x", "app", "1.0.0", "2011-02-01", "jar", "app-1.0.0.jar"),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "x:app:1.0.0", "g:lib:1.0.0"),
    ]
    graph = load_graph(*write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows))
    out = tmp_path / "out"
    summary = run_pipeline(graph, jar_root, out, PipelineOptions(jobs=1))
    assert summary["emitted"] == 0 and summary["excluded"] == 1
    assert (out / "exclusions.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "pair,g:lib:1.0.0,g:lib:1.1.0,unreadable_jar"
    ]
    assert not list((out / "deltas").glob("*.json"))
    assert "classRemoved" not in "".join(p.read_text(encoding="utf-8") for p in out.glob("*.csv"))


@pytest.mark.parametrize("field", ["crc", "local_name"])
def test_run_pipeline_excludes_a_library_jar_whose_entry_repeats_stored_bytes_but_is_damaged(
    tmp_path, field
):
    # 1.1.0's p/A.class holds the stored bytes of 1.0.0's, which the task's
    # parse memo already holds, under a wrong directory CRC-32 or local name.
    jar_root = tmp_path / "jars"
    write_jar(jar_root / "lib-1.0.0.jar", [ClassSpec("p.A"), ClassSpec("p.B")])
    v2 = jar_bytes([ClassSpec("p.A"), ClassSpec("p.B", methods=(MethodSpec("m"),))])
    (jar_root / "lib-1.1.0.jar").write_bytes(misfile_entry(v2, "p/A.class", field))
    write_jar(jar_root / "app-1.0.0.jar", [ClassSpec("c.App")])
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", "lib-1.0.0.jar"),
        ("g", "lib", "1.1.0", "2011-06-01", "jar", "lib-1.1.0.jar"),
        ("x", "app", "1.0.0", "2011-02-01", "jar", "app-1.0.0.jar"),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "x:app:1.0.0", "g:lib:1.0.0"),
    ]
    graph = load_graph(*write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows))
    out = tmp_path / "out"
    summary = run_pipeline(graph, jar_root, out, PipelineOptions(jobs=1))
    assert summary["emitted"] == 0 and summary["excluded"] == 1
    assert (out / "exclusions.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "pair,g:lib:1.0.0,g:lib:1.1.0,unreadable_jar"
    ]


def test_a_library_class_that_does_not_parse_excludes_its_pairs(tmp_path):
    # Left out of 1.1.0's model, p.A would look removed; in a client JAR the
    # same entry only costs the uses it would have held.
    bad_class = {"p/A.class": b"\xca\xfe\xba\xbe\x00"}
    jar_root = tmp_path / "jars"
    write_jar(jar_root / "lib-1.0.0.jar", [ClassSpec("p.A"), ClassSpec("p.B")])
    write_jar(jar_root / "lib-1.1.0.jar", [ClassSpec("p.B")], extra=bad_class)
    write_jar(jar_root / "other-1.0.0.jar", [ClassSpec("o.X", methods=(MethodSpec("x"),))])
    write_jar(jar_root / "other-1.1.0.jar", [ClassSpec("o.X")])
    write_jar(jar_root / "app-1.0.0.jar", [ClassSpec("c.App")], extra={"c/Bad.class": b"\x00"})
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "jar", "lib-1.0.0.jar"),
        ("g", "lib", "1.1.0", "2011-06-01", "jar", "lib-1.1.0.jar"),
        ("g", "other", "1.0.0", "2011-01-01", "jar", "other-1.0.0.jar"),
        ("g", "other", "1.1.0", "2011-06-01", "jar", "other-1.1.0.jar"),
        ("x", "app", "1.0.0", "2011-02-01", "jar", "app-1.0.0.jar"),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("NEXT", "", "g:other:1.0.0", "g:other:1.1.0"),
        ("DEPENDS", "compile", "x:app:1.0.0", "g:lib:1.0.0"),
        ("DEPENDS", "compile", "x:app:1.0.0", "g:other:1.0.0"),
    ]
    graph = load_graph(*write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows))
    expected = ["pair", "g:lib:1.0.0", "g:lib:1.1.0", "unreadable_jar"]
    _, exclusions = derive_upgrades(graph, jar_root)
    assert exclusions == [expected]

    out = tmp_path / "out"
    summary = run_pipeline(graph, jar_root, out, PipelineOptions(jobs=1))
    assert summary["emitted"] == 1 and summary["excluded"] == 1
    assert (out / "exclusions.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        ",".join(expected)
    ]
    assert "classRemoved" not in "".join(p.read_text(encoding="utf-8") for p in out.rglob("*.*"))
    # The client JAR with a class that does not parse still gets a verdict.
    clients = (out / "clients.csv").read_text(encoding="utf-8").splitlines()
    assert clients[1:] == ["x:app:1.0.0,compile,g:other,1.0.0,1.1.0,minor,false,0"]


def test_derive_upgrades_packaging_filter(tmp_path):
    rows = [
        ("g", "lib", "1.0.0", "2011-01-01", "war", ""),
        ("g", "lib", "1.1.0", "2011-06-01", "war", ""),
        ("x", "client", "1.0.0", "2011-02-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:1.0.0", "g:lib:1.1.0"),
        ("DEPENDS", "compile", "x:client:1.0.0", "g:lib:1.0.0"),
    ]
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=rows, edge_rows=edge_rows)
    _, exclusions = derive_upgrades(load_graph(artifacts, edges))
    assert pair_reasons(exclusions) == ["packaging_not_jar"]


def test_derive_clients_dedup_and_scope(fig_graph):
    graph, jar_root = fig_graph
    upgrades, _ = derive_upgrades(graph, jar_root)
    minor = next(u for u in upgrades if u.level is SemverLevel.MINOR)
    clients = derive_clients(minor, graph)
    by_artifact = {graph.artifacts[edge.src].library: graph.artifacts[edge.src] for edge in clients}
    assert set(by_artifact) == {("org.fw", "mock"), ("org.fw", "multi")}
    assert by_artifact[("org.fw", "multi")].version == "1.2.0"  # latest along NEXT
    assert all(edge.scope in ("compile", "test") for edge in clients)


def test_derive_clients_none(fig_graph):
    graph, jar_root = fig_graph
    upgrades, _ = derive_upgrades(graph, jar_root)
    patch = next(u for u in upgrades if u.level is SemverLevel.PATCH)
    clients = derive_clients(patch, graph)
    assert [edge.src for edge in clients] == ["org.fw:mock:2.0.0"]


def test_run_pipeline_fig_fixture(tmp_path, fig_graph):
    graph, jar_root = fig_graph
    out = tmp_path / "out"
    summary = run_pipeline(graph, jar_root, out, PipelineOptions())

    assert summary["emitted"] == 3
    assert summary["candidates"] == summary["emitted"] + summary["excluded"]
    assert summary["upgradesByLevel"] == {"major": 1, "minor": 1, "patch": 1}
    assert len(list((out / "deltas").glob("*.json"))) == 3

    upgrades = (out / "upgrades.csv").read_text(encoding="utf-8").splitlines()
    assert len(upgrades) == 4  # header + 3 rows
    minor_row = next(line for line in upgrades if ",minor," in line)
    assert ",true," in minor_row  # interface addition on a stable element

    clients = (out / "clients.csv").read_text(encoding="utf-8").splitlines()
    broken = [line for line in clients if ",true," in line]
    assert len(broken) == 2  # mock:1.0.0 on minor, mock:1.1.0 on major

    detections = (out / "detections.csv").read_text(encoding="utf-8").splitlines()
    fig2_like = [
        line
        for line in detections
        if "methodAddedToInterface" in line and "cli.MockHandler" in line
    ]
    assert len(fig2_like) == 1


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_pipeline_deterministic_and_resumable(tmp_path, fig_graph):
    graph, jar_root = fig_graph
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_pipeline(graph, jar_root, out1, PipelineOptions())
    run_pipeline(graph, jar_root, out2, PipelineOptions())

    first = snapshot(out1)
    assert first == snapshot(out2)
    # Second run over an existing directory reuses deltas and stays identical.
    run_pipeline(graph, jar_root, out1, PipelineOptions())
    assert snapshot(out1) == first


def test_run_pipeline_parallel_matches_serial(tmp_path, fig_graph):
    graph, jar_root = fig_graph
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    samples = (("all", 0.95, 0.05),)
    run_pipeline(graph, jar_root, serial, PipelineOptions(jobs=1, samples=samples))
    run_pipeline(graph, jar_root, parallel, PipelineOptions(jobs=2, samples=samples))
    files = snapshot(serial)
    assert {"exclusions.csv", "samples.csv", "deltas"} <= {Path(name).parts[0] for name in files}
    assert snapshot(parallel) == files


def test_run_pipeline_reads_and_models_each_jar_once(tmp_path, fig_graph, monkeypatch):
    graph, jar_root = fig_graph

    def count_calls(name, key):
        original, calls = getattr(corpus, name), Counter()

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[key(args, kwargs, result)] += 1
            return result

        monkeypatch.setattr(corpus, name, wrapper)
        return calls

    opened = count_calls("open_jar", lambda args, kwargs, result: Path(args[0]).name)
    built = count_calls("build_model", lambda args, kwargs, result: kwargs["model_id"])
    computed = count_calls("compute_delta", lambda args, kwargs, result: result.new_id)

    out = tmp_path / "out"
    run_pipeline(graph, jar_root, out, PipelineOptions(jobs=1))
    assert sum(name.startswith("servlet-api") for name in opened) == 4
    # No client in this fixture depends on two libraries, so client JARs are read once too.
    assert set(opened.values()) == {1}
    assert len(built) == 4 and set(built.values()) == {1}
    assert sum(computed.values()) == 3

    computed.clear()
    run_pipeline(graph, jar_root, out, PipelineOptions(jobs=1))
    assert not computed


def _reuse_graph(root: Path) -> tuple:
    """Library g.lib:lib at 1.0.0, 1.1.0 and 1.2.0, and g.two:two at 1.0.0 and
    2.0.0, which ships a class identical to one of lib's; one external client
    per upgrade. Returns the graph, the JAR root and every JAR's class specs."""
    base = ClassSpec("p.Base", methods=(MethodSpec("a"),))
    base2 = ClassSpec("p.Base", methods=(MethodSpec("a"), MethodSpec("b")))
    solo = ClassSpec("p.Solo")
    solo2 = ClassSpec("p.Solo", methods=(MethodSpec("c"),))
    fixed = [
        ClassSpec("p.Mid", super_name="p.Base"),
        ClassSpec("p.Leaf", super_name="p.Mid"),
        ClassSpec("p.Iface", kind="interface", methods=(MethodSpec("x", is_abstract=True),)),
        ClassSpec("p.Impl", interfaces=("p.Iface",), methods=(MethodSpec("x"),)),
        ClassSpec("p.Solo$Inner", inner_classes=(("p.Solo$Inner", "p.Solo", "Inner", 0x0009),)),
        ClassSpec("shared.Util", methods=(MethodSpec("u"),)),
    ]
    jars = {
        "lib-1.0.0.jar": [base, solo, *fixed],
        "lib-1.1.0.jar": [base2, solo, *fixed],
        "lib-1.2.0.jar": [base2, solo2, *fixed],
        "two-1.0.0.jar": [ClassSpec("t.T"), fixed[-1]],
        "two-2.0.0.jar": [ClassSpec("t.T", methods=(MethodSpec("t"),)), fixed[-1]],
    }
    artifacts = [
        ("g.lib", "lib", "1.0.0", "2011-01-01", "jar", "lib-1.0.0.jar"),
        ("g.lib", "lib", "1.1.0", "2012-01-01", "jar", "lib-1.1.0.jar"),
        ("g.lib", "lib", "1.2.0", "2013-01-01", "jar", "lib-1.2.0.jar"),
        ("g.two", "two", "1.0.0", "2011-01-01", "jar", "two-1.0.0.jar"),
        ("g.two", "two", "2.0.0", "2012-01-01", "jar", "two-2.0.0.jar"),
    ]
    edges = [
        ("NEXT", "", "g.lib:lib:1.0.0", "g.lib:lib:1.1.0"),
        ("NEXT", "", "g.lib:lib:1.1.0", "g.lib:lib:1.2.0"),
        ("NEXT", "", "g.two:two:1.0.0", "g.two:two:2.0.0"),
    ]
    for n, target in enumerate(("g.lib:lib:1.0.0", "g.lib:lib:1.1.0", "g.two:two:1.0.0")):
        jars[f"c{n}-1.0.0.jar"] = [ClassSpec(f"c{n}.App", methods=(MethodSpec("run"),))]
        artifacts.append((f"c{n}", "app", "1.0.0", "2014-01-01", "jar", f"c{n}-1.0.0.jar"))
        edges.append(("DEPENDS", "compile", f"c{n}:app:1.0.0", target))
    jar_root = root / "jars"
    for name, specs in jars.items():
        write_jar(jar_root / name, specs)
    return load_graph(*write_graph_csvs(root, artifacts, edges)), jar_root, jars


def test_run_pipeline_parses_each_distinct_class_once_per_library(tmp_path, monkeypatch):
    graph, jar_root, jars = _reuse_graph(tmp_path)
    parses = Counter()
    original = parser.parse_class

    def counting_parse(data):
        parses[data] += 1
        return original(data)

    monkeypatch.setattr(parser, "parse_class", counting_parse)
    compared = []
    original_compare = delta._DeltaBuilder.compare_members

    def counting_compare(builder, name):
        compared.append((builder.new.id, name))
        return original_compare(builder, name)

    monkeypatch.setattr(delta._DeltaBuilder, "compare_members", counting_compare)
    summary = run_pipeline(graph, jar_root, tmp_path / "out", PipelineOptions(jobs=1))
    assert summary["emitted"] == 3

    expected = Counter()
    for prefix in ("lib-", "two-", "c0-", "c1-", "c2-"):
        expected.update({
            write_class(spec) for name, specs in jars.items() if name.startswith(prefix) for spec in specs
        })
    assert parses == expected
    assert parses[write_class(jars["two-1.0.0.jar"][1])] == 2  # shared.Util, once per library
    # Only types whose own class or a supertype's changed are compared;
    # p.Solo$Inner is not, though its outer class changed.
    assert sorted(compared) == [
        ("g.lib:lib:1.1.0", "p.Base"),
        ("g.lib:lib:1.1.0", "p.Leaf"),
        ("g.lib:lib:1.1.0", "p.Mid"),
        ("g.lib:lib:1.2.0", "p.Solo"),
        ("g.two:two:2.0.0", "t.T"),
    ]


# Forked processes cannot report back through the test's memory, so each
# library task run appends its process id and library to the file this
# variable names.
_RUN_LOG = "JARCOMPAT_TEST_RUN_LOG"
_original_run_library = corpus._run_library


def _logged_run_library(task):
    with open(os.environ[_RUN_LOG], "a", encoding="utf-8") as log:
        log.write(f"{os.getpid()} {':'.join(task.library)}\n")
    return _original_run_library(task)


def test_run_pipeline_shares_every_library_task_between_the_processes(tmp_path, monkeypatch):
    _, jar_root, _ = _reuse_graph(tmp_path)
    # g.mid has a version pair but no client, so it opens no JAR, and the
    # client libraries c0-c2 have one version each.
    artifacts, edges = tmp_path / "artifacts.csv", tmp_path / "edges.csv"
    with artifacts.open("a", encoding="utf-8") as handle:
        handle.write("g.mid,mid,1.0.0,2011-01-01,jar,\ng.mid,mid,1.1.0,2012-01-01,jar,\n")
    with edges.open("a", encoding="utf-8") as handle:
        handle.write("NEXT,,g.mid:mid:1.0.0,g.mid:mid:1.1.0\n")
    graph = load_graph(artifacts, edges)
    libraries = ["c0:app", "c1:app", "c2:app", "g.lib:lib", "g.mid:mid", "g.two:two"]
    forks = []
    run_forked = corpus.run_forked
    monkeypatch.setattr(corpus, "run_forked", lambda n, work: forks.append(n) or run_forked(n, work))
    monkeypatch.setattr(corpus, "_run_library", _logged_run_library)
    samples = (("all", 0.95, 0.05),)
    outputs = {}
    for jobs in (1, 2, 3):
        log = tmp_path / f"runs-{jobs}.txt"
        monkeypatch.setenv(_RUN_LOG, str(log))
        forks.clear()
        outputs[jobs] = tmp_path / f"jobs-{jobs}"
        run_pipeline(graph, jar_root, outputs[jobs], PipelineOptions(jobs=jobs, samples=samples))
        runs = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert sorted(library for _, library in runs) == libraries  # each task runs once
        # Every task, whether or not it reads a JAR, goes through the one
        # queue: this process and jobs - 1 forked ones take them in task order.
        assert forks == [min(jobs, len(libraries))]
        pids = {pid for pid, _ in runs}
        assert len(pids - {str(os.getpid())}) <= jobs - 1
        for pid in pids:
            taken = [library for run_pid, library in runs if run_pid == pid]
            assert taken == sorted(taken)
    files = snapshot(outputs[1])
    assert b"g.mid:mid:1.0.0,g.mid:mid:1.1.0,no_external_client" in files["exclusions.csv"]
    assert snapshot(outputs[2]) == snapshot(outputs[3]) == files


def test_forked_process_k_moves_onto_the_kth_cpu_and_back(tmp_path, monkeypatch):
    # Forked processes inherit both patches and log each move to a file.
    moves = tmp_path / "moves.txt"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {6, 1, 4}, raising=False)

    def record(pid, cpus):
        with open(moves, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {sorted(cpus)}\n")

    monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
    processes = corpus.run_forked(3, lambda k: (k, os.getpid()))
    assert [k for k, _ in processes] == [0, 1, 2]
    assert processes[0][1] == os.getpid() and len({pid for _, pid in processes}) == 3
    logged: dict[str, list[str]] = {}
    for line in moves.read_text(encoding="utf-8").splitlines():
        pid, cpus = line.split(" ", 1)
        logged.setdefault(pid, []).append(cpus)
    assert logged == {
        str(pid): [str([cpu]), "[1, 4, 6]"] for cpu, (_, pid) in zip((1, 4, 6), processes)
    }
    assert_no_child_left()


def test_shared_tasks_are_each_taken_once(monkeypatch):
    # More processes than this host's CPUs take tasks that end at once, so
    # an update of the shared count that got lost would run a task twice or
    # drop it.
    monkeypatch.setattr(corpus, "_run_library", lambda task: task)
    done = corpus._run_shared(list(range(3000)), 4)
    assert sorted(i for i, _ in done) == list(range(3000))
    assert all(i == task for i, task in done)
    assert_no_child_left()


@contextlib.contextmanager
def _failing_after(seconds: int):
    """Fails the test instead of letting it wait past ``seconds``."""
    def fail(signum, frame):
        pytest.fail(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_forked_process_that_dies_raises_here_once_every_process_is_reaped():
    def work(k):
        if k == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return k

    with _failing_after(60), pytest.raises(RuntimeError) as raised:
        corpus.run_forked(3, work)
    assert str(raised.value) == "forked process 1 ended without a result: killed by signal 9"
    assert_no_child_left()


def test_a_forked_process_killed_holding_the_task_lock_stops_no_other(monkeypatch):
    # The forked process dies between reading and writing the count of
    # tasks taken, so while it holds the lock that guards the count.
    parent, pwrite = os.getpid(), os.pwrite

    def pwrite_or_die(fd, data, offset):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite_or_die)
    monkeypatch.setattr(corpus, "_run_library", lambda task: task)
    with _failing_after(60), pytest.raises(RuntimeError, match="^forked process 1 .*: killed by signal 9$"):
        corpus._run_shared(list(range(50)), 2)
    assert_no_child_left()


def test_a_task_that_raises_stops_every_process_taking_tasks(tmp_path, monkeypatch):
    # This process's first task raises; the forked process's take 10 ms
    # each, so one that kept taking tasks would run the other 199.
    parent = os.getpid()
    ran = tmp_path / "ran"

    def run_library(task):
        with open(ran, "a", encoding="utf-8") as handle:
            handle.write(f"{task}\n")
        if os.getpid() == parent:
            raise RuntimeError(f"task {task} failed")
        time.sleep(0.01)
        return task

    monkeypatch.setattr(corpus, "_run_library", run_library)
    with _failing_after(60), pytest.raises(RuntimeError, match="^task [0-9]+ failed$"):
        corpus._run_shared(list(range(200)), 2)
    assert len(ran.read_text(encoding="utf-8").splitlines()) < 10
    assert_no_child_left()


def test_corpus_run_forks_nothing_where_processes_cannot_be_placed_on_cpus(tmp_path, monkeypatch):
    # Both libraries read a JAR, so with os.sched_getaffinity, as on Linux,
    # --jobs 4 would fork one process.
    artifacts, edges, jar_root = build_two_library_fixture(tmp_path / "fixture")
    common = ["--artifacts", str(artifacts), "--edges", str(edges), "--jars", str(jar_root)]
    assert main(["corpus", "run", *common, "--out", str(tmp_path / "one"), "--jobs", "1"]) == 0
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert main(["corpus", "run", *common, "--out", str(tmp_path / "four"), "--jobs", "4"]) == 0
    assert snapshot(tmp_path / "four") == snapshot(tmp_path / "one")


def test_a_task_that_raises_in_a_forked_process_raises_here(tmp_path, monkeypatch):
    # This process holds its first task that reads a JAR until a forked
    # process has taken the other one, which then raises there.
    graph, jar_root, _ = _reuse_graph(tmp_path)
    parent = os.getpid()
    taken = tmp_path / "taken"

    def run_library(task):
        if task.library not in {("g.lib", "lib"), ("g.two", "two")}:
            return _original_run_library(task)
        if os.getpid() != parent:
            taken.touch()
            raise RuntimeError(f"library task failed in process {os.getpid()}")
        for _ in range(1000):
            if taken.exists():
                break
            time.sleep(0.01)
        return _original_run_library(task)

    monkeypatch.setattr(corpus, "_run_library", run_library)
    with pytest.raises(RuntimeError, match="library task failed in process") as raised:
        run_pipeline(graph, jar_root, tmp_path / "out", PipelineOptions(jobs=2))
    assert str(parent) not in str(raised.value)
    # The forked process's traceback comes along, down to the raise.
    assert 'raise RuntimeError(f"library task failed' in str(raised.value.__cause__)
    assert_no_child_left()


def test_corpus_run_on_forked_processes_warns_of_nothing_in_dev_mode(tmp_path):
    # Both libraries read a JAR, so on two or more CPUs one process is
    # forked, in a process where unclosed files and pipes warn.
    artifacts, edges, jar_root = build_two_library_fixture(tmp_path / "fixture")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "jarcompat.cli",
         "corpus", "run", "--artifacts", str(artifacts), "--edges", str(edges),
         "--jars", str(jar_root), "--out", str(tmp_path / "out"), "--jobs", "2"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(corpus.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_run_pipeline_drops_each_model_after_its_last_upgrade(tmp_path, monkeypatch):
    graph, jar_root, _ = _reuse_graph(tmp_path)
    seen = []

    class RecordingProbe(corpus._JarProbe):
        def model(self, record):
            model = super().model(record)
            seen.append((record.coord, len(self.models), self.parsed))
            return model

    monkeypatch.setattr(corpus, "_JarProbe", RecordingProbe)
    run_pipeline(graph, jar_root, tmp_path / "out", PipelineOptions(jobs=1))
    # lib's 1.0.0 model is gone by the time 1.2.0's is built, and the memo
    # is released once selection is over.
    assert ("g.lib:lib:1.2.0", 2, None) in seen
    assert max(alive for _, alive, _ in seen) == 2
    assert all(memo is None for _, _, memo in seen)


def test_derive_upgrades_shares_parses_within_a_library_only(tmp_path, monkeypatch):
    # Selection reads each library through its own probe, as a corpus run
    # task does: a class recurring across one library's JARs is parsed once,
    # and what a probe holds is one library's JARs, never the corpus.
    graph, jar_root, jars = _reuse_graph(tmp_path)
    parses = Counter()
    original = parser.parse_class

    def counting_parse(data):
        parses[data] += 1
        return original(data)

    libraries: dict[corpus._JarProbe, set] = {}  # holds each probe, so no identity is reused

    class RecordingProbe(corpus._JarProbe):
        def open(self, record):
            libraries.setdefault(self, set()).add(record.library)
            return super().open(record)

    monkeypatch.setattr(parser, "parse_class", counting_parse)
    monkeypatch.setattr(corpus, "_JarProbe", RecordingProbe)
    upgrades, _ = derive_upgrades(graph, jar_root)
    assert len(upgrades) == 3
    assert parses[write_class(jars["two-1.0.0.jar"][1])] == 2  # shared.Util, once per library
    assert sorted(map(sorted, libraries.values())) == [[("g.lib", "lib")], [("g.two", "two")]]


def test_run_pipeline_empty_graph(tmp_path):
    artifacts, edges = write_graph_csvs(tmp_path, artifact_rows=[], edge_rows=[])
    out = tmp_path / "out"
    summary = run_pipeline(load_graph(artifacts, edges), None, out, PipelineOptions())
    assert summary["emitted"] == 0
    assert (out / "upgrades.csv").exists()


def test_run_pipeline_sampling(tmp_path, fig_graph):
    graph, jar_root = fig_graph
    out = tmp_path / "out"
    options = PipelineOptions(samples=(("all", 0.99, 0.01), ("minor", 0.99, 0.01)))
    run_pipeline(graph, jar_root, out, options)
    sizes = (out / "sample_sizes.csv").read_text(encoding="utf-8").splitlines()
    assert sizes[0] == "level,confidence,margin,population,sample_size"
    all_row = next(line for line in sizes if line.startswith("all,"))
    population = int(all_row.split(",")[3])
    sample = int(all_row.split(",")[4])
    assert sample <= population  # tiny population: capped


def test_summary_accounting_reconciles(tmp_path, fig_graph):
    graph, jar_root = fig_graph
    out = tmp_path / "out"
    summary = run_pipeline(graph, jar_root, out, PipelineOptions())
    assert summary["candidates"] == summary["emitted"] + summary["excluded"]
    exclusions = (out / "exclusions.csv").read_text(encoding="utf-8").splitlines()[1:]
    pair_rows = [line for line in exclusions if line.startswith("pair,")]
    version_rows = [line for line in exclusions if line.startswith("version,")]
    assert len(pair_rows) == summary["excluded"]
    assert len(version_rows) == sum(summary["skippedVersions"].values())
    payload = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert payload == summary


GOLDEN = Path(__file__).parent / "golden" / "corpus_run"
PINNED_SAMPLES = (("all", 0.95, 0.05), ("minor", 0.9, 0.4))


def pinned_text(root: Path) -> dict[str, str]:
    """Every file under ``root`` as text, without what changes from one fixture
    build to the next: a delta's ``inputHash`` hashes JARs that ``zipfile``
    stamps with the current time. ``scope`` is dropped from older summaries."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            name = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8")
            if name.endswith(".json"):
                payload = json.loads(text)
                payload.pop("inputHash", None)
                payload.pop("scope", None)
                text = json.dumps(payload, indent=2) + "\n"
            files[name] = text
    return files


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("name, build", [
    ("fixture", build_fixture),
    ("two_libraries", build_two_library_fixture),
])
def test_run_pipeline_outputs_match_golden_files(tmp_path, name, build, jobs):
    artifacts, edges, jar_root = build(tmp_path / "fixture")
    out = tmp_path / "out"
    options = PipelineOptions(jobs=jobs, samples=PINNED_SAMPLES)
    run_pipeline(load_graph(artifacts, edges), jar_root, out, options)
    assert pinned_text(out) == pinned_text(GOLDEN / name)


def test_a_delta_input_hash_is_the_sha256_of_both_jar_digests_and_the_config(tmp_path):
    # The goldens leave inputHash out, and a re-run reuses a delta file only
    # while its inputHash reads as it did when the file was written.
    artifacts, edges, jar_root = build_two_library_fixture(tmp_path / "fixture")
    graph = load_graph(artifacts, edges)
    out = tmp_path / "out"
    run_pipeline(graph, jar_root, out, PipelineOptions())
    config = corpus.StabilityConfig()
    with (out / "upgrades.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    for row in rows:
        coords = (f"{row['group']}:{row['artifact']}:{row[v]}" for v in ("v1", "v2"))
        digests = [hashlib.sha256((jar_root / graph.artifacts[c].jar_path).read_bytes()).hexdigest() for c in coords]
        key = json.dumps([*digests, config.keywords, config.annotations]).encode("utf-8")
        payload = json.loads((out / row["delta_file"]).read_text(encoding="utf-8"))
        assert payload["inputHash"] == hashlib.sha256(key).hexdigest()
