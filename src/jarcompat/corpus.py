"""Corpus derivation: dependency graph, upgrade selection, and the pipeline.

The graph lives in two CSV files. ``artifacts.csv`` has the header
``group,artifact,version,release_date,packaging,jar_path`` (ISO-8601 dates,
jar_path optional and resolved against a JAR root). ``edges.csv`` has
``kind,scope,from,to`` where kind is DEPENDS or NEXT, scope qualifies
DEPENDS edges, and from/to are ``group:artifact:version`` coordinates.

Upgrade candidates are pairs of semver-compliant versions adjacent along
NEXT edges after skipping non-compliant intermediates. NEXT order is
trusted over release dates so maintenance releases stay on their branch;
the release-date filter only rejects inverted dates inside an emitted pair.
Every candidate is either emitted or excluded with exactly one reason, so
the accounting reconciles.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import json
import logging
import os
import pickle
import random
import tempfile
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .apimodel import ApiModel, StabilityConfig, build_model
from .classfile import (
    ClassFormatError, EntryKey, JarContent, NotAZip, RawClass, java_release_of, language_of_source, open_jar,
    sha256,
)
from .delta import Delta, compute_delta, is_breaking
from .detect import classify_impact, compute_detections
from .semver import NotAnUpgrade, SemverLevel, Unparseable, Version, classify_upgrade, parse_version
from .stats import cochran_sample
from .usage import extract_usage

log = logging.getLogger(__name__)

DEPENDS_SCOPES = ("compile", "test", "provided", "runtime", "system")
CLIENT_SCOPES = ("compile", "test")


class SchemaError(ValueError):
    """Graph file violates the documented schema."""


@dataclass(frozen=True)
class ArtifactRecord:
    """One artifact, which holds its ``group:artifact:version`` coordinate
    and its (group, artifact) library, built once when it is made."""

    group_id: str
    artifact_id: str
    version: str
    release_date: datetime
    packaging: str
    jar_path: str | None
    coord: str = field(init=False, repr=False, compare=False)
    library: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coord", f"{self.group_id}:{self.artifact_id}:{self.version}")
        object.__setattr__(self, "library", (self.group_id, self.artifact_id))


@dataclass(frozen=True)
class GraphEdge:
    """A compile or test DEPENDS edge; its target is the key it is filed
    under in ``dependents``."""

    scope: str
    src: str


@dataclass
class DependencyGraph:
    """A dependency graph, indexed for derivation as it is made.

    ``artifacts`` maps each coordinate to its record, ``next_out`` each
    coordinate that has NEXT successors to them, each listed once and in
    coordinate order, and ``dependents`` each coordinate to the DEPENDS
    edges of its clients. Making a graph walks its NEXT edges once (see
    ``__post_init__``), which fills ``versions``, the coordinates of each
    library's versions in walk order, every version after its NEXT
    predecessors, and ``positions``, the length of the longest NEXT path
    that ends at each coordinate.
    """

    artifacts: dict[str, ArtifactRecord]
    next_out: dict[str, list[str]]
    dependents: dict[str, list[GraphEdge]] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    versions: dict[tuple[str, str], list[str]] = field(init=False)
    positions: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        """Walk the NEXT DAG once, by Kahn's algorithm with a stack: the roots
        go in by (group, artifact), then by coordinate, and a version goes in
        once its last predecessor is out, its successors taken by coordinate.
        So each library's versions come out together, and each NEXT chain runs
        from its root to its end before the next root's. A cycle, a self-loop
        included, is a ``SchemaError`` naming a version on it: no root reaches
        its versions, so they would drop out of every output."""
        # A NEXT edge listed twice is one successor.
        self.next_out = {coord: sorted(set(dsts)) for coord, dsts in self.next_out.items()}
        waiting = Counter(dst for dsts in self.next_out.values() for dst in dsts)
        roots = (coord for coord in self.artifacts if not waiting[coord])
        stack = sorted(roots, key=lambda coord: (self.artifacts[coord].library, coord), reverse=True)
        self.versions, self.positions = {}, {}
        while stack:
            coord = stack.pop()
            self.versions.setdefault(self.artifacts[coord].library, []).append(coord)
            position = self.positions.setdefault(coord, 0) + 1
            for dst in reversed(self.next_out.get(coord, ())):
                self.positions[dst] = max(self.positions.get(dst, 0), position)
                waiting[dst] -= 1
                if not waiting[dst]:
                    stack.append(dst)
        if +waiting:
            # Each version left still waits on a predecessor that is left too,
            # so stepping back from one to such a predecessor, again and
            # again, comes round to a version on a cycle.
            back = {dst: src for src, dsts in self.next_out.items() if waiting[src] for dst in dsts}
            coord, passed = next(iter(+waiting)), set()
            while coord not in passed:
                passed.add(coord)
                coord = back[coord]
            raise SchemaError(f"NEXT edges form a cycle through {coord}")


@dataclass(frozen=True)
class Upgrade:
    """An emitted upgrade, with the edges of v1's external compile/test clients."""

    rec1: ArtifactRecord
    rec2: ArtifactRecord
    v1: Version
    v2: Version
    level: SemverLevel
    clients: tuple[GraphEdge, ...]


def _parse_date(text: str, where: str) -> datetime:
    """An ISO-8601 date as an instant: one without a UTC offset is read as
    UTC, so that dates with and without one compare."""
    try:
        date = datetime.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad release_date {text!r}") from exc
    return date if date.tzinfo is not None else date.replace(tzinfo=timezone.utc)


def _graph_rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a graph file after its header that hold a non-blank cell,
    each with the physical line it ends on and its cells stripped. A wrong
    header, a row whose width differs from the header's, text that is not
    UTF-8 and a row that ``csv.reader`` rejects are schema errors naming the
    file."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            if next(reader, None) != header:
                raise SchemaError(f"{path}:1: header must be {','.join(header)}")
            for row in reader:
                cells = [cell.strip() for cell in row]
                if not any(cells):
                    continue
                if len(cells) != len(header):
                    raise SchemaError(
                        f"{path}:{reader.line_num}: expected {len(header)} columns, got {len(cells)}"
                    )
                yield reader.line_num, cells
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 ({exc.reason})") from exc
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc


def load_graph(artifacts_path: str | Path, edges_path: str | Path) -> DependencyGraph:
    """Load the two-file graph; duplicate coordinates, bad rows and a NEXT
    cycle are fatal, dangling edges become diagnostics. Every DEPENDS scope
    is checked, but only compile and test edges are kept: no other scope
    makes a client."""
    artifacts: dict[str, ArtifactRecord] = {}
    next_out: dict[str, list[str]] = {}
    dependents: dict[str, list[GraphEdge]] = {}
    diagnostics: list[str] = []

    header = ["group", "artifact", "version", "release_date", "packaging", "jar_path"]
    for lineno, (group, artifact, version, date, packaging, jar_path) in _graph_rows(artifacts_path, header):
        record = ArtifactRecord(
            group_id=group,
            artifact_id=artifact,
            version=version,
            release_date=_parse_date(date, f"{artifacts_path}:{lineno}"),
            packaging=packaging or "jar",
            jar_path=jar_path or None,
        )
        if record.coord in artifacts:
            raise SchemaError(f"{artifacts_path}:{lineno}: duplicate coordinates {record.coord}")
        artifacts[record.coord] = record

    for lineno, (kind, scope, src, dst) in _graph_rows(edges_path, ["kind", "scope", "from", "to"]):
        if kind not in ("DEPENDS", "NEXT"):
            raise SchemaError(f"{edges_path}:{lineno}: unknown edge kind {kind!r}")
        if kind == "DEPENDS" and scope not in DEPENDS_SCOPES:
            raise SchemaError(f"{edges_path}:{lineno}: unknown scope {scope!r}")
        if src not in artifacts or dst not in artifacts:
            diagnostics.append(f"{edges_path}:{lineno}: dangling edge {src} -> {dst}")
            continue
        if kind == "NEXT":
            if artifacts[src].library != artifacts[dst].library:
                raise SchemaError(f"{edges_path}:{lineno}: NEXT edge across different libraries")
            next_out.setdefault(src, []).append(dst)
        elif scope in CLIENT_SCOPES:
            dependents.setdefault(dst, []).append(GraphEdge(scope, src))

    try:
        return DependencyGraph(artifacts, next_out, dependents, diagnostics)
    except SchemaError as exc:
        raise SchemaError(f"{edges_path}: {exc}") from exc


# The JAR filters' reasons by stage: available and readable, then language, then Java version.
_JAR_STAGES = {"jar_unavailable": 0, "unreadable_jar": 0, "non_java_language": 1, "invalid_java_version": 2}


class _JarProbe:
    """Opens each artifact's JAR at most once and judges it then.

    ``jars`` maps a coordinate to the verdict of ``open``: the JAR's parsed
    content when it can be an upgrade endpoint, else the reason its pairs
    are excluded, so a JAR that fails a filter is not held. Each model is
    built from the content. A probe's JARs share one parse memo, so a class
    whose bytes recur across versions is parsed once and the models of two
    versions hold the same ``RawClass`` for it. Each model is built from the
    last one still held, so it reuses that model's work on the classes they
    share (see ``build_model``). A probe serves the one library it names.
    """

    def __init__(
        self, library: tuple[str, str], jar_root: Path | None, config: StabilityConfig
    ) -> None:
        self.library = library
        self.jar_root = jar_root
        self.config = config
        self.jars: dict[str, JarContent | str] = {}
        self.models: dict[str, ApiModel] = {}
        self.parsed: dict[EntryKey, RawClass] | None = {}

    def resolve(self, record: ArtifactRecord) -> Path | None:
        if record.jar_path is None:
            return None
        path = Path(record.jar_path)
        if not path.is_absolute() and self.jar_root is not None:
            path = self.jar_root / path
        return path

    def open(self, record: ArtifactRecord) -> JarContent | str:
        """The artifact's JAR, judged once: its parsed content, or the first
        reason that holds of ``jar_unavailable``, ``unreadable_jar``,
        ``non_java_language`` (a class whose ``SourceFile`` names another
        language) and ``invalid_java_version`` (a class newer than Java 8)."""
        if record.coord not in self.jars:
            self.jars[record.coord] = self._judge(record)
        return self.jars[record.coord]

    def _judge(self, record: ArtifactRecord) -> JarContent | str:
        path = self.resolve(record)
        if path is None or not path.exists():
            return "jar_unavailable"
        try:
            jar = open_jar(path, self.parsed).require_complete()
        except (NotAZip, ClassFormatError):
            return "unreadable_jar"
        classes = jar.classes()
        if any(language_of_source(cls.source_file) not in ("java", "unknown") for cls in classes):
            return "non_java_language"
        if classes and java_release_of(max(cls.major_version for cls in classes)) > 8:
            return "invalid_java_version"
        return jar

    def model(self, record: ArtifactRecord) -> ApiModel:
        """The API model of an artifact whose JAR was read, built once."""
        model = self.models.get(record.coord)
        if model is None:
            previous = next(reversed(self.models.values()), None)
            model = build_model(
                self.jars[record.coord], self.config, model_id=record.coord, previous=previous
            )
            self.models[record.coord] = model
        return model


def _external_clients(graph: DependencyGraph, record: ArtifactRecord) -> list[GraphEdge]:
    return [
        edge for edge in graph.dependents.get(record.coord, [])
        if graph.artifacts[edge.src].group_id != record.group_id
    ]


def derive_upgrades(
    graph: DependencyGraph,
    jar_root: str | Path | None = None,
    probe: _JarProbe | None = None,
) -> tuple[list[Upgrade], list[list]]:
    """Apply the selection filters: the emitted upgrades and the exclusions.csv rows.

    Versions that are qualified, date-like, or unparseable never become
    candidate endpoints; each gets one ``version`` row and is skipped when
    pairing neighbours: each compliant v1 pairs with the compliant versions
    it reaches through skipped ones, found back to front along the walk, in
    walk order of v1 and then by coordinate. Each candidate pair is emitted
    or gets one ``pair`` row. Version rows come first, by coordinate, then
    pair rows by (group, artifact, v1, v2). The walk is the graph's
    ``versions``, and each version's successors its ``next_out``. Every
    library is derived, each reading its JARs through a fresh probe, unless
    the caller passes a ``probe``: then only the probe's library is derived,
    its JARs are read from the probe's JAR root, and the probe keeps its
    verdict on each JAR the filters read.
    """
    root = Path(jar_root) if jar_root is not None else None
    artifacts = graph.artifacts
    upgrades: list[Upgrade] = []
    skipped: list[list] = []
    excluded: list[tuple[tuple[str, ...], list]] = []

    for library in [probe.library] if probe is not None else graph.versions:
        library_probe = probe or _JarProbe(library, root, StabilityConfig())
        walk = graph.versions[library]
        compliant: dict[str, Version] = {}  # in walk order
        for coord in walk:
            try:
                version = parse_version(artifacts[coord].version)
                skip = version.noncompliance_reason
            except Unparseable:
                skip = "unparseable"
            if skip is None:
                compliant[coord] = version
            else:
                skipped.append(["version", coord, "", skip])

        reaches: dict[str, set[str]] = {}
        for coord in reversed(walk):
            reaches[coord] = set().union(
                *({dst} if dst in compliant else reaches[dst] for dst in graph.next_out.get(coord, ()))
            )
        for coord1, v1 in compliant.items():
            for coord2 in sorted(reaches[coord1]):
                v2 = compliant[coord2]
                selected = _select(graph, library_probe, artifacts[coord1], artifacts[coord2], v1, v2)
                if isinstance(selected, Upgrade):
                    upgrades.append(selected)
                else:
                    excluded.append(((*library, v1.raw, v2.raw), ["pair", coord1, coord2, selected]))
    rows = sorted(skipped, key=itemgetter(1))
    rows += [row for _, row in sorted(excluded, key=itemgetter(0))]
    return upgrades, rows


def _select(
    graph: DependencyGraph,
    probe: _JarProbe,
    rec1: ArtifactRecord,
    rec2: ArtifactRecord,
    v1: Version,
    v2: Version,
) -> Upgrade | str:
    """The pair as an upgrade, or the reason of the first filter that excludes
    it: of the JAR filters, the earliest stage either JAR fails, v1's on a tie."""
    try:
        level = classify_upgrade(v1, v2)
    except NotAnUpgrade:
        return "not_an_upgrade"
    clients = _external_clients(graph, rec1)
    if not clients:
        return "no_external_client"
    if rec1.packaging != "jar" or rec2.packaging != "jar":
        return "packaging_not_jar"
    reasons = [jar for jar in (probe.open(rec1), probe.open(rec2)) if isinstance(jar, str)]
    if reasons:
        return min(reasons, key=_JAR_STAGES.get)
    if rec1.release_date > rec2.release_date:
        return "release_date_inversion"
    return Upgrade(rec1, rec2, v1, v2, level, tuple(clients))


def derive_clients(upgrade: Upgrade, graph: DependencyGraph) -> list[GraphEdge]:
    """The edge of each external client of v1, from its latest version, by client coordinate.

    The latest version is the one furthest along NEXT, then the one released
    last, then the highest ``parse_version(...).key()``, where an
    unparseable version ranks below every parseable one, then the greatest
    version string."""
    best: dict[tuple[str, str], tuple[tuple, GraphEdge]] = {}
    for edge in upgrade.clients:
        client = graph.artifacts[edge.src]
        rank = (graph.positions[edge.src], client.release_date, _version_rank(client.version))
        if client.library not in best or rank > best[client.library][0]:
            best[client.library] = (rank, edge)
    return [edge for _, edge in sorted(best.values(), key=lambda item: item[1].src)]


def _version_rank(text: str) -> tuple:
    """Orders version strings by their semver key, unparseable ones below
    every parseable one, then as strings."""
    try:
        return (True, parse_version(text).key(), text)
    except Unparseable:
        return (False, (), text)


# --- pipeline ---------------------------------------------------------------

# The columns of each table ``corpus run`` writes, which are also its header.
# A task builds every row once, in this order.
UPGRADE_COLUMNS = (
    "group", "artifact", "v1", "v2", "level", "year",
    "breaking", "breaking_any", "bc_count", "bc_count_stable", "delta_file",
)
CLIENT_COLUMNS = ("client", "scope", "library", "v1", "v2", "level", "broken", "detections")
DETECTION_COLUMNS = (
    "library", "v1", "v2", "client", "clientElement", "libraryElement",
    "useKind", "bcKind", "confidence", "stability",
)
# A skipped version's row has stage "version" and an empty v2; an excluded
# pair's has stage "pair".
EXCLUSION_COLUMNS = ("stage", "subject", "v2", "reason")


def _columns(table: tuple[str, ...], *names: str) -> itemgetter:
    """Picks the cells of ``names`` out of a row of ``table``."""
    return itemgetter(*(table.index(name) for name in names))


# Client and detection rows sort by the "group:artifact" string, which orders
# libraries differently from the (group, artifact) tuples tasks run in.
_CLIENT_ORDER = _columns(CLIENT_COLUMNS, "library", "v1", "client", "v2")
_DETECTION_ORDER = _columns(
    DETECTION_COLUMNS,
    "library", "v1", "client", "clientElement", "libraryElement", "bcKind", "useKind", "v2",
)
_UPGRADE_LEVEL = _columns(UPGRADE_COLUMNS, "level")
_EXCLUSION_STAGE_REASON = _columns(EXCLUSION_COLUMNS, "stage", "reason")


@dataclass
class PipelineOptions:
    jobs: int = 1
    seed: int = 0
    samples: tuple[tuple[str, float, float], ...] = ()  # (level|"all", confidence, margin)
    stability_config: StabilityConfig | None = None


def _input_hash(v1: JarContent, v2: JarContent, config: StabilityConfig) -> str:
    """What a delta depends on: the bytes of both JARs and the stability config."""
    key = json.dumps([v1.sha256, v2.sha256, config.keywords, config.annotations])
    return sha256(key.encode("utf-8")).hexdigest()


def _delta_filename(upgrade: Upgrade) -> str:
    rec1 = upgrade.rec1
    return (
        f"{rec1.group_id}__{rec1.artifact_id}__{upgrade.v1.raw}__{upgrade.v2.raw}.json"
    ).replace("/", "_")


@dataclass
class _LibraryTask:
    library: tuple[str, str]
    graph: DependencyGraph  # the run's, read by every task
    jar_root: Path | None
    deltas: Path
    config: StabilityConfig


@dataclass
class _LibraryResult:
    """One library's rows of each output table."""

    upgrade_rows: list[list] = field(default_factory=list)
    exclusion_rows: list[list] = field(default_factory=list)
    client_rows: list[list] = field(default_factory=list)
    detection_rows: list[list] = field(default_factory=list)


def run_pipeline(
    graph: DependencyGraph,
    jar_root: str | Path | None,
    out_dir: str | Path,
    options: PipelineOptions | None = None,
) -> dict:
    """Derive upgrades, compute deltas and detections, and write the datasets.

    Each library is one task (see ``_run_library``), and every task goes
    through one queue in (group, artifact) order, shared by up to ``jobs``
    processes as ``_run_shared`` and ``run_forked``'s process policy say.
    Outputs are byte-identical for every ``jobs``; per-upgrade delta files
    are keyed by a hash of the two JARs' bytes and the stability config,
    and reused when already present. Returns a summary dict (also written
    to summary.json).
    """
    options = options or PipelineOptions()
    out = Path(out_dir)
    deltas = out / "deltas"
    deltas.mkdir(parents=True, exist_ok=True)
    root = Path(jar_root) if jar_root is not None else None
    config = options.stability_config or StabilityConfig()
    tasks = [_LibraryTask(library, graph, root, deltas, config) for library in graph.versions]

    upgrade_rows: list[list] = []
    exclusion_rows: list[list] = []
    client_rows: list[list] = []
    detection_rows: list[list] = []
    for result in _run_shared(tasks, options.jobs):
        upgrade_rows += result.upgrade_rows
        exclusion_rows += result.exclusion_rows
        client_rows += result.client_rows
        detection_rows += result.detection_rows

    write_csv(out / "upgrades.csv", UPGRADE_COLUMNS, upgrade_rows)
    write_exclusions(out / "exclusions.csv", exclusion_rows)
    client_rows.sort(key=_CLIENT_ORDER)
    write_csv(out / "clients.csv", CLIENT_COLUMNS, client_rows)
    write_csv(
        out / "detections.csv", DETECTION_COLUMNS, sorted(detection_rows, key=_DETECTION_ORDER)
    )
    reasons: dict[str, Counter] = {"pair": Counter(), "version": Counter()}
    for stage, reason in map(_EXCLUSION_STAGE_REASON, exclusion_rows):
        reasons[stage][reason] += 1
    summary = {
        "schemaVersion": 1,
        "candidates": len(upgrade_rows) + reasons["pair"].total(),
        "emitted": len(upgrade_rows),
        "excluded": reasons["pair"].total(),
        "exclusionReasons": reasons["pair"],
        "skippedVersions": reasons["version"],
        "upgradesByLevel": Counter(map(_UPGRADE_LEVEL, upgrade_rows)),
        "clients": len(client_rows),
        "detections": len(detection_rows),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if options.samples:
        _write_samples(out, client_rows, options)
    return summary


def _run_shared(tasks: list[_LibraryTask], jobs: int) -> list[_LibraryResult]:
    """The result of each task, in task order, which for ``run_pipeline``
    is (group, artifact), the order of upgrades.csv and of the excluded
    pairs. ``jobs`` takers, never more than there are tasks, run as
    ``run_forked``'s process policy says, a forked one getting the tasks
    through the fork, and each takes the next task not yet taken, in list
    order, until none is left. The count of tasks taken is the first
    8 bytes of a file that every process shares through the fork (none,
    read as 0, at first), read and moved on under an ``fcntl.lockf`` lock.
    The kernel drops that lock with a process that dies holding it, so no
    other process waits for it then. A task that raises moves the count to
    the end before the exception goes on, so that no process takes another
    task of a run that has failed."""
    with tempfile.TemporaryFile() as taken:

        def take(to_end: bool = False) -> int:
            """The count of tasks taken, which is then moved on by one, or to the end."""
            fcntl.lockf(taken, fcntl.LOCK_EX)
            try:
                i = int.from_bytes(os.pread(taken.fileno(), 8, 0), "little")
                os.pwrite(taken.fileno(), (len(tasks) if to_end else i + 1).to_bytes(8, "little"), 0)
            finally:
                fcntl.lockf(taken, fcntl.LOCK_UN)
            return i

        def work(k: int) -> list[tuple[int, _LibraryResult]]:
            done = []
            while True:
                i = take()
                if i >= len(tasks):
                    return done
                try:
                    done.append((i, _run_library(tasks[i])))
                except BaseException:
                    take(to_end=True)
                    raise

        done = [pair for pairs in run_forked(max(1, min(jobs, len(tasks))), work) for pair in pairs]
        return [result for _, result in sorted(done, key=itemgetter(0))]


def _run_library(task: _LibraryTask) -> _LibraryResult:
    """Select one library's upgrades, then run ``_upgrade_rows`` on each.

    The library's JARs are each opened once, by the selection filters, and
    each needed model is built once from that parse. The upgrade rows come
    back sorted by version; client and detection rows keep the order in
    which the upgrades were derived.
    """
    probe = _JarProbe(task.library, task.jar_root, task.config)
    upgrades, exclusion_rows = derive_upgrades(task.graph, probe=probe)
    # Selection has opened every JAR an upgrade reads, so the memo is spent.
    # A JAR's content and model, with the parsed classes the model keeps for
    # the delta's short cut, are dropped after the last upgrade that reads it.
    probe.parsed = None
    uses_left = Counter(rec.coord for upgrade in upgrades for rec in (upgrade.rec1, upgrade.rec2))
    result = _LibraryResult(exclusion_rows=exclusion_rows)
    by_version: list[tuple[tuple, list]] = []
    for upgrade in upgrades:
        upgrade_row, client_rows, detection_rows = _upgrade_rows(upgrade, probe, task)
        by_version.append(((upgrade.v1.key(), upgrade.v2.key()), upgrade_row))
        result.client_rows += client_rows
        result.detection_rows += detection_rows
        for coord in (upgrade.rec1.coord, upgrade.rec2.coord):
            uses_left[coord] -= 1
            if not uses_left[coord]:
                del probe.jars[coord]
                probe.models.pop(coord, None)
    by_version.sort(key=itemgetter(0))
    result.upgrade_rows = [row for _, row in by_version]
    return result


def _upgrade_rows(
    upgrade: Upgrade, probe: _JarProbe, task: _LibraryTask
) -> tuple[list, list[list], list[list]]:
    """One upgrade's ``upgrades.csv`` row, ``clients.csv`` rows and ``detections.csv`` rows."""
    rec1, rec2 = upgrade.rec1, upgrade.rec2
    delta = _upgrade_delta(upgrade, probe, task.deltas)
    library = f"{rec1.group_id}:{rec1.artifact_id}"
    v1, v2, level = upgrade.v1.raw, upgrade.v2.raw, upgrade.level.value
    upgrade_row = [
        rec1.group_id, rec1.artifact_id, v1, v2, level, rec2.release_date.year,
        str(is_breaking(delta, "stable")).lower(),
        str(is_breaking(delta, "all")).lower(),
        len(delta.changes),
        sum(1 for c in delta.changes if c.stability.is_stable),
        f"deltas/{_delta_filename(upgrade)}",
    ]
    stability: dict[tuple[str, str], str] = {}
    for change in delta.changes:
        stability.setdefault((change.element, change.kind.value), change.stability.status)
    client_rows: list[list] = []
    detection_rows: list[list] = []
    for edge in derive_clients(upgrade, task.graph):
        client = _open_client(probe.resolve(task.graph.artifacts[edge.src]))
        broken = ""
        detection_count = 0
        if client is not None:
            usage = extract_usage(client, probe.model(rec1))
            detections = compute_detections(delta, usage)
            impact = classify_impact(delta, usage, detections)
            broken = str(impact.broken).lower()
            detection_count = impact.detection_count
            detection_rows += (
                [
                    library, v1, v2, edge.src, d.client_element, d.library_element,
                    d.use_kind.value, d.bc_kind.value, d.confidence,
                    stability.get((d.library_element, d.bc_kind.value), ""),
                ]
                for d in detections
            )
        client_rows.append([edge.src, edge.scope, library, v1, v2, level, broken, detection_count])
    return upgrade_row, client_rows, detection_rows


def _open_client(path: Path | None) -> JarContent | None:
    """A client's parsed JAR; None when it is missing or unreadable, which
    leaves its row without a verdict."""
    if path is None or not path.exists():
        return None
    try:
        return open_jar(path).require_intact()
    except NotAZip as exc:
        log.warning("client JAR not analysed: %s", exc)
        return None


def _upgrade_delta(upgrade: Upgrade, probe: _JarProbe, deltas: Path) -> Delta:
    """The delta file's content when it reads back as a delta whose input
    hash still matches, else a new delta, written to a temporary file that
    then replaces the delta file, so that a killed run leaves no partial one."""
    delta_path = deltas / _delta_filename(upgrade)
    rec1, rec2 = upgrade.rec1, upgrade.rec2
    input_hash = _input_hash(probe.jars[rec1.coord], probe.jars[rec2.coord], probe.config)
    if delta_path.exists():
        try:
            payload = json.loads(delta_path.read_text(encoding="utf-8"))
            if payload.get("inputHash") == input_hash:
                return Delta.from_dict(payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            pass  # not a delta, such as a file cut short: computed again
    # v1's model first, so that v2's is built from it.
    old = probe.model(rec1)
    delta = compute_delta(old, probe.model(rec2))
    payload = delta.to_dict()
    payload["inputHash"] = input_hash
    temporary = delta_path.with_name(delta_path.name + ".tmp")
    temporary.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    os.replace(temporary, delta_path)
    return delta


def usable_cpus() -> int:
    """How many processes ``run_forked`` can place on CPUs of their own: the
    CPUs of this process's affinity set, or 1 where the platform cannot
    place a process (see ``run_forked``'s process policy)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_T = TypeVar("_T")


def run_forked(n: int, work: Callable[[int], _T]) -> list[_T]:
    """``work(k)`` for each k in 0..n-1, in order: the one process policy
    of ``corpus run`` and ``analyze``. Where n > 1 and the platform can
    place a process on a CPU (it has ``os.sched_getaffinity``, as Linux
    does), ``work(0)`` runs in this process and each other k in a process
    forked for it, which gets ``work`` through the fork and sends back,
    pickled over a pipe of its own, only what it returns or raises, with
    the traceback of the latter as text. Every forked process has ended and
    been reaped before this returns or raises the first exception, in k
    order. A forked process that ends without sending anything, such as
    one killed by a signal, raises a ``RuntimeError`` that names k and how
    it ended. Each process first moves onto the k-th CPU it may run on and
    then allows every one again, so nothing stays pinned: without the move,
    both processes of ``corpus run --jobs 2`` on the corpus-cold benchmark
    (seed 17, 2-vCPU host) ran on CPU 0 in 6 of 6 runs, in 0.19-0.21 s
    against 0.09-0.12 s. Elsewhere every ``work(k)`` runs in this process,
    in k order, and nothing is forked; ``usable_cpus`` is 1 there."""
    if n <= 1 or not hasattr(os, "sched_getaffinity"):
        return [work(k) for k in range(n)]
    pids: list[int] = []
    receives: list[int] = []  # the read end of each forked process's pipe
    try:
        for k in range(1, n):
            receive, send = os.pipe()
            receives.append(receive)
            _flush_std_streams()
            try:
                pid = os.fork()
                if pid == 0:
                    _report(work, k, send, receives)
                pids.append(pid)
            finally:
                os.close(send)
        values = [_run_placed(work, 0)]
        reports = []
        for receive in receives:
            with open(receive, "rb", closefd=False) as stream:
                reports.append(stream.read())
    finally:
        for receive in receives:
            os.close(receive)  # so that a process still sending fails instead of blocking
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (report, status) in enumerate(zip(reports, statuses), 1):
        if not report:
            code = os.waitstatus_to_exitcode(status)
            ending = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"forked process {k} ended without a result: {ending}")
        raised, value, forked_traceback = pickle.loads(report)
        if raised:
            raise value from _ForkedTraceback(forked_traceback)
        values.append(value)
    return values


class _ForkedTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked process,
    which pickling drops; ``run_forked`` raises the exception from it."""


def _report(work: Callable[[int], _T], k: int, send: int, receives: list[int]) -> None:
    """In the process forked for k: close ``receives``, the read ends of the
    pipes made so far, write to ``send`` the pickled ``(False, work(k),
    None)``, or ``(True, the exception, its traceback)`` where ``work`` or
    the pickling raises, then end this process. It ends through
    ``os._exit`` whatever happens, so it never returns into the caller's
    stack or runs its ``atexit`` handlers, and with status 1 where it sent
    nothing."""
    status = 1
    try:
        for receive in receives:
            os.close(receive)
        try:
            report = pickle.dumps((False, _run_placed(work, k), None))
        except Exception as exc:  # raised again by run_forked
            report = pickle.dumps((True, exc, traceback.format_exc()))
        with open(send, "wb") as stream:
            stream.write(report)
        status = 0
    finally:
        _flush_std_streams()
        os._exit(status)


def _run_placed(work: Callable[[int], _T], k: int) -> _T:
    """``work(k)``, after moving this process onto the k-th CPU it may run
    on and back; a move the system refuses is skipped."""
    cpus = sorted(os.sched_getaffinity(0))
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus[k:k + 1])
        os.sched_setaffinity(0, cpus)
    return work(k)


def _flush_std_streams() -> None:
    """Flush standard output and error, so that a fork copies nothing
    they hold and a forked process loses nothing it wrote to them."""
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError):  # None, or closed
            stream.flush()


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as RFC 4180 CSV with LF line ends; path "-" means stdout."""
    with (
        contextlib.nullcontext(sys.stdout) if str(path) == "-"
        else open(path, "w", newline="", encoding="utf-8")
    ) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_exclusions(path: Path, rows: list[list]) -> None:
    """exclusions.csv from the rows of ``derive_upgrades`` calls made in
    (group, artifact) order: skipped versions by coordinate string, then the
    excluded pairs as given, which keeps them in (group, artifact, v1, v2)
    order. The two orders differ: ("org.lib1", ...) comes before
    ("org.lib10", ...), but "org.lib10:..." before "org.lib1:..."."""
    stage = _columns(EXCLUSION_COLUMNS, "stage")
    versions = [row for row in rows if stage(row) == "version"]
    versions.sort(key=_columns(EXCLUSION_COLUMNS, "subject"))
    write_csv(path, EXCLUSION_COLUMNS, versions + [row for row in rows if stage(row) == "pair"])


def _write_samples(out: Path, client_rows: list[list], options: PipelineOptions) -> None:
    """Draw each sample from the client rows in ``clients.csv`` order."""
    level_of = _columns(CLIENT_COLUMNS, "level")
    sampled = _columns(CLIENT_COLUMNS, "client", "library", "v1", "v2")
    size_rows = []
    sample_rows = []
    for level, confidence, margin in options.samples:
        population = [r for r in client_rows if level == "all" or level_of(r) == level]
        if not population:
            size_rows.append([level, confidence, margin, 0, 0])
            continue
        size = cochran_sample(len(population), confidence, margin, 0.5)
        size_rows.append([level, confidence, margin, len(population), size])
        rng = random.Random(options.seed)
        chosen = rng.sample(range(len(population)), size)
        for index in sorted(chosen):
            sample_rows.append([level, *sampled(population[index])])
    write_csv(
        out / "sample_sizes.csv",
        ["level", "confidence", "margin", "population", "sample_size"],
        size_rows,
    )
    write_csv(out / "samples.csv", ["level", "client", "library", "v1", "v2"], sample_rows)
