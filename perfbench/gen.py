"""Deterministic synthetic inputs for the benchmark, each with its oracle.

``write_corpus`` builds a dependency graph (``artifacts.csv``, ``edges.csv``)
and its JARs with ``jarcompat.classfile.writer``, so no JVM or download is
needed. Libraries evolve one version at a time; every transition plants only
changes whose client impact is unambiguous (``methodRemoved``,
``fieldRemoved``, ``classRemoved``), always on a class that no other class
extends and never twice on one class, so each planted change yields exactly
one delta record. Clients use library members by plain calls, static field
reads and ``new``; a client is broken exactly when it uses a planted change.
The oracle is the generator's own bookkeeping, not jarcompat's output.

``write_results`` builds an ``upgrades.csv``/``clients.csv`` pair for
``jarcompat analyze`` and returns the raw per-level data the statistics are
checked against.

Rates and proportions come from the paper's published MDG figures (the
sampling table pinned in ``tests/test_acceptance.py`` and the upgrade totals
in ``tests/test_stats.py``). Sizes that the paper does not give (classes,
methods, hierarchy depth, uses per client, changes per breaking upgrade)
are chosen so that each workload fits the run length.
"""

from __future__ import annotations

import csv
import random
import zipfile
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from jarcompat.classfile.writer import ClassSpec, FieldSpec, MethodSpec, write_class

LEVELS = ("major", "minor", "patch", "dev")
# Every client library has two versions that both depend on the same library
# version; the pipeline must keep only the later one.
CLIENT_VERSIONS = ("1.0.0", "1.1.0")
FIELDS_PER_CLASS = 2
USES_PER_CLIENT = 6

# Published MDG totals: 119,879 upgrades, 26,407 of them breaking; 293,817
# clients; 1,237 of the 15,701 sampled clients broken.
MDG_UPGRADES, MDG_BREAKING_UPGRADES = 119879, 26407
MDG_CLIENTS = 293817
MDG_SAMPLED_CLIENTS, MDG_BROKEN_CLIENTS = 15701, 1237
# Share of upgrades that are breaking (22.0%).
BREAKING_UPGRADE_SHARE = MDG_BREAKING_UPGRADES / MDG_UPGRADES
# Only a client of a breaking upgrade can be broken, so 7.9% broken clients
# overall means about 36% of the clients of a breaking upgrade.
BROKEN_GIVEN_BREAKING = (MDG_BROKEN_CLIENTS / MDG_SAMPLED_CLIENTS) / BREAKING_UPGRADE_SHARE
# Client libraries per upgrade: 293,817 / 119,879 = 2.45.
CLIENTS_PER_UPGRADE = MDG_CLIENTS / MDG_UPGRADES
# Planted changes in a breaking upgrade (not published; chosen).
CHANGES_PER_BREAKING = (1, 1, 2, 3)
# Published MDG population of clients per level, and per level the sampled
# clients and the broken ones among them (the paper's sampling table).
MDG_LEVELS = {
    "major": (29847, 10663, 1250),
    "minor": (111830, 14445, 1130),
    "patch": (123286, 14621, 735),
    "dev": (28854, 10533, 1772),
}
# Share of libraries still on 0.x, whose upgrades are all "dev" (9.8%).
DEV_SHARE = MDG_LEVELS["dev"][0] / MDG_CLIENTS
# Deterministic ZIP entries: a fixed timestamp keeps equal seeds byte-equal.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
_DAY0 = date(2010, 1, 1)


@dataclass(frozen=True)
class CorpusParams:
    libraries: int
    versions: int
    clients: float  # mean client libraries per upgrade
    classes: int  # classes in a library's first version
    methods: int  # methods per class, constructor not counted
    depth: int  # classes per inheritance chain


@dataclass
class _Class:
    name: str
    super_name: str | None
    methods: list[str]
    fields: list[str]


@dataclass
class CorpusOracle:
    """Expected rows of ``upgrades.csv`` and ``clients.csv``, keyed as the pipeline keys them."""

    upgrades: dict[tuple[str, str, str, str], dict[str, str]] = field(default_factory=dict)
    clients: dict[tuple[str, str, str, str], dict[str, str]] = field(default_factory=dict)
    jars: int = 0

    @property
    def rows(self) -> int:
        return len(self.upgrades) + len(self.clients)


def _write_jar(path: Path, specs: list[ClassSpec]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for spec in specs:
            info = zipfile.ZipInfo(spec.name.replace(".", "/") + ".class", _ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, write_class(spec))


def _class_specs(classes: dict[str, _Class]) -> list[ClassSpec]:
    return [
        ClassSpec(
            c.name,
            super_name=c.super_name,
            methods=(MethodSpec("<init>"),) + tuple(MethodSpec(m) for m in c.methods),
            fields=tuple(FieldSpec(f, is_static=True) for f in c.fields),
        )
        for c in classes.values()
    ]


def _leaves(classes: dict[str, _Class]) -> list[str]:
    extended = {c.super_name for c in classes.values()}
    return [name for name in classes if name not in extended]


def _plant(rng: random.Random, classes: dict[str, _Class], version: int) -> list[tuple[str, str, str]]:
    """Mutate ``classes`` into the next version; return the planted (kind, owner, member)."""
    planted: list[tuple[str, str, str]] = []
    touched: set[str] = set()
    breaking = rng.random() < BREAKING_UPGRADE_SHARE
    for _ in range(rng.choice(CHANGES_PER_BREAKING) if breaking else 0):
        leaves = [n for n in _leaves(classes) if n not in touched]
        if not leaves:
            break
        owner = rng.choice(leaves)
        cls = classes[owner]
        kinds = [k for k, ok in (
            ("methodRemoved", bool(cls.methods)),
            ("fieldRemoved", bool(cls.fields)),
            ("classRemoved", len(classes) > 1),
        ) if ok]
        if not kinds:
            continue
        kind = rng.choice(kinds)
        touched.add(owner)
        if kind == "methodRemoved":
            member = cls.methods.pop(rng.randrange(len(cls.methods)))
        elif kind == "fieldRemoved":
            member = cls.fields.pop(rng.randrange(len(cls.fields)))
        else:
            member = ""
            del classes[owner]
        planted.append((kind, owner, member))
    # A non-breaking addition, so every version's JAR differs from the last.
    classes[rng.choice(sorted(classes))].methods.append(f"added{version}")
    return planted


def _bump(rng: random.Random, version: tuple[int, int, int]) -> tuple[tuple[int, int, int], str]:
    major, minor, patch = version
    if major == 0:
        return ((0, minor + 1, 0) if rng.random() < 0.5 else (0, minor, patch + 1)), "dev"
    levels = ("major", "minor", "patch")
    level = rng.choices(levels, [MDG_LEVELS[lv][0] for lv in levels])[0]
    if level == "major":
        return (major + 1, 0, 0), level
    if level == "minor":
        return (major, minor + 1, 0), level
    return (major, minor, patch + 1), level


def _uses(rng: random.Random, classes: dict[str, _Class], avoid: set[str]) -> list[tuple[str, str, str]]:
    """Breaking-free uses of one library version: (kind, owner, member)."""
    pool = [
        use
        for name, cls in sorted(classes.items())
        if name not in avoid
        for use in (
            [("call", name, m) for m in cls.methods if (name, m) not in avoid]
            + [("read", name, f) for f in cls.fields if (name, f) not in avoid]
            + [("new", name, "")]
        )
    ]
    return rng.sample(pool, min(USES_PER_CLIENT, len(pool)))


def _client_spec(name: str, uses: list[tuple[str, str, str]]) -> ClassSpec:
    calls, reads, news = [], [], []
    for kind, owner, member in uses:
        if kind == "call":
            calls.append((owner, member, "()V"))
        elif kind == "read":
            reads.append((owner, member, "I"))
        else:
            news.append(owner)
            calls.append((owner, "<init>", "()V"))
    return ClassSpec(
        name,
        methods=(
            MethodSpec("<init>"),
            MethodSpec("run", calls=tuple(calls), field_reads=tuple(reads), type_refs=tuple(news)),
        ),
    )


_USE_OF_PLANTED = {"methodRemoved": "call", "fieldRemoved": "read", "classRemoved": "new"}


def write_corpus(root: Path, params: CorpusParams, seed: int) -> CorpusOracle:
    """Write ``artifacts.csv``, ``edges.csv`` and ``jars/`` under ``root``."""
    rng = random.Random(seed)
    oracle = CorpusOracle()
    artifacts: list[list[str]] = []
    edges: list[list[str]] = []
    jar_root = root / "jars"
    upgrade = 0
    dev_libraries = max(1, round(params.libraries * DEV_SHARE))

    for lib in range(params.libraries):
        group, artifact = f"org.lib{lib}", f"lib{lib}"
        package = f"org.lib{lib}.core"
        classes: dict[str, _Class] = {}
        for index in range(params.classes):
            chain, position = divmod(index, params.depth)
            name = f"{package}.C{chain}x{position}"
            short = name.rsplit(".", 1)[1]
            classes[name] = _Class(
                name,
                f"{package}.C{chain}x{position - 1}" if position else None,
                [f"{short}m{m}" for m in range(params.methods)],
                [f"{short}f{f}" for f in range(FIELDS_PER_CLASS)],
            )
        version = (0, 1, 0) if lib >= params.libraries - dev_libraries else (1, 0, 0)
        for v in range(params.versions):
            raw = ".".join(map(str, version))
            coord = f"{group}:{artifact}:{raw}"
            jar = f"{group}/{artifact}-{raw}.jar"
            released = _DAY0 + timedelta(days=60 * v + lib)
            artifacts.append([group, artifact, raw, released.isoformat(), "jar", jar])
            _write_jar(jar_root / jar, _class_specs(classes))
            oracle.jars += 1
            if v == params.versions - 1:
                break
            before = {name: _Class(c.name, c.super_name, list(c.methods), list(c.fields))
                      for name, c in classes.items()}
            planted = _plant(rng, classes, v)
            next_version, level = _bump(rng, version)
            next_raw = ".".join(map(str, next_version))
            edges.append(["NEXT", "", coord, f"{group}:{artifact}:{next_raw}"])
            oracle.upgrades[(group, artifact, raw, next_raw)] = {
                "level": level,
                "breaking": str(bool(planted)).lower(),
                "bc_count": str(len(planted)),
            }
            avoid = {owner for kind, owner, _ in planted if kind == "classRemoved"}
            avoid |= {(owner, member) for kind, owner, member in planted if member}

            # Spread the mean exactly: upgrade j gets floor((j+1)m) - floor(jm).
            clients = int((upgrade + 1) * params.clients) - int(upgrade * params.clients)
            upgrade += 1
            for k in range(clients):
                client_group = f"com.cli{lib}v{v}c{k}"
                scope = "test" if k % 3 == 2 else "compile"
                uses = _uses(rng, before, avoid)
                broken = bool(planted) and rng.random() < BROKEN_GIVEN_BREAKING
                if broken:
                    kind, owner, member = rng.choice(planted)
                    uses.append((_USE_OF_PLANTED[kind], owner, member))
                for c, client_raw in enumerate(CLIENT_VERSIONS):
                    client_coord = f"{client_group}:app:{client_raw}"
                    client_day = released + timedelta(days=10 + 5 * c)
                    latest = c == len(CLIENT_VERSIONS) - 1
                    client_jar = f"{client_group}/app-{client_raw}.jar" if latest else ""
                    artifacts.append(
                        [client_group, "app", client_raw, client_day.isoformat(), "jar", client_jar]
                    )
                    edges.append(["DEPENDS", scope, client_coord, coord])
                    if c:
                        edges.append(
                            ["NEXT", "", f"{client_group}:app:{CLIENT_VERSIONS[c - 1]}", client_coord]
                        )
                    if latest:
                        _write_jar(jar_root / client_jar, [_client_spec(f"{client_group}.App", uses)])
                        oracle.jars += 1
                        oracle.clients[(client_coord, f"{group}:{artifact}", raw, next_raw)] = {
                            "scope": scope,
                            "level": level,
                            "broken": str(broken).lower(),
                        }
            version = next_version

    _write_rows(root / "artifacts.csv",
                ["group", "artifact", "version", "release_date", "packaging", "jar_path"], artifacts)
    _write_rows(root / "edges.csv", ["kind", "scope", "from", "to"], edges)
    return oracle


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --- analyze inputs -----------------------------------------------------------


@dataclass(frozen=True)
class ResultsParams:
    scale: float  # share of the published MDG counts to generate


@dataclass
class ResultsOracle:
    """Raw data behind a generated results directory, per level."""

    upgrades: dict[str, list[bool]] = field(default_factory=dict)  # breaking flags
    broken: dict[str, int] = field(default_factory=dict)
    total: dict[str, int] = field(default_factory=dict)
    detections: dict[str, list[int]] = field(default_factory=dict)  # broken clients only

    @property
    def client_rows(self) -> int:
        return sum(self.total.values())

    @property
    def upgrade_rows(self) -> int:
        return sum(len(flags) for flags in self.upgrades.values())


# Mean extra detections per broken client and level (not published; chosen).
# The means are kept close so that the pairwise Mann-Whitney p-values stay
# far from underflow, where a relative-tolerance check would mean nothing.
_MEAN_EXTRA = {"major": 2.2, "minor": 1.8, "patch": 1.7, "dev": 2.0}


def write_results(root: Path, params: ResultsParams, seed: int) -> ResultsOracle:
    """Write ``upgrades.csv`` and ``clients.csv`` as the pipeline lays them out.

    At ``scale`` 1 there are the published 119,879 upgrades, 22.0% of them
    breaking, split evenly over the levels (the per-level split is not
    published), and per level the published sampled and broken clients.
    """
    rng = random.Random(seed)
    oracle = ResultsOracle()
    upgrade_rows: list[list] = []
    client_rows: list[list] = []
    per_level = round(MDG_UPGRADES * params.scale / len(LEVELS))
    for level in LEVELS:
        mean_extra = _MEAN_EXTRA[level]
        breaking_set = set(rng.sample(range(per_level), round(per_level * BREAKING_UPGRADE_SHARE)))
        flags = oracle.upgrades.setdefault(level, [])
        for u in range(per_level):
            breaking = u in breaking_set
            flags.append(breaking)
            bc = 1 + int(rng.expovariate(1 / mean_extra)) if breaking else 0
            upgrade_rows.append([
                f"org.{level}{u % 97}", f"lib{u}", "1.0.0", "1.1.0", level, 2010 + u % 10,
                str(breaking).lower(), str(breaking).lower(), bc, bc, f"deltas/{level}-{u}.json",
            ])
        _, sampled, broken_clients = MDG_LEVELS[level]
        total = round(sampled * params.scale)
        broken_set = set(rng.sample(range(total), round(broken_clients * params.scale)))
        values = oracle.detections.setdefault(level, [])
        for c in range(total):
            broken = c in broken_set
            detections = 1 + int(rng.expovariate(1 / mean_extra)) if broken else 0
            if broken:
                values.append(detections)
            client_rows.append([
                f"com.c{level}{c}:app:1.0.0", "compile", f"org.{level}{c % 97}:lib{c}",
                "1.0.0", "1.1.0", level, str(broken).lower(), detections,
            ])
        oracle.broken[level] = len(broken_set)
        oracle.total[level] = total
    _write_rows(root / "upgrades.csv",
                ["group", "artifact", "v1", "v2", "level", "year", "breaking", "breaking_any",
                 "bc_count", "bc_count_stable", "delta_file"], upgrade_rows)
    _write_rows(root / "clients.csv",
                ["client", "scope", "library", "v1", "v2", "level", "broken", "detections"],
                client_rows)
    return oracle
