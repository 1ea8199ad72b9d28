"""Seven-version dependency-graph fixture with qualified intermediates.

One library evolves 3.0.1 -> 3.1-b01 -> 3.1.0 -> 4.0.0-b01 -> 4.0.0-b02 ->
4.0.0 -> 4.0.1 along NEXT edges. The qualified pre-releases are skipped, so
the derivable upgrades are exactly minor (3.0.1 -> 3.1.0, which adds an
abstract interface method), major (3.1.0 -> 4.0.0, which removes a helper
method), and patch (4.0.0 -> 4.0.1, identical JARs).

External clients cover the dedup rule (three versions of one client on the
same v1), the scope filter (a runtime-only dependent), and end-to-end
detections (an implementor of the evolving interface).
"""

from __future__ import annotations

from pathlib import Path

from conftest import write_jar
from jarcompat.classfile import ClassSpec, FieldSpec, MethodSpec

LIB_GROUP = "javax.servlet"
LIB_ARTIFACT = "servlet-api"


def _handler(with_b: bool) -> ClassSpec:
    methods = [MethodSpec("a", "()V", is_abstract=True)]
    if with_b:
        methods.append(MethodSpec("b", "()V", is_abstract=True))
    return ClassSpec("srv.Handler", kind="interface", methods=tuple(methods))


def _util(with_helper: bool) -> ClassSpec:
    methods = [MethodSpec("<init>")]
    if with_helper:
        methods.append(MethodSpec("helper", "()V"))
    return ClassSpec("srv.Util", methods=tuple(methods))


ARTIFACT_ROWS = [
    # group, artifact, version, date, packaging, jar
    (LIB_GROUP, LIB_ARTIFACT, "3.0.1", "2011-07-01", "jar", "servlet-api-3.0.1.jar"),
    (LIB_GROUP, LIB_ARTIFACT, "3.1-b01", "2012-10-01", "jar", ""),
    (LIB_GROUP, LIB_ARTIFACT, "3.1.0", "2013-04-01", "jar", "servlet-api-3.1.0.jar"),
    (LIB_GROUP, LIB_ARTIFACT, "4.0.0-b01", "2016-09-01", "jar", ""),
    (LIB_GROUP, LIB_ARTIFACT, "4.0.0-b02", "2017-02-01", "jar", ""),
    (LIB_GROUP, LIB_ARTIFACT, "4.0.0", "2017-09-01", "jar", "servlet-api-4.0.0.jar"),
    (LIB_GROUP, LIB_ARTIFACT, "4.0.1", "2018-04-01", "jar", "servlet-api-4.0.1.jar"),
    ("org.fw", "mock", "1.0.0", "2012-01-01", "jar", "mock-1.0.0.jar"),
    ("org.fw", "mock", "1.1.0", "2014-01-01", "jar", "mock-1.1.0.jar"),
    ("org.fw", "mock", "2.0.0", "2018-01-01", "jar", "mock-2.0.0.jar"),
    ("org.fw", "multi", "1.0.0", "2012-02-01", "jar", ""),
    ("org.fw", "multi", "1.1.0", "2012-06-01", "jar", ""),
    ("org.fw", "multi", "1.2.0", "2012-09-01", "jar", ""),
    ("org.fw", "runtime-only", "1.0.0", "2012-03-01", "jar", ""),
]

EDGE_ROWS = [
    ("NEXT", "", "javax.servlet:servlet-api:3.0.1", "javax.servlet:servlet-api:3.1-b01"),
    ("NEXT", "", "javax.servlet:servlet-api:3.1-b01", "javax.servlet:servlet-api:3.1.0"),
    ("NEXT", "", "javax.servlet:servlet-api:3.1.0", "javax.servlet:servlet-api:4.0.0-b01"),
    ("NEXT", "", "javax.servlet:servlet-api:4.0.0-b01", "javax.servlet:servlet-api:4.0.0-b02"),
    ("NEXT", "", "javax.servlet:servlet-api:4.0.0-b02", "javax.servlet:servlet-api:4.0.0"),
    ("NEXT", "", "javax.servlet:servlet-api:4.0.0", "javax.servlet:servlet-api:4.0.1"),
    ("NEXT", "", "org.fw:multi:1.0.0", "org.fw:multi:1.1.0"),
    ("NEXT", "", "org.fw:multi:1.1.0", "org.fw:multi:1.2.0"),
    ("DEPENDS", "compile", "org.fw:mock:1.0.0", "javax.servlet:servlet-api:3.0.1"),
    ("DEPENDS", "compile", "org.fw:mock:1.1.0", "javax.servlet:servlet-api:3.1.0"),
    ("DEPENDS", "test", "org.fw:mock:2.0.0", "javax.servlet:servlet-api:4.0.0"),
    ("DEPENDS", "compile", "org.fw:multi:1.0.0", "javax.servlet:servlet-api:3.0.1"),
    ("DEPENDS", "compile", "org.fw:multi:1.1.0", "javax.servlet:servlet-api:3.0.1"),
    ("DEPENDS", "compile", "org.fw:multi:1.2.0", "javax.servlet:servlet-api:3.0.1"),
    ("DEPENDS", "runtime", "org.fw:runtime-only:1.0.0", "javax.servlet:servlet-api:3.0.1"),
]


def write_graph_csvs(root: Path, artifact_rows=None, edge_rows=None) -> tuple[Path, Path]:
    root.mkdir(parents=True, exist_ok=True)
    artifacts = root / "artifacts.csv"
    edges = root / "edges.csv"
    rows = artifact_rows if artifact_rows is not None else ARTIFACT_ROWS
    lines = ["group,artifact,version,release_date,packaging,jar_path"]
    lines += [",".join(row) for row in rows]
    artifacts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = edge_rows if edge_rows is not None else EDGE_ROWS
    lines = ["kind,scope,from,to"]
    lines += [",".join(row) for row in rows]
    edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return artifacts, edges


def write_fixture_jars(jar_root: Path) -> None:
    jar_root.mkdir(parents=True, exist_ok=True)
    write_jar(jar_root / "servlet-api-3.0.1.jar", [_handler(False), _util(True)])
    write_jar(jar_root / "servlet-api-3.1.0.jar", [_handler(True), _util(True)])
    write_jar(jar_root / "servlet-api-4.0.0.jar", [_handler(True), _util(False)])
    write_jar(jar_root / "servlet-api-4.0.1.jar", [_handler(True), _util(False)])
    write_jar(
        jar_root / "mock-1.0.0.jar",
        [
            ClassSpec(
                "cli.MockHandler",
                interfaces=("srv.Handler",),
                methods=(MethodSpec("a", "()V"),),
            )
        ],
    )
    write_jar(
        jar_root / "mock-1.1.0.jar",
        [
            ClassSpec(
                "cli.MockHandler",
                interfaces=("srv.Handler",),
                methods=(MethodSpec("a", "()V"), MethodSpec("b", "()V")),
            ),
            ClassSpec(
                "cli.Caller",
                methods=(MethodSpec("run", calls=(("srv.Util", "helper", "()V"),)),),
            ),
        ],
    )
    write_jar(
        jar_root / "mock-2.0.0.jar",
        [
            ClassSpec(
                "cli.User",
                methods=(
                    MethodSpec("run", type_refs=("srv.Util",), calls=(("srv.Util", "<init>", "()V"),)),
                ),
            )
        ],
    )


def build_fixture(root: Path) -> tuple[Path, Path, Path]:
    """(artifacts.csv, edges.csv, jar_root) for the seven-version graph."""
    artifacts, edges = write_graph_csvs(root)
    jar_root = root / "jars"
    write_fixture_jars(jar_root)
    return artifacts, edges, jar_root


# Two libraries whose coordinates sort differently as (group, artifact)
# tuples, as "group:artifact" strings and as versions: ("org.lib1", "lib1")
# comes first as a tuple, "org.lib10:lib10" first as a string, and 1.9.0
# precedes 1.10.0 only as a version. lib10 has two NEXT chains; the chain
# rooted at 1.10.5 comes first in the walk, although its upgrade sorts last.
TWO_LIBRARY_ROWS = [
    ("org.lib1", "lib1", "1.9.0", "2015-01-01", "jar", "lib1-1.9.0.jar"),
    ("org.lib1", "lib1", "1.10.0", "2015-06-01", "jar", "lib1-1.10.0.jar"),
    ("org.lib1", "lib1", "2.0.0", "2016-02-01", "jar", "lib1-2.0.0.jar"),
    ("org.lib10", "lib10", "1.9.0", "2015-03-01", "jar", "lib10-1.9.0.jar"),
    ("org.lib10", "lib10", "1.10.0", "2016-03-01", "jar", "lib10-1.10.0.jar"),
    ("org.lib10", "lib10", "1.10.5", "2017-01-01", "jar", "lib10-1.10.5.jar"),
    ("org.lib10", "lib10", "1.11.0", "2018-01-01", "jar", "lib10-1.11.0.jar"),
    ("org.app", "app", "1.0.0", "2015-07-01", "jar", "app-1.0.0.jar"),
    ("org.app", "app", "1.1.0", "2017-02-01", "jar", "app-1.1.0.jar"),
    ("com.use", "tool", "1.0.0", "2015-08-01", "jar", ""),
]

TWO_LIBRARY_EDGES = [
    ("NEXT", "", "org.lib1:lib1:1.9.0", "org.lib1:lib1:1.10.0"),
    ("NEXT", "", "org.lib1:lib1:1.10.0", "org.lib1:lib1:2.0.0"),
    ("NEXT", "", "org.lib10:lib10:1.9.0", "org.lib10:lib10:1.10.0"),
    ("NEXT", "", "org.lib10:lib10:1.10.5", "org.lib10:lib10:1.11.0"),
    ("NEXT", "", "org.app:app:1.0.0", "org.app:app:1.1.0"),
    ("DEPENDS", "compile", "org.app:app:1.0.0", "org.lib1:lib1:1.9.0"),
    ("DEPENDS", "compile", "org.app:app:1.0.0", "org.lib10:lib10:1.9.0"),
    ("DEPENDS", "compile", "org.app:app:1.1.0", "org.lib1:lib1:1.10.0"),
    ("DEPENDS", "test", "org.app:app:1.1.0", "org.lib10:lib10:1.10.5"),
    ("DEPENDS", "test", "com.use:tool:1.0.0", "org.lib1:lib1:1.9.0"),
    ("DEPENDS", "compile", "com.use:tool:1.0.0", "org.lib10:lib10:1.9.0"),
]


def _lib1(*methods: str, with_a: bool = True) -> list[ClassSpec]:
    specs = [ClassSpec("l1.B", methods=(MethodSpec("<init>"),))]
    if with_a:
        specs.append(ClassSpec("l1.A", methods=tuple(MethodSpec(m) for m in ("<init>", *methods))))
    return specs


def _lib10(with_field: bool, with_internal_run: bool) -> list[ClassSpec]:
    return [
        ClassSpec(
            "l10.S",
            fields=(FieldSpec("f"),) if with_field else (),
            methods=(MethodSpec("<init>"), MethodSpec("m")),
        ),
        ClassSpec(
            "l10.internal.Impl",
            methods=(MethodSpec("<init>"),) + ((MethodSpec("run"),) if with_internal_run else ()),
        ),
    ]


def write_two_library_jars(jar_root: Path) -> None:
    jar_root.mkdir(parents=True, exist_ok=True)
    write_jar(jar_root / "lib1-1.9.0.jar", _lib1("gone", "kept"))
    write_jar(jar_root / "lib1-1.10.0.jar", _lib1("kept"))
    write_jar(jar_root / "lib1-2.0.0.jar", _lib1(with_a=False))
    write_jar(jar_root / "lib10-1.9.0.jar", _lib10(with_field=True, with_internal_run=True))
    write_jar(jar_root / "lib10-1.10.0.jar", _lib10(with_field=False, with_internal_run=True))
    write_jar(jar_root / "lib10-1.10.5.jar", _lib10(with_field=False, with_internal_run=True))
    write_jar(jar_root / "lib10-1.11.0.jar", _lib10(with_field=False, with_internal_run=False))
    write_jar(
        jar_root / "app-1.0.0.jar",
        [
            ClassSpec(
                "app.Main",
                methods=(
                    MethodSpec(
                        "run",
                        calls=(("l1.A", "gone", "()V"), ("l1.A", "kept", "()V")),
                        field_reads=(("l10.S", "f", "I"),),
                    ),
                ),
            )
        ],
    )
    write_jar(
        jar_root / "app-1.1.0.jar",
        [
            ClassSpec(
                "app.Main",
                methods=(
                    MethodSpec(
                        "run",
                        calls=(("l1.A", "kept", "()V"), ("l10.internal.Impl", "run", "()V")),
                        type_refs=("l1.A",),
                    ),
                ),
            )
        ],
    )


def build_two_library_fixture(root: Path) -> tuple[Path, Path, Path]:
    """(artifacts.csv, edges.csv, jar_root) for the two-library graph."""
    artifacts, edges = write_graph_csvs(root, TWO_LIBRARY_ROWS, TWO_LIBRARY_EDGES)
    jar_root = root / "jars"
    write_two_library_jars(jar_root)
    return artifacts, edges, jar_root


# One candidate pair for each pair exclusion reason, in a library named after
# it, and one skipped version (non_java_language's 1.1.0-rc1). Each library's
# rows are in NEXT order. x:app uses every pair's v1 but no_external_client's,
# whose only client, r:user, shares its group.
EVERY_REASON_ROWS = [
    ("r", "not_an_upgrade", "2.0.0", "2011-01-01", "jar", "java.jar"),
    ("r", "not_an_upgrade", "1.0.0", "2011-06-01", "jar", "java.jar"),
    ("r", "no_external_client", "1.0.0", "2011-01-01", "jar", "java.jar"),
    ("r", "no_external_client", "1.1.0", "2011-06-01", "jar", "java.jar"),
    ("r", "packaging_not_jar", "1.0.0", "2011-01-01", "war", "java.jar"),
    ("r", "packaging_not_jar", "1.1.0", "2011-06-01", "war", "java.jar"),
    ("r", "jar_unavailable", "1.0.0", "2011-01-01", "jar", "java.jar"),
    ("r", "jar_unavailable", "1.1.0", "2011-06-01", "jar", "missing.jar"),
    ("r", "unreadable_jar", "1.0.0", "2011-01-01", "jar", "not-a-zip.jar"),
    ("r", "unreadable_jar", "1.1.0", "2011-06-01", "jar", "java.jar"),
    ("r", "non_java_language", "1.0.0", "2011-01-01", "jar", "java.jar"),
    ("r", "non_java_language", "1.1.0-rc1", "2011-03-01", "jar", ""),
    ("r", "non_java_language", "1.1.0", "2011-06-01", "jar", "scala.jar"),
    ("r", "invalid_java_version", "1.0.0", "2011-01-01", "jar", "java-9.jar"),
    ("r", "invalid_java_version", "1.1.0", "2011-06-01", "jar", "java.jar"),
    ("r", "release_date_inversion", "1.0.0", "2011-06-01", "jar", "java.jar"),
    ("r", "release_date_inversion", "1.1.0", "2011-01-01", "jar", "java.jar"),
    ("r", "user", "1.0.0", "2011-02-01", "jar", ""),
    ("x", "app", "1.0.0", "2011-02-01", "jar", ""),
]


def build_every_reason_fixture(root: Path) -> tuple[Path, Path, Path]:
    """(artifacts.csv, edges.csv, jar_root) for the graph of every exclusion reason."""
    edge_rows = []
    for library in dict.fromkeys(row[1] for row in EVERY_REASON_ROWS[:-2]):
        coords = [f"r:{library}:{row[2]}" for row in EVERY_REASON_ROWS if row[1] == library]
        edge_rows += [("NEXT", "", v1, v2) for v1, v2 in zip(coords, coords[1:])]
        client = "r:user:1.0.0" if library == "no_external_client" else "x:app:1.0.0"
        edge_rows.append(("DEPENDS", "compile", client, coords[0]))
    artifacts, edges = write_graph_csvs(root, EVERY_REASON_ROWS, edge_rows)
    jar_root = root / "jars"
    write_jar(jar_root / "java.jar", [ClassSpec("p.A")])
    write_jar(jar_root / "scala.jar", [ClassSpec("p.A", source_file="A.scala")])
    write_jar(jar_root / "java-9.jar", [ClassSpec("p.A", major_version=53)])
    (jar_root / "not-a-zip.jar").write_bytes(b"not a zip archive\n")
    return artifacts, edges, jar_root
