"""Usage extraction: relation population, resolution, and closure."""

from __future__ import annotations

from conftest import jar_content, model_of, usage_pairs
from jarcompat.classfile import ClassSpec, FieldSpec, MethodSpec
from jarcompat.usage import UseKind, extract_usage

LIBRARY = [
    ClassSpec(
        "lib.Handler",
        kind="interface",
        methods=(
            MethodSpec("getAuthType", "()Ljava/lang/String;", is_abstract=True),
            MethodSpec("getMethod", "()Ljava/lang/String;", is_abstract=True),
        ),
    ),
    ClassSpec(
        "lib.A",
        methods=(MethodSpec("<init>"), MethodSpec("m")),
        fields=(FieldSpec("f", "I", is_static=True),),
    ),
    ClassSpec("lib.Base"),
    ClassSpec("lib.Marker", kind="annotation"),
]


def _usage(client_specs):
    library = model_of(LIBRARY, model_id="lib-v1")
    return extract_usage(jar_content(client_specs), library)


def test_implements_relation():
    usage = _usage(
        [
            ClassSpec(
                "cli.MockHandler",
                interfaces=("lib.Handler",),
                methods=(
                    MethodSpec("getAuthType", "()Ljava/lang/String;"),
                    MethodSpec("getMethod", "()Ljava/lang/String;"),
                ),
            )
        ]
    )
    assert ("cli.MockHandler", "lib.Handler") in usage_pairs(usage, UseKind.IMPLEMENTS)
    assert usage_pairs(usage, UseKind.EXTENDS) == set()


def test_unrelated_client_has_empty_relations():
    usage = _usage([ClassSpec("cli.Lonely", methods=(MethodSpec("m"),))])
    for kind in UseKind:
        assert usage_pairs(usage, kind) == set()


def test_invocation_and_field_access():
    usage = _usage(
        [
            ClassSpec(
                "cli.C",
                methods=(
                    MethodSpec(
                        "body",
                        calls=(("lib.A", "m", "()V"),),
                        field_reads=(("lib.A", "f", "I"),),
                    ),
                ),
            )
        ]
    )
    assert ("cli.C.body()V", "lib.A.m()V") in usage_pairs(usage, UseKind.METHOD_INVOCATION)
    assert ("cli.C.body()V", "lib.A.f") in usage_pairs(usage, UseKind.FIELD_ACCESS)


def test_constructor_invocation_is_separate_kind():
    usage = _usage(
        [
            ClassSpec(
                "cli.C",
                methods=(MethodSpec("body", calls=(("lib.A", "<init>", "()V"),), type_refs=("lib.A",)),),
            )
        ]
    )
    assert ("cli.C.body()V", "lib.A.<init>()V") in usage_pairs(usage, UseKind.CONSTRUCTOR_INVOCATION)
    assert ("cli.C.body()V", "lib.A") in usage_pairs(usage, UseKind.TYPE_DEPENDENCY)
    assert usage_pairs(usage, UseKind.METHOD_INVOCATION) == set()


def test_annotation_relation():
    usage = _usage(
        [
            ClassSpec(
                "cli.C",
                annotations=("lib.Marker",),
                methods=(MethodSpec("m", annotations=("lib.Marker",)),),
            )
        ]
    )
    assert ("cli.C", "lib.Marker") in usage_pairs(usage, UseKind.ANNOTATION)
    assert ("cli.C.m()V", "lib.Marker") in usage_pairs(usage, UseKind.ANNOTATION)


def test_descriptor_types_become_type_dependencies():
    usage = _usage(
        [
            ClassSpec(
                "cli.C",
                fields=(FieldSpec("h", "Llib/Handler;"),),
                methods=(MethodSpec("make", "(Llib/A;)Llib/Base;"),),
            )
        ]
    )
    assert ("cli.C.h", "lib.Handler") in usage_pairs(usage, UseKind.TYPE_DEPENDENCY)
    assert ("cli.C.make(Llib/A;)Llib/Base;", "lib.A") in usage_pairs(usage, UseKind.TYPE_DEPENDENCY)
    assert ("cli.C.make(Llib/A;)Llib/Base;", "lib.Base") in usage_pairs(usage, UseKind.TYPE_DEPENDENCY)


def test_unresolved_references_are_dropped():
    usage = _usage(
        [
            ClassSpec(
                "cli.C",
                methods=(
                    MethodSpec(
                        "body",
                        calls=(
                            ("java.lang.String", "length", "()I"),  # outside library
                            ("lib.A", "nosuch", "()V"),  # unresolvable member
                        ),
                    ),
                ),
            )
        ]
    )
    assert usage_pairs(usage, UseKind.METHOD_INVOCATION) == set()


def test_inherited_member_resolves_against_host_type():
    library = model_of(
        [
            ClassSpec("lib.S", methods=(MethodSpec("m"),)),
            ClassSpec("lib.C", super_name="lib.S", methods=(MethodSpec("<init>"),)),
        ],
        model_id="lib-v1",
    )
    client = jar_content(
        [ClassSpec("cli.X", methods=(MethodSpec("body", calls=(("lib.C", "m", "()V"),)),))]
    )
    usage = extract_usage(client, library)
    assert ("cli.X.body()V", "lib.C.m()V") in usage_pairs(usage, UseKind.METHOD_INVOCATION)


def test_extends_closure_mirrors_hierarchy_declarations():
    client_specs = [
        ClassSpec("cli.Sub", super_name="lib.Base"),
        ClassSpec("cli.Other", super_name="cli.Sub"),  # internal super: not a library pair
    ]
    usage = _usage(client_specs)
    assert usage_pairs(usage, UseKind.EXTENDS) == {("cli.Sub", "lib.Base")}


def test_declared_exceptions_are_type_dependencies():
    usage = _usage(
        [
            ClassSpec(
                "cli.C",
                methods=(MethodSpec("m", exceptions=("lib.Base",)),),
            )
        ]
    )
    assert ("cli.C.m()V", "lib.Base") in usage_pairs(usage, UseKind.TYPE_DEPENDENCY)


def test_no_fabrication_every_pair_has_a_source():
    client_specs = [
        ClassSpec(
            "cli.C",
            super_name="lib.Base",
            interfaces=("lib.Handler",),
            annotations=("lib.Marker",),
            methods=(
                MethodSpec(
                    "getAuthType",
                    "()Ljava/lang/String;",
                    calls=(("lib.A", "m", "()V"),),
                    field_reads=(("lib.A", "f", "I"),),
                ),
                MethodSpec("getMethod", "()Ljava/lang/String;"),
            ),
        )
    ]
    content = jar_content(client_specs)
    usage = extract_usage(content, model_of(LIBRARY, model_id="lib-v1"))
    cls = content.classes()[0]
    declared_sources = {cls.super_name} | set(cls.interfaces) | set(cls.annotations)
    for raw in cls.methods:
        declared_sources |= {f"{r.owner}.{r.name}{r.descriptor}" for r in raw.invoked_methods}
        declared_sources |= {f"{r.owner}.{r.name}" for r in raw.accessed_fields}
    for kind in (UseKind.EXTENDS, UseKind.IMPLEMENTS, UseKind.ANNOTATION):
        for _, target in usage_pairs(usage, kind):
            assert target in declared_sources
    for _, target in usage_pairs(usage, UseKind.METHOD_INVOCATION):
        assert target in declared_sources
    for _, target in usage_pairs(usage, UseKind.FIELD_ACCESS):
        assert target in declared_sources


def test_member_uses_are_filed_under_their_owner():
    library = model_of(
        [
            ClassSpec("lib.S", methods=(MethodSpec("m"),), fields=(FieldSpec("f", "I"),)),
            ClassSpec("lib.C", super_name="lib.S", methods=(MethodSpec("<init>"),)),
        ],
        model_id="lib-v1",
    )
    body = MethodSpec(
        "body",
        calls=(("lib.C", "m", "()V"), ("lib.C", "<init>", "()V")),
        field_reads=(("lib.S", "f", "I"),),
    )
    usage = extract_usage(jar_content([ClassSpec("cli.X", methods=(body,))]), library)
    # An inherited member is filed under the type the client names.
    assert usage.member_uses == {
        UseKind.METHOD_INVOCATION: {"lib.C": {"cli.X.body()V"}},
        UseKind.FIELD_ACCESS: {"lib.S": {"cli.X.body()V"}},
        UseKind.CONSTRUCTOR_INVOCATION: {"lib.C": {"cli.X.body()V"}},
    }
    assert usage.is_touched("lib.C") and usage.is_touched("lib.S")
    assert not usage.is_used("lib.C") and usage.is_used("lib.C.m()V")
