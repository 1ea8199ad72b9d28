"""API-model construction, stability labels, and what a model exports."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jar_bytes, model_of
from jarcompat.apimodel import (
    STABLE,
    StabilityConfig,
    build_model,
    type_accessible,
)
from jarcompat.classfile import (
    ClassSpec,
    FieldSpec,
    MethodSpec,
    member_owner,
    member_ref,
    open_jar,
    rehost_member,
)


def test_build_model_interface_evolution_shape():
    model = model_of(
        [
            ClassSpec(
                "web.Request",
                kind="interface",
                methods=(
                    MethodSpec("getAuthType", "()Ljava/lang/String;", is_abstract=True),
                    MethodSpec("getMethod", "()Ljava/lang/String;", is_abstract=True),
                ),
            )
        ]
    )
    decl = model.types["web.Request"]
    assert decl.kind == "interface"
    assert decl.is_abstract
    assert len(decl.members) == 2


def test_build_model_empty():
    model = model_of([])
    assert model.types == {}
    assert model.type_stability == model.member_stability == {}


def test_duplicate_type_keeps_first():
    import io
    import zipfile

    from jarcompat.classfile import open_jar, write_class

    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("a/p/X.class", write_class(ClassSpec("p.X", methods=(MethodSpec("one"),))))
        archive.writestr("b/p/X.class", write_class(ClassSpec("p.X", methods=(MethodSpec("two"),))))
    model = build_model(open_jar(io.BytesIO(buffer.getvalue())))
    assert len(model.types) == 1
    assert model.types["p.X"].members[0].name == "one"
    assert any("duplicate" in d for d in model.diagnostics)


def test_beta_annotation_is_unstable():
    model = model_of(
        [
            ClassSpec(
                "p.A",
                methods=(MethodSpec("m", annotations=("com.google.common.annotations.Beta",)),),
            )
        ]
    )
    label = model.member_stability["p.A.m()V"]
    assert label.status == "unstable"
    assert label.reason_kind == "annotation"
    assert label.reason_value == "Beta"
    assert model.type_stability["p.A"].status == "stable"


def test_internal_package_is_unstable():
    model = model_of([ClassSpec("com.google.common.base.internal.Finalizer")])
    label = model.type_stability["com.google.common.base.internal.Finalizer"]
    assert label.status == "unstable"
    assert label.reason_kind == "package_convention"
    assert label.reason_value == "internal"


def test_package_keyword_is_exact_segment():
    # "apiserver" contains "api" but is not the segment "api".
    model = model_of([ClassSpec("com.example.apiserver.Thing")])
    assert model.type_stability["com.example.apiserver.Thing"].status == "stable"


def test_plain_public_method_is_stable():
    model = model_of([ClassSpec("org.example.A", methods=(MethodSpec("m"),))])
    assert model.member_stability["org.example.A.m()V"].status == "stable"


def test_members_inherit_type_instability():
    model = model_of(
        [ClassSpec("a.internal.b.T", methods=(MethodSpec("m"),), fields=(FieldSpec("f"),))]
    )
    assert model.type_stability["a.internal.b.T"].reason_kind == "package_convention"
    assert model.member_stability["a.internal.b.T.m()V"].reason_kind == "enclosing"
    assert model.member_stability["a.internal.b.T.m()V"].reason_value == "a.internal.b.T"
    assert model.member_stability["a.internal.b.T.f"].status == "unstable"


def test_nested_type_inherits_enclosing_instability():
    model = model_of(
        [
            ClassSpec("p.Outer", annotations=("x.Experimental",)),
            ClassSpec("p.Outer$Nested", methods=(MethodSpec("m"),)),
        ]
    )
    assert model.type_stability["p.Outer"].reason_kind == "annotation"
    nested = model.type_stability["p.Outer$Nested"]
    assert nested.status == "unstable"
    assert nested.reason_kind == "enclosing"
    assert model.member_stability["p.Outer$Nested.m()V"].status == "unstable"


def test_deprecated_is_not_unstable():
    model = model_of(
        [ClassSpec("p.A", methods=(MethodSpec("m", annotations=("java.lang.Deprecated",)),))]
    )
    assert model.member_stability["p.A.m()V"].status == "stable"


def test_interface_audience_annotation_matches_default_list():
    model = model_of(
        [ClassSpec("p.A", annotations=("org.apache.hadoop.classification.InterfaceAudience",))]
    )
    assert model.type_stability["p.A"].reason_value == "InterfaceAudience"


def test_stability_totality():
    model = model_of(
        [
            ClassSpec(
                "p.A",
                methods=(MethodSpec("m"), MethodSpec("<init>")),
                fields=(FieldSpec("f"),),
            ),
            ClassSpec("p.internal.B", methods=(MethodSpec("x"),)),
        ]
    )
    for name, decl in model.types.items():
        assert name in model.type_stability
        for member in decl.members:
            assert member.ref in model.member_stability


def test_classify_stability_standalone():
    model = model_of([ClassSpec("p.A", methods=(MethodSpec("m"),))])
    decl = model.types["p.A"]
    assert model.type_stability[decl.this_name].status == "stable"
    assert model.member_stability[decl.members[0].ref].status == "stable"


def test_previous_model_whose_type_shares_a_field_ref_lends_no_label():
    # In 1.0 the type p.A.f (package p.A) is named like the field f of p.A,
    # and only the type is @Beta. Each keeps its own label, and 1.1, which
    # drops that type, takes over the field's label unchanged.
    owner = ClassSpec("p.A", fields=(FieldSpec("f"),))
    clash = ClassSpec("p.A.f", annotations=("p.Beta",))
    parsed: dict = {}
    v1 = open_jar(io.BytesIO(jar_bytes([owner, clash])), parsed)
    v2 = open_jar(io.BytesIO(jar_bytes([owner])), parsed)
    previous = build_model(v1)
    assert previous.type_stability["p.A.f"].reason_kind == "annotation"
    assert previous.member_stability == {"p.A.f": STABLE}
    reused = build_model(v2, previous=previous)
    fresh = build_model(v2)
    assert reused.types["p.A"] is previous.types["p.A"]
    assert reused.type_stability == fresh.type_stability == {"p.A": STABLE}
    assert reused.member_stability == fresh.member_stability == {"p.A.f": STABLE}


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "stability.cfg"
    path.write_text(
        "# comment\n[keywords]\nbeta\nunsafe\n\n[annotations]\nPreview\n", encoding="utf-8"
    )
    config = StabilityConfig.load(path)
    assert config.keywords == ("beta", "unsafe")
    assert config.annotations == ("Preview",)
    model = model_of([ClassSpec("p.unsafe.T")], config=config)
    assert model.type_stability["p.unsafe.T"].status == "unstable"
    # The default "internal" keyword is gone under the custom config.
    model2 = model_of([ClassSpec("p.internal.T")], config=config)
    assert model2.type_stability["p.internal.T"].status == "stable"


def test_config_file_rejects_stray_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("beta\n", encoding="utf-8")
    with pytest.raises(ValueError):
        StabilityConfig.load(path)


# A client outside the package sees a type when ``type_accessible`` holds,
# and then its public and protected members.


def _exported(model, type_name):
    """The references of the members ``type_name`` exports, empty for a hidden type."""
    if not type_accessible(model, type_name):
        return set()
    return {
        member.ref
        for member in model.types[type_name].members
        if member.visibility in ("public", "protected")
    }


def test_private_member_is_not_exported():
    model = model_of(
        [
            ClassSpec(
                "p.A",
                methods=(MethodSpec("pub"), MethodSpec("priv", visibility="private")),
            )
        ]
    )
    exported = _exported(model, "p.A")
    assert "p.A.pub()V" in exported
    assert "p.A.priv()V" not in exported


def test_protected_field_on_public_class_is_exported():
    model = model_of([ClassSpec("p.A", fields=(FieldSpec("f", visibility="protected"),))])
    assert "p.A.f" in _exported(model, "p.A")


def test_public_member_of_package_private_class_is_not_exported():
    model = model_of([ClassSpec("p.A", visibility="package", methods=(MethodSpec("m"),))])
    assert not type_accessible(model, "p.A")
    assert model.types["p.A"].members[0].visibility == "public"
    assert _exported(model, "p.A") == set()


def test_nested_type_needs_accessible_chain():
    hidden_outer = model_of(
        [
            ClassSpec("p.Out", visibility="package"),
            ClassSpec(
                "p.Out$In",
                inner_classes=(("p.Out$In", "p.Out", "In", 0x0001),),
                methods=(MethodSpec("m"),),
            ),
        ]
    )
    assert hidden_outer.types["p.Out$In"].visibility == "public"
    assert not type_accessible(hidden_outer, "p.Out$In")
    open_outer = model_of(
        [
            ClassSpec("p.Out"),
            ClassSpec(
                "p.Out$In",
                inner_classes=(("p.Out$In", "p.Out", "In", 0x0001),),
                methods=(MethodSpec("m"),),
            ),
        ]
    )
    assert type_accessible(open_outer, "p.Out$In")
    assert "p.Out$In.m()V" in _exported(open_outer, "p.Out$In")


def test_member_visibility_property():
    model = model_of(
        [
            ClassSpec(
                "p.A",
                methods=(
                    MethodSpec("a"),
                    MethodSpec("b", visibility="protected"),
                    MethodSpec("c", visibility="package"),
                    MethodSpec("d", visibility="private"),
                ),
            )
        ]
    )
    visibility = {member.name: member.visibility for member in model.types["p.A"].members}
    assert visibility == {"a": "public", "b": "protected", "c": "package", "d": "private"}
    assert _exported(model, "p.A") == {"p.A.a()V", "p.A.b()V"}


def test_effective_members_inherited():
    model = model_of(
        [
            ClassSpec("p.S", methods=(MethodSpec("m"),), fields=(FieldSpec("f"),)),
            ClassSpec("p.C", super_name="p.S"),
        ]
    )
    eff = model.resolve_method("p.C", "m", "()V")
    assert eff is not None
    assert eff.inherited_from == "p.S"
    assert model.resolve_field("p.C", "f", "I") is not None
    assert model.resolve_field("p.C", "f", "J") is None  # descriptor must match
    # Constructors are not inherited.
    model2 = model_of(
        [
            ClassSpec("p.S", methods=(MethodSpec("<init>"),)),
            ClassSpec("p.C", super_name="p.S"),
        ]
    )
    assert model2.resolve_method("p.C", "<init>", "()V") is None


def test_effective_members_interface_methods():
    model = model_of(
        [
            ClassSpec("p.I", kind="interface", methods=(MethodSpec("m", is_abstract=True),)),
            ClassSpec("p.C", interfaces=("p.I",)),
        ]
    )
    eff = model.resolve_method("p.C", "m", "()V")
    assert eff is not None and eff.decl.is_abstract


def test_hierarchy_cycle_does_not_hang():
    model = model_of(
        [
            ClassSpec("p.A", super_name="p.B"),
            ClassSpec("p.B", super_name="p.A"),
        ]
    )
    assert model.superclass_chain("p.A") == ["p.B"]


_identifier = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_owners = st.builds(
    lambda package, names: ".".join([*package, "$".join(names)]),
    st.lists(_identifier, max_size=3),
    # "(" is legal in a class name; the owner still ends at the last ".".
    st.lists(st.from_regex(r"[A-Z][A-Za-z0-9_(]{0,5}", fullmatch=True), min_size=1, max_size=3),
)
_field_types = st.sampled_from(["I", "J", "[B", "Ljava/lang/String;", "[[La/b/C$D;"])
_method_descriptors = st.builds(
    lambda params, ret: f"({''.join(params)}){ret}",
    st.lists(_field_types, max_size=3),
    st.one_of(st.just("V"), _field_types),
)


@settings(max_examples=60, deadline=None)
@given(_owners, _owners, _identifier, _field_types, _identifier, _method_descriptors, _method_descriptors)
def test_member_reference_round_trip(owner, client, field_name, field_desc, method_name, method_desc, init_desc):
    spec = ClassSpec(
        owner,
        fields=(FieldSpec(field_name, field_desc),),
        methods=(MethodSpec(method_name, method_desc), MethodSpec("<init>", init_desc)),
    )
    members = model_of([spec]).types[owner].members
    assert {m.member_kind for m in members} == {"field", "method", "constructor"}
    for decl in members:
        ref = member_ref(owner, decl.name, decl.descriptor)
        assert member_owner(ref) == owner
        assert decl.ref == ref
        rehosted = rehost_member(ref, client)
        assert rehosted == member_ref(client, decl.name, decl.descriptor)
        assert member_owner(rehosted) == client
