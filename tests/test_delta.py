"""Delta computation: catalog coverage, identity, duality, determinism."""

from __future__ import annotations

import io
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog_cases import CATALOG_CASES
from conftest import jar_bytes, jar_content, model_of
from jarcompat.apimodel import StabilityConfig, StabilityLabel, build_model, same_closure
from jarcompat.classfile import (
    ACC_ABSTRACT,
    ACC_ANNOTATION,
    ACC_ENUM,
    ACC_FINAL,
    ACC_INTERFACE,
    ACC_PRIVATE,
    ACC_PROTECTED,
    ACC_PUBLIC,
    ACC_STATIC,
    ACC_SYNTHETIC,
    ClassSpec,
    FieldSpec,
    InnerClassRecord,
    MethodSpec,
    open_jar,
    parse_class,
    write_class,
)
from jarcompat.delta import (
    CATALOG,
    BcKind,
    Delta,
    compute_delta,
    is_breaking,
)


def _delta_for(case):
    old = model_of(list(case.old), model_id="old")
    new = model_of(list(case.new), model_id="new")
    return compute_delta(old, new), old, new


@pytest.mark.parametrize("case", CATALOG_CASES, ids=lambda c: c.kind)
def test_catalog_case_exact(case):
    delta, _, _ = _delta_for(case)
    got = {(c.kind.value, c.element) for c in delta.changes}
    assert case.expected - got == set(), f"missing changes for {case.kind}"
    assert got - case.expected - case.coupled == set(), f"spurious changes for {case.kind}"


def test_catalog_covers_all_kinds():
    assert {case.kind for case in CATALOG_CASES} == {kind.value for kind in BcKind}
    assert len(list(BcKind)) == 31
    assert set(CATALOG) == set(BcKind)
    assert all("JLS" in rationale for rationale in CATALOG.values())


def test_identity_delta_is_empty():
    specs = [
        ClassSpec(
            "p.A",
            super_name="p.S",
            interfaces=("p.I",),
            methods=(MethodSpec("m", "(I)Ljava/lang/String;"), MethodSpec("<init>")),
            fields=(FieldSpec("f", "J", is_static=True),),
        ),
        ClassSpec("p.S"),
        ClassSpec("p.I", kind="interface", methods=(MethodSpec("x", is_abstract=True),)),
    ]
    old = model_of(specs, model_id="a")
    new = model_of(specs, model_id="b")
    assert compute_delta(old, new).changes == []


def _double_constant(value: float) -> list[ClassSpec]:
    return [ClassSpec("p.A", fields=(FieldSpec("X", "D", is_static=True, is_final=True, constant=value),))]


def test_nan_constant_compared_with_itself_is_unchanged():
    # NaN != NaN in IEEE arithmetic, but Double.NaN is one constant.
    old = model_of(_double_constant(float("nan")), model_id="a")
    new = model_of(_double_constant(float("nan")), model_id="b")
    assert compute_delta(old, new).changes == []


def test_signed_zero_constant_change_is_reported():
    old = model_of(_double_constant(0.0), model_id="a")
    new = model_of(_double_constant(-0.0), model_id="b")
    changes = compute_delta(old, new).changes
    assert [(c.kind, c.element) for c in changes] == [(BcKind.FIELD_CONSTANT_VALUE_CHANGED, "p.A.X")]
    assert changes[0].detail_map() == {"old": "0.0", "new": "-0.0"}


def test_multi_edit_fixture():
    old = model_of(
        [
            ClassSpec("p.A", methods=(MethodSpec("m"), MethodSpec("keep"))),
            ClassSpec("p.B", methods=(MethodSpec("keep"),)),
            ClassSpec("p.C", fields=(FieldSpec("f"),)),
        ]
    )
    new = model_of(
        [
            ClassSpec("p.A", methods=(MethodSpec("keep"),)),
            ClassSpec("p.B", is_final=True, methods=(MethodSpec("keep"),)),
            ClassSpec("p.C", fields=(FieldSpec("f", visibility="protected"),)),
        ]
    )
    delta = compute_delta(old, new)
    assert {(c.kind.value, c.element) for c in delta.changes} == {
        ("methodRemoved", "p.A.m()V"),
        ("classNowFinal", "p.B"),
        ("fieldLessAccessible", "p.C.f"),
    }


def test_removal_duality():
    for case in CATALOG_CASES:
        delta, old, new = _delta_for(case)
        reverse = compute_delta(
            model_of(list(case.new), model_id="new"), model_of(list(case.old), model_id="old")
        )
        for change in delta.changes:
            if change.kind is BcKind.CLASS_REMOVED:
                assert change.element in old.types
                assert change.element not in new.types
                reverse_removed = {
                    c.element for c in reverse.changes if c.kind is BcKind.CLASS_REMOVED
                }
                assert change.element not in reverse_removed


def test_changes_outside_surface_are_ignored():
    # p.A.f is a hidden class named like the exported field f of p.A.
    old = model_of(
        [
            ClassSpec("p.Hidden", visibility="package", methods=(MethodSpec("m"),)),
            ClassSpec(
                "p.A", methods=(MethodSpec("priv", visibility="private"),), fields=(FieldSpec("f"),)
            ),
            ClassSpec("p.A.f", visibility="package"),
        ]
    )
    new = model_of([ClassSpec("p.A", fields=(FieldSpec("f"),))])
    delta = compute_delta(old, new)
    assert delta.changes == []  # hidden types and private member do not count


def test_stability_tag_matches_old_model():
    old = model_of(
        [
            ClassSpec(
                "p.A",
                methods=(
                    MethodSpec("m", annotations=("x.Beta",)),
                    MethodSpec("n"),
                ),
            )
        ]
    )
    new = model_of([ClassSpec("p.A")])
    delta = compute_delta(old, new)
    by_element = {c.element: c for c in delta.changes}
    assert by_element["p.A.m()V"].stability.status == "unstable"
    assert by_element["p.A.n()V"].stability.status == "stable"
    for change in delta.changes:
        decl = next(
            member
            for member in old.types["p.A"].members
            if member.ref == change.element
        )
        assert change.stability == old.member_stability[decl.ref]


def test_removed_field_keeps_its_label_beside_a_type_named_like_it():
    # The class p.A.f is named like the field f of p.A; only the field is
    # @Beta, and its label must not give way to the class's.
    clash = ClassSpec("p.A.f")
    old = model_of([ClassSpec("p.A", fields=(FieldSpec("f", annotations=("x.Beta",)),)), clash])
    new = model_of([ClassSpec("p.A"), clash])
    delta = compute_delta(old, new)
    assert [(c.kind, c.element, c.stability) for c in delta.changes] == [
        (BcKind.FIELD_REMOVED, "p.A.f", StabilityLabel("unstable", "annotation", "Beta"))
    ]


def test_additive_kind_uses_new_model_stability():
    old = model_of([ClassSpec("p.I", kind="interface")])
    new = model_of(
        [
            ClassSpec(
                "p.I",
                kind="interface",
                methods=(MethodSpec("m", is_abstract=True, annotations=("x.Beta",)),),
            )
        ]
    )
    delta = compute_delta(old, new)
    assert len(delta.changes) == 1
    assert delta.changes[0].kind is BcKind.METHOD_ADDED_TO_INTERFACE
    assert delta.changes[0].stability.status == "unstable"


def test_is_breaking_scopes():
    old = model_of(
        [ClassSpec("p.A", methods=(MethodSpec("m", annotations=("x.Beta",)), MethodSpec("keep")))]
    )
    new = model_of([ClassSpec("p.A", methods=(MethodSpec("keep"),))])
    delta = compute_delta(old, new)
    assert is_breaking(delta, "all")
    assert not is_breaking(delta, "stable")  # only a @Beta method was removed
    assert not is_breaking(Delta("a", "b"), "all")
    with pytest.raises(ValueError):
        is_breaking(delta, "bogus")


def test_is_breaking_stable_field_removed():
    old = model_of([ClassSpec("p.A", fields=(FieldSpec("f"), FieldSpec("g")))])
    new = model_of([ClassSpec("p.A", fields=(FieldSpec("g"),))])
    assert is_breaking(compute_delta(old, new), "stable")


def test_histogram_matches_per_delta_recount():
    assert Delta("a", "b").by_kind() == {}
    for case in CATALOG_CASES:
        delta = _delta_for(case)[0]
        recount: dict[str, int] = {}
        for change in delta.changes:
            recount[change.kind.value] = recount.get(change.kind.value, 0) + 1
        assert delta.by_kind() == dict(sorted(recount.items()))


def test_serialization_is_deterministic_and_round_trips():
    case = next(c for c in CATALOG_CASES if c.kind == "methodReturnTypeChanged")
    first, _, _ = _delta_for(case)
    second, _, _ = _delta_for(case)
    assert first.to_json() == second.to_json()
    reparsed = Delta.from_dict(second.to_dict())
    assert reparsed.to_json() == first.to_json()
    assert reparsed.changes == first.changes


def test_changes_sorted_and_counts_consistent():
    old = model_of(
        [
            ClassSpec("p.B", methods=(MethodSpec("m"), MethodSpec("keep"))),
            ClassSpec("p.A", fields=(FieldSpec("f"), FieldSpec("g"))),
        ]
    )
    new = model_of(
        [
            ClassSpec("p.B", methods=(MethodSpec("keep"),)),
            ClassSpec("p.A", fields=(FieldSpec("g"),)),
        ]
    )
    delta = compute_delta(old, new)
    keys = [(c.element, c.kind.value) for c in delta.changes]
    assert keys == sorted(keys)
    assert sum(delta.by_kind().values()) == len(delta.changes)
    assert sum(delta.by_stability().values()) == len(delta.changes)


def test_each_interface_change_is_its_own_record():
    interfaces = [ClassSpec(f"p.{name}", kind="interface") for name in "IJKL"]
    old = model_of([*interfaces, ClassSpec("p.A", interfaces=("p.I", "p.J"))])
    new = model_of([*interfaces, ClassSpec("p.A", interfaces=("p.K", "p.L"))])
    delta = compute_delta(old, new)
    records = [(c.kind.value, dict(c.detail)["interface"]) for c in delta.changes]
    assert records == [
        ("interfaceAdded", "p.K"),
        ("interfaceAdded", "p.L"),
        ("interfaceRemoved", "p.I"),
        ("interfaceRemoved", "p.J"),
    ]
    assert delta.by_kind() == {"interfaceAdded": 2, "interfaceRemoved": 2}


def test_inherited_member_removal_reports_both_hosts():
    old = model_of(
        [
            ClassSpec("p.S", methods=(MethodSpec("m"),)),
            ClassSpec("p.C", super_name="p.S"),
        ]
    )
    new = model_of([ClassSpec("p.S"), ClassSpec("p.C", super_name="p.S")])
    delta = compute_delta(old, new)
    elements = {c.element for c in delta.changes if c.kind is BcKind.METHOD_REMOVED}
    assert elements == {"p.S.m()V", "p.C.m()V"}
    inherited = next(c for c in delta.changes if c.element == "p.C.m()V")
    assert inherited.detail_map()["inheritedFrom"] == "p.S"


def test_unchecked_exception_additions_do_not_fire():
    old = model_of([ClassSpec("p.A", methods=(MethodSpec("m"),)), ClassSpec("p.Oops", super_name="java.lang.RuntimeException")])
    new = model_of(
        [
            ClassSpec("p.A", methods=(MethodSpec("m", exceptions=("p.Oops",)),)),
            ClassSpec("p.Oops", super_name="java.lang.RuntimeException"),
        ]
    )
    assert compute_delta(old, new).changes == []


@pytest.mark.parametrize("name, checked", [
    ("p.Sub", False),  # p.Sub -> p.Oops -> java.lang.Error, outside the model
    ("java.lang.RuntimeException", False),
    ("p.Thrown", True),  # extends java.lang.Throwable, which is checked
    ("p.Lost", True),  # its superclass is unknown: assumed checked
    ("p.Loop", True),  # a superclass cycle ends the walk
    ("java.lang.Exception", True),
])
def test_checked_exception_is_read_from_the_superclass_chain(name, checked):
    from jarcompat.delta import _is_checked_exception

    model = model_of([
        ClassSpec("p.Oops", super_name="java.lang.Error"),
        ClassSpec("p.Sub", super_name="p.Oops"),
        ClassSpec("p.Thrown", super_name="java.lang.Throwable"),
        ClassSpec("p.Lost", super_name="q.Gone"),
        ClassSpec("p.Loop", super_name="p.Pool"),
        ClassSpec("p.Pool", super_name="p.Loop"),
    ])
    assert _is_checked_exception(model, name) is checked


# --- unchanged types: the short cut of models that share parses ----------

# (name, kind, superclass, interfaces) of every generated type. p.Ext is
# absent from both versions; p.I1 and p.I2 both extend p.I0, so p.A reaches
# p.I0 twice; p.B -> p.C -> p.D is a chain of depth 3 below p.A.
_SKELETON = (
    ("p.I0", "interface", None, ()),
    ("p.I1", "interface", None, ("p.I0",)),
    ("p.I2", "interface", None, ("p.I0",)),
    ("p.A", "class", "p.Ext", ("p.I1", "p.I2")),
    ("p.B", "class", "p.A", ()),
    ("p.C", "class", "p.B", ()),
    ("p.D", "class", "p.C", ()),
    ("p.D$N", "class", "p.B", ("p.I2",)),
    ("p.D$N$M", "class", "p.D", ()),
)
_CLASS_NAMES = [name for name, kind, _, _ in _SKELETON if kind == "class"]
_INTERFACE_NAMES = [name for name, kind, _, _ in _SKELETON if kind == "interface"]
_CONSTANTS = (0.0, -0.0, float("nan"), 1.5)
_METHOD_SHAPES = (("m", "()V"), ("m", "()I"), ("n", "(I)V"), ("<init>", "()V"))
_VISIBILITIES = ("public", "protected", "package", "private")


@st.composite
def _type_spec(draw, name, kind, super_name, interfaces):
    """A spec of one skeleton type. One in four points its supertypes
    elsewhere in the skeleton, which can close a hierarchy cycle."""
    if draw(st.integers(0, 3)) == 0:
        if kind == "class":
            super_name = draw(st.sampled_from([None, "p.Ext", *_CLASS_NAMES]))
        interfaces = tuple(draw(st.lists(st.sampled_from(_INTERFACE_NAMES), unique=True, max_size=2)))
    is_abstract = kind == "class" and draw(st.booleans())
    methods = []
    for m_name, desc in _METHOD_SHAPES:
        if not draw(st.booleans()) or (kind == "interface" and m_name == "<init>"):
            continue
        abstract = (kind == "interface" or is_abstract) and m_name != "<init>" and draw(st.booleans())
        methods.append(MethodSpec(
            m_name, desc,
            visibility="public" if kind == "interface" else draw(st.sampled_from(_VISIBILITIES)),
            is_abstract=abstract,
            is_static=not abstract and m_name != "<init>" and draw(st.booleans()),
            is_final=not abstract and kind == "class" and draw(st.booleans()),
            exceptions=draw(st.sampled_from([(), ("java.io.IOException",)])),
            annotations=draw(st.sampled_from([(), ("p.Beta",)])),
        ))
    fields = [FieldSpec("f", "I", visibility=draw(st.sampled_from(_VISIBILITIES)),
                        is_static=draw(st.booleans()), is_final=draw(st.booleans()))]
    if draw(st.booleans()):
        fields.append(FieldSpec("K", "D", is_static=True, is_final=True,
                                constant=draw(st.sampled_from(_CONSTANTS))))
    inner = ()
    if "$" in name:
        outer, _, simple = name.rpartition("$")
        inner = ((name, outer, simple, draw(st.sampled_from([0x0001, 0x0009, 0x0004, 0]))),)
    return ClassSpec(
        name, kind=kind, is_abstract=is_abstract,
        is_final=kind == "class" and not is_abstract and draw(st.booleans()),
        super_name=super_name, interfaces=interfaces,
        methods=tuple(methods), fields=tuple(fields),
        annotations=draw(st.sampled_from([(), ("p.Beta",)])), inner_classes=inner,
    )


@st.composite
def _version_pair(draw, skeleton=_SKELETON):
    """Specs of two versions of the ``skeleton`` types, each in its own
    shuffled entry order. Every type is shared (same bytes), changed, changed
    in its constant alone, only in v1, or only in v2."""
    old, new = [], []
    for name, kind, super_name, interfaces in skeleton:
        spec = draw(_type_spec(name, kind, super_name, interfaces))
        status = draw(st.sampled_from(["shared", "shared", "changed", "constant", "removed", "added"]))
        if status != "added":
            old.append(spec)
        if status == "shared":
            new.append(spec)
        elif status == "constant":
            constant = FieldSpec("K", "D", is_static=True, is_final=True,
                                 constant=draw(st.sampled_from(_CONSTANTS)))
            new.append(replace(spec, fields=(spec.fields[0], constant)))
        elif status in ("changed", "added"):
            new.append(draw(_type_spec(name, kind, super_name, interfaces)))
    return draw(st.permutations(old)), draw(st.permutations(new))


def _models(old_specs, new_specs, parsed_old, parsed_new):
    old = build_model(open_jar(io.BytesIO(jar_bytes(old_specs)), parsed_old), model_id="old")
    new = build_model(open_jar(io.BytesIO(jar_bytes(new_specs)), parsed_new), model_id="new")
    return old, new


@settings(max_examples=150, deadline=None)
@given(_version_pair())
def test_short_cut_delta_equals_full_delta(pair):
    old_specs, new_specs = pair
    shared: dict = {}
    short_cut = compute_delta(*_models(old_specs, new_specs, shared, shared))
    # Parsed apart, no class object is shared, so every type is compared.
    full = compute_delta(*_models(old_specs, new_specs, {}, {}))
    assert short_cut.to_dict() == full.to_dict()


@settings(max_examples=60, deadline=None)
@given(_version_pair())
def test_model_compared_with_itself_is_empty(pair):
    for specs in pair:
        model = build_model(jar_content(list(specs)))
        assert compute_delta(model, model).changes == []


def test_hierarchy_cycle_disables_the_short_cut():
    # p.A and p.B extend each other with identical bytes in both versions;
    # effective members then depend on entry order, which differs here.
    a = ClassSpec("p.A", super_name="p.B", methods=(MethodSpec("a"),))
    b = ClassSpec("p.B", super_name="p.A", methods=(MethodSpec("b"),))
    parsed: dict = {}
    old, new = _models([a, b], [b, a], parsed, parsed)
    assert old.types["p.A"] is new.types["p.A"]
    full = compute_delta(*_models([a, b], [b, a], {}, {}))
    assert [(c.kind, c.element) for c in full.changes] == [(BcKind.METHOD_REMOVED, "p.A.b()V")]
    assert compute_delta(old, new).to_dict() == full.to_dict()


# --- the records' decoders against the declarations they replaced -----------

# The model once copied every parsed class into a declaration record. These
# are those builders, with the records' fields as dicts, kept as the oracle
# of what ``RawClass`` and ``RawMember`` decode. A type's ``is_static``,
# which nothing read, is left out.


def _oracle_visibility(flags):
    if flags & ACC_PUBLIC:
        return "public"
    if flags & ACC_PROTECTED:
        return "protected"
    if flags & ACC_PRIVATE:
        return "private"
    return "package"


def _oracle_type_kind(flags):
    if flags & ACC_ANNOTATION:
        return "annotation"
    if flags & ACC_INTERFACE:
        return "interface"
    if flags & ACC_ENUM:
        return "enum"
    return "class"


def _oracle_member_decl(owner, raw):
    if "(" in raw.descriptor:
        kind = "constructor" if raw.name == "<init>" else "method"
    else:
        kind = "field"
    ref = f"{owner.this_name}.{raw.name}"
    return dict(
        owner=owner.this_name,
        member_kind=kind,
        name=raw.name,
        descriptor=raw.descriptor,
        visibility=_oracle_visibility(raw.access_flags),
        is_abstract=bool(raw.access_flags & ACC_ABSTRACT),
        is_final=bool(raw.access_flags & ACC_FINAL),
        is_static=bool(raw.access_flags & ACC_STATIC),
        is_default=raw.is_default_method,
        declared_exceptions=raw.declared_exceptions,
        annotations=raw.annotations,
        ref=ref + raw.descriptor if raw.descriptor.startswith("(") else ref,
    )


def _oracle_type_decl(cls):
    name = cls.this_name
    package = name.rsplit(".", 1)[0] if "." in name else ""
    visibility = _oracle_visibility(cls.access_flags)
    for record in cls.inner_class_records:
        if record.inner_name == name:
            visibility = _oracle_visibility(record.access_flags)
    members = [
        _oracle_member_decl(cls, raw)
        for raw in (*cls.fields, *cls.methods)
        if raw.name != "<clinit>" and not raw.access_flags & ACC_SYNTHETIC
    ]
    return dict(
        qualified_name=name,
        kind=_oracle_type_kind(cls.access_flags),
        visibility=visibility,
        is_abstract=bool(cls.access_flags & ACC_ABSTRACT),
        is_final=bool(cls.access_flags & ACC_FINAL),
        super_name=cls.super_name,
        interface_names=cls.interfaces,
        annotations=cls.annotations,
        members=members,
        package=package,
        enclosing_name=name.rsplit("$", 1)[0] if "$" in name else None,
    )


def _decoded_member(raw):
    return dict(
        owner=raw.owner,
        member_kind=raw.member_kind,
        name=raw.name,
        descriptor=raw.descriptor,
        visibility=raw.visibility,
        is_abstract=raw.is_abstract,
        is_final=raw.is_final,
        is_static=raw.is_static,
        is_default=raw.is_default_method,
        declared_exceptions=raw.declared_exceptions,
        annotations=raw.annotations,
        ref=raw.ref,
    )


def _decoded_type(cls):
    return dict(
        qualified_name=cls.this_name,
        kind=cls.kind,
        visibility=cls.visibility,
        is_abstract=cls.is_abstract,
        is_final=cls.is_final,
        super_name=cls.super_name,
        interface_names=cls.interfaces,
        annotations=cls.annotations,
        members=[_decoded_member(raw) for raw in cls.members],
        package=cls.package,
        enclosing_name=cls.enclosing_name,
    )


_FLAGS = st.integers(0, 0xFFFF)


@st.composite
def _parsed_class(draw):
    """A parsed skeleton type of any kind, maybe with a ``<clinit>``, whose
    class, InnerClasses and member flags are sometimes redrawn at random,
    which marks about half of the redrawn members synthetic."""
    name, _, super_name, interfaces = draw(st.sampled_from(_SKELETON))
    kind = draw(st.sampled_from(("class", "interface", "enum", "annotation")))
    spec = draw(_type_spec(name, kind, super_name, interfaces))
    if draw(st.booleans()):
        spec = replace(spec, methods=(*spec.methods, MethodSpec("<clinit>", is_static=True)))
    cls = parse_class(write_class(spec))

    def redraw(member):
        return member._replace(access_flags=draw(_FLAGS)) if draw(st.booleans()) else member

    records = cls.inner_class_records
    if records and draw(st.booleans()):
        # A second row for the same class: the last one counts.
        first = records[0]
        records = (*records, InnerClassRecord(name, first.outer_name, first.simple_name, draw(_FLAGS)))
    return replace(
        cls,
        access_flags=draw(_FLAGS) if draw(st.booleans()) else cls.access_flags,
        fields=tuple(map(redraw, cls.fields)),
        methods=tuple(map(redraw, cls.methods)),
        inner_class_records=records,
    )


@settings(max_examples=200, deadline=None)
@given(_parsed_class())
def test_records_decode_what_the_declaration_builders_did(cls):
    assert _decoded_type(cls) == _oracle_type_decl(cls)


# --- models built from a previous version's model ----------------------------

# The generator's types and methods carry ``p.Beta`` or nothing, so the two
# configs label them apart: the default one reads Beta as unstable, the
# other does not. A method's label can then differ while its type's does not.
_CONFIGS = (StabilityConfig(), StabilityConfig(keywords=("internal",), annotations=()))


def _model_facts(model):
    return (
        model.type_stability,
        model.member_stability,
        model.diagnostics,
        {name: (model.effective_methods(name), model.effective_fields(name)) for name in model.types},
    )


@settings(max_examples=150, deadline=None)
@given(_version_pair(), st.sampled_from(_CONFIGS), st.sampled_from(_CONFIGS))
def test_model_built_from_a_previous_model_equals_a_fresh_one(pair, old_config, new_config):
    old_specs, new_specs = pair
    shared: dict = {}
    v1 = open_jar(io.BytesIO(jar_bytes(old_specs)), shared)
    v2 = open_jar(io.BytesIO(jar_bytes(new_specs)), shared)
    previous = build_model(v1, old_config, model_id="old")
    reused = build_model(v2, new_config, model_id="new", previous=previous)
    fresh = build_model(v2, new_config, model_id="new")
    assert _model_facts(reused) == _model_facts(fresh)
    # Both hold the parsed classes themselves, constants included.
    assert reused.types.keys() == fresh.types.keys()
    assert all(reused.types[name] is fresh.types[name] for name in fresh.types)
    # Not vacuous: the effective tables are taken over exactly when the
    # type's closure is the same parsed objects in both models.
    memo: dict = {}
    for name in reused.types:
        taken_over = (
            reused.effective_methods(name) is previous.effective_methods(name)
            and reused.effective_fields(name) is previous.effective_fields(name)
        )
        assert taken_over == same_closure(previous, reused, name, memo)
