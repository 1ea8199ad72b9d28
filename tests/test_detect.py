"""Detection rules, impact classification, and their properties."""

from __future__ import annotations

import io
import zipfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import jar_bytes, jar_content, model_of, usage_pairs
from jarcompat.apimodel import build_model
from jarcompat.classfile import ClassSpec, FieldSpec, MethodSpec, member_owner, open_jar, package_of
from jarcompat.delta import BcKind, compute_delta
from jarcompat.detect import (
    BREAKING_USE,
    CERTAIN,
    ELEMENT,
    IMPACT_RULES,
    NON_BREAKING_USE,
    PESSIMISTIC,
    TYPE,
    UNUSED,
    DeltaUsageMismatch,
    Detection,
    _client_type_of,
    _lacks_declaration,
    _TYPE_LEVEL_KINDS,
    classify_impact,
    compute_detections,
    element_owner,
    rule_note,
)
from jarcompat.usage import UseKind, extract_usage
from test_delta import _CLASS_NAMES, _INTERFACE_NAMES, _METHOD_SHAPES, _SKELETON, _version_pair


def _scenario(old_specs, new_specs, client_specs):
    old = model_of(old_specs, model_id="lib-old")
    new = model_of(new_specs, model_id="lib-new")
    delta = compute_delta(old, new)
    usage = extract_usage(jar_content(client_specs), old)
    detections = compute_detections(delta, usage)
    return delta, usage, detections


def test_interface_evolution_yields_exactly_one_detection():
    # A client type implements a library interface that gains an abstract
    # method in the new version: one detection, via the implements relation.
    delta, usage, detections = _scenario(
        [
            ClassSpec(
                "lib.Handler",
                kind="interface",
                methods=(MethodSpec("a", "()Ljava/lang/String;", is_abstract=True),),
            )
        ],
        [
            ClassSpec(
                "lib.Handler",
                kind="interface",
                methods=(
                    MethodSpec("a", "()Ljava/lang/String;", is_abstract=True),
                    MethodSpec("refresh", "()Ljava/lang/String;", is_abstract=True),
                ),
            )
        ],
        [
            ClassSpec(
                "cli.MockHandler",
                interfaces=("lib.Handler",),
                methods=(MethodSpec("a", "()Ljava/lang/String;"),),
            )
        ],
    )
    assert len(detections) == 1
    detection = detections[0]
    assert detection.bc_kind is BcKind.METHOD_ADDED_TO_INTERFACE
    assert detection.use_kind is UseKind.IMPLEMENTS
    assert detection.client_element == "cli.MockHandler"
    assert detection.library_element == "lib.Handler.refresh()Ljava/lang/String;"
    summary = classify_impact(delta, usage, detections)
    assert summary.broken


def test_client_declaring_the_new_method_is_not_broken():
    delta, usage, detections = _scenario(
        [ClassSpec("lib.I", kind="interface")],
        [ClassSpec("lib.I", kind="interface", methods=(MethodSpec("m", is_abstract=True),))],
        [ClassSpec("cli.Ready", interfaces=("lib.I",), methods=(MethodSpec("m"),))],
    )
    assert detections == []
    summary = classify_impact(delta, usage, detections)
    assert summary.per_change[("lib.I.m()V", "methodAddedToInterface")] == NON_BREAKING_USE
    assert not summary.broken


def test_empty_delta_yields_no_detections():
    delta, usage, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("m"),))],
        [ClassSpec("lib.A", methods=(MethodSpec("m"),))],
        [ClassSpec("cli.C", methods=(MethodSpec("x", calls=(("lib.A", "m", "()V"),)),))],
    )
    assert detections == []


def test_method_removed_requires_the_member_reference():
    # The client references type A but never the removed method.
    delta, usage, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("m"), MethodSpec("keep")))],
        [ClassSpec("lib.A", methods=(MethodSpec("keep"),))],
        [ClassSpec("cli.C", methods=(MethodSpec("x", calls=(("lib.A", "keep", "()V"),)),))],
    )
    assert detections == []
    summary = classify_impact(delta, usage, detections)
    assert summary.per_change[("lib.A.m()V", "methodRemoved")] == UNUSED


def test_interface_removed_descriptor_use_is_non_breaking():
    delta, usage, detections = _scenario(
        [ClassSpec("lib.I", kind="interface"), ClassSpec("lib.A", interfaces=("lib.I",), methods=(MethodSpec("keep"),))],
        [ClassSpec("lib.I", kind="interface"), ClassSpec("lib.A", methods=(MethodSpec("keep"),))],
        [ClassSpec("cli.C", fields=(FieldSpec("a", "Llib/A;"),))],
    )
    assert detections == []
    summary = classify_impact(delta, usage, detections)
    assert summary.per_change[("lib.A", "interfaceRemoved")] == NON_BREAKING_USE


def test_visibility_predicate_spares_same_package_clients():
    # The client lives in the library package, so package visibility still
    # admits it.
    delta, usage, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("m"),))],
        [ClassSpec("lib.A", methods=(MethodSpec("m", visibility="package"),))],
        [ClassSpec("lib.Friend", methods=(MethodSpec("x", calls=(("lib.A", "m", "()V"),)),))],
    )
    assert detections == []


def test_visibility_predicate_flags_foreign_package():
    _, _, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("m"),))],
        [ClassSpec("lib.A", methods=(MethodSpec("m", visibility="package"),))],
        [ClassSpec("cli.C", methods=(MethodSpec("x", calls=(("lib.A", "m", "()V"),)),))],
    )
    assert len(detections) == 1
    assert detections[0].confidence == "certain"


def test_protected_member_spares_direct_subtype():
    _, _, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("m"),))],
        [ClassSpec("lib.A", methods=(MethodSpec("m", visibility="protected"),))],
        [
            ClassSpec(
                "cli.Sub",
                super_name="lib.A",
                methods=(MethodSpec("x", calls=(("lib.A", "m", "()V"),)),),
            )
        ],
    )
    assert detections == []


def test_protected_member_spares_a_subclass_of_an_owner_named_with_a_paren():
    # The owner of a member reference ends at its last ".", so the "(" in
    # "p.X(Y.m()V" does not cut it short and the subclass is recognised.
    delta, _, detections = _scenario(
        [ClassSpec("p.X(Y", methods=(MethodSpec("m"),))],
        [ClassSpec("p.X(Y", methods=(MethodSpec("m", visibility="protected"),))],
        [ClassSpec("q.Sub", super_name="p.X(Y", methods=(MethodSpec("x", calls=(("p.X(Y", "m", "()V"),)),))],
    )
    assert [(c.kind, c.element) for c in delta.changes] == [(BcKind.METHOD_LESS_ACCESSIBLE, "p.X(Y.m()V")]
    assert detections == []


def test_a_dollar_in_a_package_name_is_not_nesting():
    # x$y.Lib is a top-level class of package x$y: narrowing its method to
    # package access breaks a caller in package x$z and spares one in x$y.
    def library(visibility):
        return [ClassSpec("x$y.Lib", methods=(MethodSpec("m", visibility=visibility),))]

    clients = [
        ClassSpec(f"{package}.Cli", methods=(MethodSpec("x", calls=(("x$y.Lib", "m", "()V"),)),))
        for package in ("x$y", "x$z")
    ]
    _, _, detections = _scenario(library("public"), library("package"), clients)
    assert [(d.client_element, d.bc_kind, d.confidence) for d in detections] == [
        ("x$z.Cli.x()V", BcKind.METHOD_LESS_ACCESSIBLE, CERTAIN)
    ]


def test_protected_constructor_always_pessimistic():
    _, _, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("<init>"),))],
        [ClassSpec("lib.A", methods=(MethodSpec("<init>", visibility="protected"),))],
        [
            ClassSpec(
                "cli.Sub",
                super_name="lib.A",
                methods=(MethodSpec("<init>", calls=(("lib.A", "<init>", "()V"),)),),
            )
        ],
    )
    assert len(detections) == 1
    assert detections[0].confidence == "pessimistic"
    assert detections[0].bc_kind is BcKind.CONSTRUCTOR_LESS_ACCESSIBLE


def test_class_removed_reaches_member_uses_of_a_class_named_with_a_paren():
    # "(" is legal in a class file's class names. Member uses are filed
    # under the owner the reference names, not one parsed back out of the
    # member reference, which would cut "p.X(Y.m()V" at its first "(".
    delta, usage, detections = _scenario(
        [ClassSpec("p.X(Y", methods=(MethodSpec("m"),)), ClassSpec("p.Keep")],
        [ClassSpec("p.Keep")],
        [ClassSpec("c.C", methods=(MethodSpec("x", calls=(("p.X(Y", "m", "()V"),)),))],
    )
    assert [(d.use_kind, d.bc_kind, d.client_element) for d in detections] == [
        (UseKind.METHOD_INVOCATION, BcKind.CLASS_REMOVED, "c.C.x()V")
    ]
    assert classify_impact(delta, usage, detections).broken


def test_method_now_final_flags_subtypes_pessimistically():
    _, _, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("run"),))],
        [ClassSpec("lib.A", methods=(MethodSpec("run", is_final=True),))],
        [ClassSpec("cli.Sub", super_name="lib.A", methods=(MethodSpec("run"),))],
    )
    assert [d.confidence for d in detections] == ["pessimistic"]
    assert detections[0].use_kind is UseKind.EXTENDS


def test_new_checked_exception_flags_every_invocation():
    _, _, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("run"),))],
        [ClassSpec("lib.A", methods=(MethodSpec("run", exceptions=("java.io.IOException",)),))],
        [ClassSpec("cli.C", methods=(MethodSpec("x", calls=(("lib.A", "run", "()V"),)),))],
    )
    assert len(detections) == 1
    assert detections[0].confidence == "pessimistic"


def test_constant_value_change_never_detects():
    delta, usage, detections = _scenario(
        [ClassSpec("lib.A", fields=(FieldSpec("c", is_static=True, is_final=True, constant=1),))],
        [ClassSpec("lib.A", fields=(FieldSpec("c", is_static=True, is_final=True, constant=2),))],
        [ClassSpec("cli.C", methods=(MethodSpec("x", field_reads=(("lib.A", "c", "I"),)),))],
    )
    assert detections == []
    summary = classify_impact(delta, usage, detections)
    assert summary.per_change[("lib.A.c", "fieldConstantValueChanged")] == NON_BREAKING_USE


def test_impact_partitions_changes():
    delta, usage, detections = _scenario(
        [
            ClassSpec(
                "lib.A",
                methods=(MethodSpec("gone"), MethodSpec("keep")),
                fields=(FieldSpec("f"), FieldSpec("g")),
            )
        ],
        [ClassSpec("lib.A", methods=(MethodSpec("keep"),), fields=(FieldSpec("g"),))],
        [
            ClassSpec(
                "cli.C",
                methods=(
                    MethodSpec(
                        "x",
                        calls=(("lib.A", "gone", "()V"),),
                    ),
                ),
            )
        ],
    )
    summary = classify_impact(delta, usage, detections)
    assert len(summary.per_change) == len(delta.changes)
    assert summary.per_change[("lib.A.gone()V", "methodRemoved")] == BREAKING_USE
    assert summary.per_change[("lib.A.f", "fieldRemoved")] == UNUSED
    categories = {UNUSED, NON_BREAKING_USE, BREAKING_USE}
    assert set(summary.per_change.values()) <= categories
    assert summary.broken


def test_monotonicity_adding_usage_never_removes_detections():
    old_specs = [ClassSpec("lib.A", methods=(MethodSpec("gone"), MethodSpec("keep")))]
    new_specs = [ClassSpec("lib.A", methods=(MethodSpec("keep"),))]
    small_client = [
        ClassSpec("cli.C", methods=(MethodSpec("x", calls=(("lib.A", "gone", "()V"),)),))
    ]
    big_client = [
        ClassSpec(
            "cli.C",
            methods=(
                MethodSpec("x", calls=(("lib.A", "gone", "()V"),)),
                MethodSpec("y", calls=(("lib.A", "keep", "()V"), ("lib.A", "gone", "()V"))),
            ),
        )
    ]
    _, _, small = _scenario(old_specs, new_specs, small_client)
    _, _, big = _scenario(old_specs, new_specs, big_client)
    assert set(small) <= set(big)


def test_detections_project_onto_delta():
    for case_client in (
        [ClassSpec("cli.C", methods=(MethodSpec("x", calls=(("lib.A", "gone", "()V"),)),))],
        [ClassSpec("cli.Sub", super_name="lib.A")],
    ):
        delta, _, detections = _scenario(
            [ClassSpec("lib.A", methods=(MethodSpec("gone"), MethodSpec("keep")))],
            [ClassSpec("lib.A", is_final=True, methods=(MethodSpec("keep"),))],
            case_client,
        )
        change_keys = {(c.element, c.kind) for c in delta.changes}
        for detection in detections:
            assert (detection.library_element, detection.bc_kind) in change_keys


def test_mismatched_usage_raises():
    old = model_of([ClassSpec("lib.A", methods=(MethodSpec("m"), MethodSpec("keep")))], model_id="v1")
    new = model_of([ClassSpec("lib.A", methods=(MethodSpec("keep"),))], model_id="v2")
    other = model_of([ClassSpec("lib.A", methods=(MethodSpec("m"), MethodSpec("keep")))], model_id="elsewhere")
    delta = compute_delta(old, new)
    usage = extract_usage(
        jar_content([ClassSpec("cli.C", methods=(MethodSpec("x", calls=(("lib.A", "m", "()V"),)),))]),
        other,
    )
    with pytest.raises(DeltaUsageMismatch):
        compute_detections(delta, usage)


def test_rule_table_is_total_and_documented():
    assert set(IMPACT_RULES) == set(BcKind)
    for kind, matchers in IMPACT_RULES.items():
        for matcher in matchers:
            assert matcher.confidence in ("certain", "pessimistic")
            if matcher.confidence == "pessimistic":
                note = rule_note(kind, matcher.use_kind)
                assert kind.value in note


def test_detections_are_sorted_deterministically():
    _, _, detections = _scenario(
        [ClassSpec("lib.A", methods=(MethodSpec("a"), MethodSpec("b"), MethodSpec("keep")))],
        [ClassSpec("lib.A", methods=(MethodSpec("keep"),))],
        [
            ClassSpec(
                "cli.C",
                methods=(
                    MethodSpec("x", calls=(("lib.A", "a", "()V"), ("lib.A", "b", "()V"))),
                ),
            )
        ],
    )
    keys = [d.sort_key() for d in detections]
    assert keys == sorted(keys)
    assert len(detections) == 2


# --- the usage index against a join over (client, library) pairs -------------

# The library's types plus p.A.f, a class named like the field f of p.A.
_LIBRARY = _SKELETON + (("p.A.f", "class", None, ()),)
_LIBRARY_TYPES = [name for name, _, _, _ in _LIBRARY]
_MEMBER_KINDS = (UseKind.METHOD_INVOCATION, UseKind.CONSTRUCTOR_INVOCATION, UseKind.FIELD_ACCESS)


@st.composite
def _client_specs(draw):
    """Client classes in a foreign package and in the library's own, each
    extending, implementing, annotating with, calling and reading library
    types and members, and declaring some of the library's method shapes.
    Half the calls go to the class's own superclass, where a member narrowed
    to protected stays accessible."""
    specs = []
    for name in ("c.X", "c.Y", "p.Z"):
        super_name = draw(st.sampled_from([None, "p.A.f", *_CLASS_NAMES]))
        types = st.sampled_from(_LIBRARY_TYPES)
        owners = types if super_name is None else st.one_of(st.just(super_name), types)
        calls = st.tuples(owners, st.sampled_from(_METHOD_SHAPES)).map(lambda t: (t[0], *t[1]))
        reads = st.tuples(owners, st.sampled_from([("f", "I"), ("K", "D")])).map(lambda t: (t[0], *t[1]))
        body = MethodSpec(
            "body",
            calls=tuple(draw(st.lists(calls, max_size=4))),
            field_reads=tuple(draw(st.lists(reads, max_size=2))),
            type_refs=tuple(draw(st.lists(types, max_size=2))),
        )
        shapes = draw(st.lists(st.sampled_from(_METHOD_SHAPES[:3]), unique=True))
        specs.append(ClassSpec(
            name,
            super_name=super_name,
            interfaces=tuple(draw(st.lists(st.sampled_from(_INTERFACE_NAMES), unique=True, max_size=2))),
            annotations=draw(st.sampled_from([(), ("p.A.f",)])),
            methods=(body, *(MethodSpec(m_name, desc) for m_name, desc in shapes)),
        ))
    return specs


def _reference_visibility(change, client, usage, subtypes):
    """The confidence of a narrowing's hit on ``client``, or None for none."""
    new_vis = change.detail_map().get("new", "private")
    owner = element_owner(change)
    client_type = _client_type_of(client, usage)
    same_package = package_of(client_type) == package_of(owner)
    if new_vis == "public":
        return None
    if new_vis == "protected":
        if same_package:
            return None
        if change.kind is BcKind.CONSTRUCTOR_LESS_ACCESSIBLE:
            return PESSIMISTIC
        return None if (client_type, owner) in subtypes else PESSIMISTIC
    return None if new_vis == "package" and same_package else CERTAIN


def _reference_join(delta, usage):
    """Detections and per-change impact, joined pair by pair as a flat
    relation would be: member uses match an owner through ``member_owner``,
    and a use "touches" its library element whatever its kind."""
    pairs = {kind: usage_pairs(usage, kind) for kind in UseKind}
    subtypes = pairs[UseKind.EXTENDS] | pairs[UseKind.IMPLEMENTS]
    detections = set()
    for change in delta.changes:
        owner = element_owner(change)
        for matcher in IMPACT_RULES[change.kind]:
            for client, library in pairs[matcher.use_kind]:
                if matcher.target == ELEMENT:
                    hit = library == change.element
                elif matcher.target == TYPE:
                    hit = library == owner
                else:
                    hit = matcher.use_kind in _MEMBER_KINDS and member_owner(library) == owner
                confidence = matcher.confidence
                if hit and matcher.predicate == "visibility":
                    confidence = _reference_visibility(change, client, usage, subtypes)
                    hit = confidence is not None
                elif hit and matcher.predicate == "lacks_decl":
                    hit = _lacks_declaration(change, _client_type_of(client, usage), usage)
                if hit:
                    detections.add(Detection(client, change.element, matcher.use_kind, change.kind, confidence))
    touched = {library for kind in UseKind for _, library in pairs[kind]}
    owners = {member_owner(library) for kind in _MEMBER_KINDS for _, library in pairs[kind]}
    additive = {
        BcKind.METHOD_ADDED_TO_INTERFACE, BcKind.METHOD_ABSTRACT_ADDED_TO_CLASS,
        BcKind.METHOD_ADDED_TO_PUBLIC_CLASS, BcKind.METHOD_NEW_DEFAULT,
    }
    detected = {(d.library_element, d.bc_kind.value) for d in detections}
    per_change = {}
    for change in delta.changes:
        key = (change.element, change.kind.value)
        if key in detected:
            per_change[key] = BREAKING_USE
            continue
        if change.kind in _TYPE_LEVEL_KINDS:
            used = change.element in touched | owners
        elif change.kind in additive:
            used = element_owner(change) in touched | owners
        else:
            used = change.element in touched
        per_change[key] = NON_BREAKING_USE if used else UNUSED
    return sorted(detections, key=Detection.sort_key), per_change


@settings(max_examples=150, deadline=None)
@given(_version_pair(_LIBRARY), _client_specs())
# A method narrowed to protected, called by a foreign subclass: spared.
@example(
    ([ClassSpec("p.A", methods=(MethodSpec("m"),))],
     [ClassSpec("p.A", methods=(MethodSpec("m", visibility="protected"),))]),
    [ClassSpec("c.X", super_name="p.A", methods=(MethodSpec("body", calls=(("p.A", "m", "()V"),)),))],
)
def test_index_join_equals_pairwise_join(pair, client_specs):
    old = build_model(jar_content(list(pair[0])), model_id="old")
    new = build_model(jar_content(list(pair[1])), model_id="new")
    delta = compute_delta(old, new)
    usage = extract_usage(jar_content(client_specs), old)
    detections = compute_detections(delta, usage)
    summary = classify_impact(delta, usage, detections)
    expected, per_change = _reference_join(delta, usage)
    assert detections == expected
    assert summary.per_change == per_change
    assert summary.broken == (BREAKING_USE in per_change.values())
    assert summary.detection_count == len(expected)


# --- independence from the order of JAR entries -------------------------------


def _has_hierarchy_cycle(specs) -> bool:
    """True when some type of ``specs`` reaches itself through its supertypes.
    A cycle's effective members resolve in entry order, which
    ``test_hierarchy_cycle_disables_the_short_cut`` pins."""
    supertypes = {
        spec.name: [*([spec.super_name] if spec.super_name else []), *spec.interfaces]
        for spec in specs
    }

    def reaches(start, name, seen):
        for parent in supertypes.get(name, ()):
            if parent == start or (parent not in seen and reaches(start, parent, seen | {parent})):
                return True
        return False

    return any(reaches(name, name, {name}) for name in supertypes)


def _library_results(old_specs, new_specs, client_specs, compressions):
    """The delta and what it does to the client, with both library JARs read
    through one parse memo as a corpus run task reads them."""
    parsed: dict = {}
    old_jar, new_jar = (
        open_jar(io.BytesIO(jar_bytes(specs, compression=compression)), parsed)
        for specs, compression in zip((old_specs, new_specs), compressions)
    )
    old = build_model(old_jar, model_id="old")
    new = build_model(new_jar, model_id="new", previous=old)
    delta = compute_delta(old, new)
    usage = extract_usage(jar_content(client_specs), old)
    detections = compute_detections(delta, usage)
    return delta.to_dict(), detections, classify_impact(delta, usage, detections)


_COMPRESSIONS = st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED])


@settings(max_examples=100, deadline=None)
@given(_version_pair(_LIBRARY), _client_specs(), st.data())
def test_results_do_not_depend_on_the_order_of_jar_entries(pair, client_specs, data):
    # The specs hold no two types of one name; each JAR is also re-stored
    # under a drawn compression method, which changes every memo key.
    old_specs, new_specs = pair
    assume(not _has_hierarchy_cycle(old_specs) and not _has_hierarchy_cycle(new_specs))
    expected = _library_results(
        old_specs, new_specs, client_specs, (zipfile.ZIP_STORED, zipfile.ZIP_STORED)
    )
    permuted = _library_results(
        data.draw(st.permutations(old_specs)),
        data.draw(st.permutations(new_specs)),
        data.draw(st.permutations(client_specs)),
        (data.draw(_COMPRESSIONS), data.draw(_COMPRESSIONS)),
    )
    assert permuted == expected
