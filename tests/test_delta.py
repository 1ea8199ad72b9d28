"""Delta computation: catalog coverage, identity, duality, determinism."""

from __future__ import annotations

import pytest

from catalog_cases import CATALOG_CASES
from conftest import model_of
from jarcompat.classfile import ClassSpec, FieldSpec, MethodSpec
from jarcompat.delta import (
    CATALOG,
    BcKind,
    Delta,
    bc_histogram,
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
    old = model_of(
        [
            ClassSpec("p.Hidden", visibility="package", methods=(MethodSpec("m"),)),
            ClassSpec("p.A", methods=(MethodSpec("priv", visibility="private"),)),
        ]
    )
    new = model_of([ClassSpec("p.A")])
    delta = compute_delta(old, new)
    assert delta.changes == []  # hidden type and private member do not count


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
        assert change.stability == old.stability[decl.ref]


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


def test_histogram_empty_and_additive():
    assert bc_histogram([]) == {}
    old = model_of([ClassSpec("p.A", methods=(MethodSpec("m"), MethodSpec("keep")))])
    new = model_of([ClassSpec("p.A", methods=(MethodSpec("keep"),))])
    delta = compute_delta(old, new)
    assert bc_histogram([delta, delta]) == {"methodRemoved": 2}


def test_histogram_matches_per_delta_recount():
    deltas = [_delta_for(case)[0] for case in CATALOG_CASES]
    histogram = bc_histogram(deltas)
    recount: dict[str, int] = {}
    for delta in deltas:
        for change in delta.changes:
            recount[change.kind.value] = recount.get(change.kind.value, 0) + 1
    assert histogram == dict(sorted(recount.items()))


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
