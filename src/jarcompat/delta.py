"""Breaking-change catalog and delta computation between two API models.

The catalog covers 31 binary-incompatible change kinds grounded in JLS
chapter 13. Comparison works on the *effective* member set of each exported
type (declared plus inherited members resolvable inside the model), so a
change to an inherited declaration is reported against every accessible
host type; such coupled records carry an ``inheritedFrom`` detail.

Generics are invisible here by design: the comparison operates on erased
descriptors only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

from .apimodel import (
    STABLE,
    VISIBILITY_RANK,
    ApiModel,
    EffectiveMember,
    StabilityLabel,
    same_closure,
    type_accessible,
)
from .classfile import member_ref, parameter_part


class BcKind(str, Enum):
    CLASS_REMOVED = "classRemoved"
    CLASS_NOW_FINAL = "classNowFinal"
    CLASS_NOW_ABSTRACT = "classNowAbstract"
    CLASS_LESS_ACCESSIBLE = "classLessAccessible"
    CLASS_TYPE_CHANGED = "classTypeChanged"
    SUPERCLASS_REMOVED = "superclassRemoved"
    SUPERCLASS_ADDED = "superclassAdded"
    INTERFACE_ADDED = "interfaceAdded"
    INTERFACE_REMOVED = "interfaceRemoved"
    METHOD_REMOVED = "methodRemoved"
    METHOD_NOW_ABSTRACT = "methodNowAbstract"
    METHOD_NOW_FINAL = "methodNowFinal"
    METHOD_NOW_STATIC = "methodNowStatic"
    METHOD_NO_LONGER_STATIC = "methodNoLongerStatic"
    METHOD_LESS_ACCESSIBLE = "methodLessAccessible"
    METHOD_RETURN_TYPE_CHANGED = "methodReturnTypeChanged"
    METHOD_ADDED_TO_INTERFACE = "methodAddedToInterface"
    METHOD_ABSTRACT_ADDED_TO_CLASS = "methodAbstractAddedToClass"
    METHOD_ADDED_TO_PUBLIC_CLASS = "methodAddedToPublicClass"
    METHOD_NEW_DEFAULT = "methodNewDefault"
    METHOD_ABSTRACT_NOW_DEFAULT = "methodAbstractNowDefault"
    METHOD_NOW_THROWS_CHECKED = "methodNowThrowsCheckedException"
    CONSTRUCTOR_REMOVED = "constructorRemoved"
    CONSTRUCTOR_LESS_ACCESSIBLE = "constructorLessAccessible"
    FIELD_REMOVED = "fieldRemoved"
    FIELD_NOW_FINAL = "fieldNowFinal"
    FIELD_NOW_STATIC = "fieldNowStatic"
    FIELD_NO_LONGER_STATIC = "fieldNoLongerStatic"
    FIELD_LESS_ACCESSIBLE = "fieldLessAccessible"
    FIELD_TYPE_CHANGED = "fieldTypeChanged"
    FIELD_CONSTANT_VALUE_CHANGED = "fieldConstantValueChanged"


# Static binary-compatibility rationale for every kind (JLS 8, chapter 13).
# fieldConstantValueChanged never produces link-time errors because constant
# reads are inlined at compile time; it is in the catalog because stale
# inlined values silently diverge (13.4.9).
CATALOG: dict[BcKind, str] = {
    BcKind.CLASS_REMOVED: "JLS 13.3: erasing a binary class breaks every reference to it",
    BcKind.CLASS_NOW_FINAL: "JLS 13.4.2: final classes break pre-existing subclasses",
    BcKind.CLASS_NOW_ABSTRACT: "JLS 13.4.1: abstract classes break pre-existing instantiations",
    BcKind.CLASS_LESS_ACCESSIBLE: "JLS 13.4.3: narrowing type access breaks resolving clients",
    BcKind.CLASS_TYPE_CHANGED: "JLS 13.3: class/interface/enum/annotation are distinct binaries",
    BcKind.SUPERCLASS_REMOVED: "JLS 13.4.4: members resolved through the old chain vanish",
    BcKind.SUPERCLASS_ADDED: "JLS 13.4.4: inserted abstract supertypes impose new obligations",
    BcKind.INTERFACE_ADDED: "JLS 13.4.4: new superinterfaces impose obligations on hierarchies",
    BcKind.INTERFACE_REMOVED: "JLS 13.4.4: values no longer implement the removed interface",
    BcKind.METHOD_REMOVED: "JLS 13.4.12: deleting a method breaks resolving invocations",
    BcKind.METHOD_NOW_ABSTRACT: "JLS 13.4.16: abstract methods break invoking/instantiating clients",
    BcKind.METHOD_NOW_FINAL: "JLS 13.4.17: final methods break pre-existing overrides",
    BcKind.METHOD_NOW_STATIC: "JLS 13.4.19: instance invocations of static methods fail linkage",
    BcKind.METHOD_NO_LONGER_STATIC: "JLS 13.4.19: static invocations of instance methods fail linkage",
    BcKind.METHOD_LESS_ACCESSIBLE: "JLS 13.4.7: narrowing member access breaks resolving clients",
    BcKind.METHOD_RETURN_TYPE_CHANGED: "JLS 13.4.15: descriptors embed the result type",
    BcKind.METHOD_ADDED_TO_INTERFACE: "JLS 13.5.3: implementors must provide the new method",
    BcKind.METHOD_ABSTRACT_ADDED_TO_CLASS: "JLS 13.4.16: concrete subclasses must implement it",
    BcKind.METHOD_ADDED_TO_PUBLIC_CLASS: "JLS 13.4.16: abstract members surfacing via inheritance",
    BcKind.METHOD_NEW_DEFAULT: "JLS 13.5.3: default methods can collide in client hierarchies",
    BcKind.METHOD_ABSTRACT_NOW_DEFAULT: "JLS 13.5.3: abstract-to-default alters override semantics",
    BcKind.METHOD_NOW_THROWS_CHECKED: "JLS 13.4.21: new checked exceptions surprise catch-less callers",
    BcKind.CONSTRUCTOR_REMOVED: "JLS 13.4.12: deleting a constructor breaks resolving invocations",
    BcKind.CONSTRUCTOR_LESS_ACCESSIBLE: "JLS 13.4.7: narrowed constructors break instantiating clients",
    BcKind.FIELD_REMOVED: "JLS 13.4.8: deleting a field breaks resolving accesses",
    BcKind.FIELD_NOW_FINAL: "JLS 13.4.9: writes to newly final fields fail linkage",
    BcKind.FIELD_NOW_STATIC: "JLS 13.4.10: instance accesses of static fields fail linkage",
    BcKind.FIELD_NO_LONGER_STATIC: "JLS 13.4.10: static accesses of instance fields fail linkage",
    BcKind.FIELD_LESS_ACCESSIBLE: "JLS 13.4.7: narrowing member access breaks resolving clients",
    BcKind.FIELD_TYPE_CHANGED: "JLS 13.4.8: field descriptors embed the value type",
    BcKind.FIELD_CONSTANT_VALUE_CHANGED: "JLS 13.4.9: compile-time constants are inlined in clients",
}

assert len(CATALOG) == len(BcKind) == 31

# The roots of the unchecked exception types.
UNCHECKED_ROOTS = frozenset({"java.lang.RuntimeException", "java.lang.Error"})


@dataclass(frozen=True)
class BreakingChange:
    kind: BcKind
    element: str
    stability: StabilityLabel
    detail: tuple[tuple[str, str], ...] = ()

    def detail_map(self) -> dict[str, str]:
        return dict(self.detail)

    def sort_key(self) -> tuple[str, str]:
        return (self.element, self.kind.value)


@dataclass
class Delta:
    old_id: str
    new_id: str
    changes: list[BreakingChange] = field(default_factory=list)

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for change in self.changes:
            counts[change.kind.value] = counts.get(change.kind.value, 0) + 1
        return dict(sorted(counts.items()))

    def by_stability(self) -> dict[str, int]:
        counts = {"stable": 0, "unstable": 0}
        for change in self.changes:
            counts[change.stability.status] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "schemaVersion": 1,
            "old": self.old_id,
            "new": self.new_id,
            "changes": [
                {
                    "kind": change.kind.value,
                    "element": change.element,
                    "stability": {
                        "status": change.stability.status,
                        "reasonKind": change.stability.reason_kind,
                        "reasonValue": change.stability.reason_value,
                    },
                    "detail": dict(sorted(change.detail)),
                }
                for change in self.changes
            ],
            "counts": {"byKind": self.by_kind(), "byStability": self.by_stability()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "Delta":
        delta = cls(old_id=payload["old"], new_id=payload["new"])
        for entry in payload["changes"]:
            stability = StabilityLabel(
                entry["stability"]["status"],
                entry["stability"]["reasonKind"],
                entry["stability"]["reasonValue"],
            )
            delta.changes.append(
                BreakingChange(
                    kind=BcKind(entry["kind"]),
                    element=entry["element"],
                    stability=stability,
                    detail=tuple(sorted(entry["detail"].items())),
                )
            )
        return delta


def is_breaking(delta: Delta, scope: str = "stable") -> bool:
    """True when the delta has changes; scope "stable" ignores unstable declarations."""
    if scope not in ("stable", "all"):
        raise ValueError(f"scope must be 'stable' or 'all', not {scope!r}")
    if scope == "all":
        return bool(delta.changes)
    return any(change.stability.is_stable for change in delta.changes)


def _is_checked_exception(model: ApiModel, name: str) -> bool:
    """False when the type or a superclass is an unchecked root. A chain that
    leaves the model ends at its first unknown name, so an unknown exception
    is assumed checked (pessimistic)."""
    return UNCHECKED_ROOTS.isdisjoint({name, *model.superclass_chain(name)})


def _label_of(member: EffectiveMember, model: ApiModel) -> StabilityLabel:
    return model.member_stability.get(member.decl.ref, STABLE)


class _DeltaBuilder:
    def __init__(self, old: ApiModel, new: ApiModel) -> None:
        self.old = old
        self.new = new
        self.changes: list[BreakingChange] = []
        self._closure_memo: dict[str, bool] = {}

    def emit(
        self,
        kind: BcKind,
        element: str,
        stability: StabilityLabel,
        inherited_from: str | None = None,
        **detail: str,
    ) -> None:
        if inherited_from is not None:
            detail["inheritedFrom"] = inherited_from
        self.changes.append(
            BreakingChange(
                kind=kind,
                element=element,
                stability=stability,
                detail=tuple(sorted(detail.items())),
            )
        )

    # -- type-level comparisons -------------------------------------------

    def compare_types(self) -> None:
        # Only types a client outside the package can name are compared. The
        # closure test comes first: it is cheaper and settles most types.
        for name in sorted(self.old.types):
            if same_closure(self.old, self.new, name, self._closure_memo):
                # Same declaration and effective members in both models; its
                # outer classes' labels would only decorate emitted changes.
                continue
            if not type_accessible(self.old, name):
                continue
            t_old = self.old.types[name]
            t_new = self.new.types.get(name)
            label = self.old.type_stability[name]
            if t_new is None:
                self.emit(BcKind.CLASS_REMOVED, name, label)
                continue
            if t_old.kind != t_new.kind:
                # Finer-grained comparison is meaningless across kinds;
                # member records are intentionally suppressed here.
                self.emit(
                    BcKind.CLASS_TYPE_CHANGED, name, label, old=t_old.kind, new=t_new.kind
                )
                continue
            if VISIBILITY_RANK[t_new.visibility] < VISIBILITY_RANK[t_old.visibility]:
                self.emit(
                    BcKind.CLASS_LESS_ACCESSIBLE,
                    name,
                    label,
                    old=t_old.visibility,
                    new=t_new.visibility,
                )
            if not t_old.is_final and t_new.is_final:
                self.emit(BcKind.CLASS_NOW_FINAL, name, label)
            if t_old.kind == "class" and not t_old.is_abstract and t_new.is_abstract:
                self.emit(BcKind.CLASS_NOW_ABSTRACT, name, label)
            self.compare_hierarchy(name, label)
            self.compare_members(name)

    def compare_hierarchy(self, name: str, label: StabilityLabel) -> None:
        old_chain = self.old.superclass_chain(name)
        new_chain = self.new.superclass_chain(name)
        removed = [s for s in old_chain if s not in new_chain]
        if removed:
            self.emit(BcKind.SUPERCLASS_REMOVED, name, label, removed=",".join(removed))
        added = [s for s in new_chain if s not in old_chain]
        abstract_added = [
            s
            for s in added
            if any(
                m.decl.is_abstract
                for m in self.new.effective_methods(s).values()
            )
        ]
        if abstract_added:
            self.emit(BcKind.SUPERCLASS_ADDED, name, label, added=",".join(abstract_added))

        old_ifaces = self.old.transitive_interfaces(name)
        new_ifaces = self.new.transitive_interfaces(name)
        for iface in sorted(old_ifaces - new_ifaces):
            self.emit(BcKind.INTERFACE_REMOVED, name, label, interface=iface)
        for iface in sorted(new_ifaces - old_ifaces):
            self.emit(BcKind.INTERFACE_ADDED, name, label, interface=iface)

    # -- member-level comparisons -----------------------------------------

    def _exported(self, member: EffectiveMember) -> bool:
        return member.decl.visibility in ("public", "protected")

    def compare_members(self, name: str) -> None:
        t_old = self.old.types[name]
        old_methods = {
            k: v for k, v in self.old.effective_methods(name).items() if self._exported(v)
        }
        new_methods = self.new.effective_methods(name)
        old_fields = {
            k: v for k, v in self.old.effective_fields(name).items() if self._exported(v)
        }
        new_fields = self.new.effective_fields(name)
        is_interface = t_old.kind in ("interface", "annotation")

        new_params = {}
        for (m_name, m_desc), eff in new_methods.items():
            new_params.setdefault((m_name, parameter_part(m_desc)), []).append(eff)

        for key in sorted(old_methods):
            eff_old = old_methods[key]
            eff_new = new_methods.get(key)
            if eff_new is not None and eff_new.decl is eff_old.decl:
                continue  # one declaration, so no flag or exception differs
            m_name, m_desc = key
            label = _label_of(eff_old, self.old)
            host_ref = member_ref(name, m_name, m_desc)
            inherited = eff_old.inherited_from if eff_old.inherited_from != name else None
            if eff_new is None:
                replacement = [
                    eff
                    for eff in new_params.get((m_name, parameter_part(m_desc)), [])
                    if (eff.decl.name, eff.decl.descriptor) not in old_methods
                ]
                if replacement and eff_old.decl.member_kind == "method":
                    self.emit(
                        BcKind.METHOD_RETURN_TYPE_CHANGED,
                        host_ref,
                        label,
                        inherited,
                        old=m_desc,
                        new=replacement[0].decl.descriptor,
                    )
                elif eff_old.decl.member_kind == "constructor":
                    self.emit(BcKind.CONSTRUCTOR_REMOVED, host_ref, label, inherited)
                else:
                    self.emit(BcKind.METHOD_REMOVED, host_ref, label, inherited)
                continue
            self._compare_method_pair(host_ref, eff_old, eff_new, label, inherited, is_interface)

        old_param_keys = {(k[0], parameter_part(k[1])) for k in old_methods}
        for key in sorted(new_methods):
            if key in old_methods:
                continue
            eff_new = new_methods[key]
            decl = eff_new.decl
            if not self._exported(eff_new) or decl.member_kind == "constructor":
                continue
            if (decl.name, parameter_part(decl.descriptor)) in old_param_keys:
                continue  # counted as a return-type change above
            label = _label_of(eff_new, self.new)
            host_ref = member_ref(name, decl.name, decl.descriptor)
            inherited = eff_new.inherited_from if eff_new.inherited_from != name else None
            if is_interface:
                if decl.is_abstract:
                    self.emit(
                        BcKind.METHOD_ADDED_TO_INTERFACE, host_ref, label, inherited,
                        affectedType=name,
                    )
                elif decl.is_default_method:
                    self.emit(
                        BcKind.METHOD_NEW_DEFAULT, host_ref, label, inherited,
                        affectedType=name,
                    )
            elif decl.is_abstract:
                if inherited is None:
                    self.emit(
                        BcKind.METHOD_ABSTRACT_ADDED_TO_CLASS, host_ref, label,
                        affectedType=name,
                    )
                else:
                    self.emit(
                        BcKind.METHOD_ADDED_TO_PUBLIC_CLASS, host_ref, label, inherited,
                        affectedType=name,
                    )

        for f_name in sorted(old_fields):
            eff_old = old_fields[f_name]
            eff_new = new_fields.get(f_name)
            if eff_new is not None and eff_new.decl is eff_old.decl:
                continue  # one declaration: equal flags, and a constant equals itself
            label = _label_of(eff_old, self.old)
            host_ref = member_ref(name, f_name, eff_old.decl.descriptor)
            inherited = eff_old.inherited_from if eff_old.inherited_from != name else None
            if eff_new is None:
                self.emit(BcKind.FIELD_REMOVED, host_ref, label, inherited)
                continue
            self._compare_field_pair(host_ref, eff_old, eff_new, label, inherited)

    def _compare_method_pair(
        self,
        host_ref: str,
        eff_old: EffectiveMember,
        eff_new: EffectiveMember,
        label: StabilityLabel,
        inherited: str | None,
        is_interface: bool,
    ) -> None:
        old = eff_old.decl
        new = eff_new.decl
        is_ctor = old.member_kind == "constructor"
        if VISIBILITY_RANK[new.visibility] < VISIBILITY_RANK[old.visibility]:
            kind = BcKind.CONSTRUCTOR_LESS_ACCESSIBLE if is_ctor else BcKind.METHOD_LESS_ACCESSIBLE
            self.emit(kind, host_ref, label, inherited, old=old.visibility, new=new.visibility)
        if is_ctor:
            return
        if not old.is_static and new.is_static:
            self.emit(BcKind.METHOD_NOW_STATIC, host_ref, label, inherited)
        if old.is_static and not new.is_static:
            self.emit(BcKind.METHOD_NO_LONGER_STATIC, host_ref, label, inherited)
        if not old.is_abstract and new.is_abstract:
            self.emit(BcKind.METHOD_NOW_ABSTRACT, host_ref, label, inherited)
        if is_interface and old.is_abstract and new.is_default_method:
            self.emit(BcKind.METHOD_ABSTRACT_NOW_DEFAULT, host_ref, label, inherited)
        if not old.is_final and new.is_final:
            self.emit(BcKind.METHOD_NOW_FINAL, host_ref, label, inherited)
        added_exceptions = sorted(
            exc
            for exc in set(new.declared_exceptions) - set(old.declared_exceptions)
            if _is_checked_exception(self.new, exc)
        )
        if added_exceptions:
            self.emit(
                BcKind.METHOD_NOW_THROWS_CHECKED,
                host_ref,
                label,
                inherited,
                added=",".join(added_exceptions),
            )

    def _compare_field_pair(
        self,
        host_ref: str,
        eff_old: EffectiveMember,
        eff_new: EffectiveMember,
        label: StabilityLabel,
        inherited: str | None,
    ) -> None:
        old = eff_old.decl
        new = eff_new.decl
        if old.descriptor != new.descriptor:
            self.emit(
                BcKind.FIELD_TYPE_CHANGED,
                host_ref,
                label,
                inherited,
                old=old.descriptor,
                new=new.descriptor,
            )
            return  # with a new descriptor the old field ref is gone entirely
        if VISIBILITY_RANK[new.visibility] < VISIBILITY_RANK[old.visibility]:
            self.emit(
                BcKind.FIELD_LESS_ACCESSIBLE,
                host_ref,
                label,
                inherited,
                old=old.visibility,
                new=new.visibility,
            )
        if not old.is_static and new.is_static:
            self.emit(BcKind.FIELD_NOW_STATIC, host_ref, label, inherited)
        if old.is_static and not new.is_static:
            self.emit(BcKind.FIELD_NO_LONGER_STATIC, host_ref, label, inherited)
        if not old.is_final and new.is_final:
            self.emit(BcKind.FIELD_NOW_FINAL, host_ref, label, inherited)
        if old.constant_value is not None and not _same_constant(old.constant_value, new.constant_value):
            self.emit(
                BcKind.FIELD_CONSTANT_VALUE_CHANGED,
                host_ref,
                label,
                inherited,
                old=repr(old.constant_value),
                new=repr(new.constant_value),
            )


def _same_constant(old: int | float | str, new: int | float | str | None) -> bool:
    """Equality as Java's ``Double.equals`` has it: NaN equals NaN, 0.0 differs from -0.0."""
    if isinstance(old, float) and isinstance(new, float):
        if math.isnan(old) or math.isnan(new):
            return math.isnan(old) and math.isnan(new)
        return old == new and math.copysign(1.0, old) == math.copysign(1.0, new)
    return old == new


def compute_delta(old: ApiModel, new: ApiModel) -> Delta:
    """All breaking changes between two models, deterministically ordered.

    Only types that the old version exports (``type_accessible``) and
    their public and protected members can produce changes; additions are
    reported against such types that exist in both versions.
    """
    builder = _DeltaBuilder(old, new)
    builder.compare_types()
    # The builder emits each distinct change once; the stable sort keeps
    # same-keyed records (one per interface) in the order they were found.
    return Delta(old.id, new.id, sorted(builder.changes, key=BreakingChange.sort_key))
