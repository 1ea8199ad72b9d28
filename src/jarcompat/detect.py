"""Join a delta with client usage to locate impacted client code.

The impact-rule table maps every breaking-change kind to the use kinds that
can be affected, together with a confidence tag. ``certain`` rules follow
directly from JVM linkage semantics; ``pessimistic`` rules over-approximate
where binaries carry too little information:

* overrides are invisible, so final/abstract modifier changes flag every
  subtype of the owner;
* handled-exception types are invisible, so new checked exceptions flag
  every invocation;
* the surrounding type hierarchy is unavailable, so type changes flag every
  use without generalization/specialization reasoning;
* ``super`` constructor calls are indistinguishable from ordinary
  instantiation, so public-to-protected constructor narrowing flags every
  constructor invocation.

Detections are reported at member granularity on the client side and always
name the modified library declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .classfile import member_owner, package_of, rehost_member
from .delta import BcKind, BreakingChange, Delta
from .usage import UsageModel, UseKind

CERTAIN = "certain"
PESSIMISTIC = "pessimistic"

# Matcher targets: the BC element itself, the affected type, or any member
# of the affected type.
ELEMENT = "element"
TYPE = "type"
TYPE_MEMBERS = "type_members"


class DeltaUsageMismatch(ValueError):
    """Usage was resolved against a different library than the delta."""


@dataclass(frozen=True)
class Matcher:
    use_kind: UseKind
    target: str = ELEMENT
    confidence: str = CERTAIN
    predicate: str | None = None  # visibility | lacks_decl
    note: str = ""


def _uses_of_type(*kinds: UseKind, confidence: str, note: str = "") -> tuple[Matcher, ...]:
    return tuple(Matcher(kind, TYPE, confidence, note=note) for kind in kinds)


_ALL_TYPE_USES = (
    (UseKind.TYPE_DEPENDENCY, TYPE),
    (UseKind.EXTENDS, TYPE),
    (UseKind.IMPLEMENTS, TYPE),
    (UseKind.ANNOTATION, TYPE),
    (UseKind.METHOD_INVOCATION, TYPE_MEMBERS),
    (UseKind.FIELD_ACCESS, TYPE_MEMBERS),
    (UseKind.CONSTRUCTOR_INVOCATION, TYPE_MEMBERS),
)

IMPACT_RULES: dict[BcKind, tuple[Matcher, ...]] = {
    BcKind.CLASS_REMOVED: tuple(
        Matcher(kind, target) for kind, target in _ALL_TYPE_USES
    ),
    BcKind.CLASS_NOW_FINAL: (Matcher(UseKind.EXTENDS, TYPE),),
    BcKind.CLASS_NOW_ABSTRACT: (Matcher(UseKind.CONSTRUCTOR_INVOCATION, TYPE_MEMBERS),),
    BcKind.CLASS_LESS_ACCESSIBLE: tuple(
        Matcher(kind, target, predicate="visibility") for kind, target in _ALL_TYPE_USES
    ),
    BcKind.CLASS_TYPE_CHANGED: tuple(
        Matcher(kind, target, PESSIMISTIC, note="hierarchy reasoning unavailable")
        for kind, target in _ALL_TYPE_USES
    ),
    BcKind.SUPERCLASS_REMOVED: _uses_of_type(
        UseKind.EXTENDS,
        UseKind.TYPE_DEPENDENCY,
        confidence=PESSIMISTIC,
        note="generalization/specialization reasoning unavailable",
    ),
    BcKind.SUPERCLASS_ADDED: _uses_of_type(
        UseKind.EXTENDS, confidence=PESSIMISTIC, note="inherited obligations unknown"
    ),
    BcKind.INTERFACE_ADDED: _uses_of_type(
        UseKind.EXTENDS,
        UseKind.IMPLEMENTS,
        confidence=PESSIMISTIC,
        note="inherited obligations unknown",
    ),
    BcKind.INTERFACE_REMOVED: (
        Matcher(UseKind.EXTENDS, TYPE, PESSIMISTIC, note="interface views unknown"),
        Matcher(UseKind.IMPLEMENTS, TYPE, PESSIMISTIC, note="interface views unknown"),
        Matcher(UseKind.CONSTRUCTOR_INVOCATION, TYPE_MEMBERS, PESSIMISTIC, note="interface views unknown"),
        Matcher(UseKind.METHOD_INVOCATION, TYPE_MEMBERS, PESSIMISTIC, note="interface views unknown"),
    ),
    BcKind.METHOD_REMOVED: (Matcher(UseKind.METHOD_INVOCATION),),
    BcKind.METHOD_NOW_ABSTRACT: (
        Matcher(UseKind.METHOD_INVOCATION),
        Matcher(UseKind.EXTENDS, TYPE, PESSIMISTIC, note="overrides invisible in binaries"),
    ),
    BcKind.METHOD_NOW_FINAL: (
        Matcher(UseKind.EXTENDS, TYPE, PESSIMISTIC, note="overrides invisible in binaries"),
        Matcher(UseKind.IMPLEMENTS, TYPE, PESSIMISTIC, note="overrides invisible in binaries"),
    ),
    BcKind.METHOD_NOW_STATIC: (Matcher(UseKind.METHOD_INVOCATION),),
    BcKind.METHOD_NO_LONGER_STATIC: (Matcher(UseKind.METHOD_INVOCATION),),
    BcKind.METHOD_LESS_ACCESSIBLE: (Matcher(UseKind.METHOD_INVOCATION, predicate="visibility"),),
    BcKind.METHOD_RETURN_TYPE_CHANGED: (
        Matcher(
            UseKind.METHOD_INVOCATION,
            confidence=PESSIMISTIC,
            note="generalization/specialization reasoning unavailable",
        ),
    ),
    BcKind.METHOD_ADDED_TO_INTERFACE: (
        Matcher(UseKind.IMPLEMENTS, TYPE, predicate="lacks_decl"),
        Matcher(UseKind.EXTENDS, TYPE, predicate="lacks_decl"),
    ),
    BcKind.METHOD_ABSTRACT_ADDED_TO_CLASS: (
        Matcher(UseKind.EXTENDS, TYPE, predicate="lacks_decl"),
    ),
    BcKind.METHOD_ADDED_TO_PUBLIC_CLASS: (
        Matcher(UseKind.EXTENDS, TYPE, predicate="lacks_decl"),
    ),
    BcKind.METHOD_NEW_DEFAULT: _uses_of_type(
        UseKind.IMPLEMENTS,
        UseKind.EXTENDS,
        confidence=PESSIMISTIC,
        note="default-method collisions unknown",
    ),
    BcKind.METHOD_ABSTRACT_NOW_DEFAULT: _uses_of_type(
        UseKind.IMPLEMENTS,
        UseKind.EXTENDS,
        confidence=PESSIMISTIC,
        note="override structure invisible in binaries",
    ),
    BcKind.METHOD_NOW_THROWS_CHECKED: (
        Matcher(
            UseKind.METHOD_INVOCATION,
            confidence=PESSIMISTIC,
            note="handled-exception types invisible in binaries",
        ),
    ),
    BcKind.CONSTRUCTOR_REMOVED: (Matcher(UseKind.CONSTRUCTOR_INVOCATION),),
    BcKind.CONSTRUCTOR_LESS_ACCESSIBLE: (
        Matcher(
            UseKind.CONSTRUCTOR_INVOCATION,
            predicate="visibility",
            note="super() calls indistinguishable from instantiation",
        ),
    ),
    BcKind.FIELD_REMOVED: (Matcher(UseKind.FIELD_ACCESS),),
    BcKind.FIELD_NOW_FINAL: (
        Matcher(
            UseKind.FIELD_ACCESS,
            confidence=PESSIMISTIC,
            note="reads and writes indistinguishable in the usage model",
        ),
    ),
    BcKind.FIELD_NOW_STATIC: (Matcher(UseKind.FIELD_ACCESS),),
    BcKind.FIELD_NO_LONGER_STATIC: (Matcher(UseKind.FIELD_ACCESS),),
    BcKind.FIELD_LESS_ACCESSIBLE: (Matcher(UseKind.FIELD_ACCESS, predicate="visibility"),),
    BcKind.FIELD_TYPE_CHANGED: (
        Matcher(
            UseKind.FIELD_ACCESS,
            confidence=PESSIMISTIC,
            note="generalization/specialization reasoning unavailable",
        ),
    ),
    # Constant reads are inlined at compile time; no use kind is impacted at
    # link time, so this kind never yields detections.
    BcKind.FIELD_CONSTANT_VALUE_CHANGED: (),
}

assert set(IMPACT_RULES) == set(BcKind)

_TYPE_LEVEL_KINDS = frozenset(
    {
        BcKind.CLASS_REMOVED,
        BcKind.CLASS_NOW_FINAL,
        BcKind.CLASS_NOW_ABSTRACT,
        BcKind.CLASS_LESS_ACCESSIBLE,
        BcKind.CLASS_TYPE_CHANGED,
        BcKind.SUPERCLASS_REMOVED,
        BcKind.SUPERCLASS_ADDED,
        BcKind.INTERFACE_ADDED,
        BcKind.INTERFACE_REMOVED,
    }
)

_ADDITIVE_KINDS = frozenset(
    {
        BcKind.METHOD_ADDED_TO_INTERFACE,
        BcKind.METHOD_ABSTRACT_ADDED_TO_CLASS,
        BcKind.METHOD_ADDED_TO_PUBLIC_CLASS,
        BcKind.METHOD_NEW_DEFAULT,
    }
)


@dataclass(frozen=True)
class Detection:
    client_element: str
    library_element: str
    use_kind: UseKind
    bc_kind: BcKind
    confidence: str

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.client_element, self.library_element, self.bc_kind.value, self.use_kind.value)

    def to_dict(self) -> dict:
        return {
            "client": self.client_element,
            "library": self.library_element,
            "useKind": self.use_kind.value,
            "bcKind": self.bc_kind.value,
            "confidence": self.confidence,
        }


@dataclass
class ImpactSummary:
    """Per-change impact classes for one client, plus the broken verdict."""

    per_change: dict[tuple[str, str], str] = field(default_factory=dict)
    broken: bool = False
    detection_count: int = 0

    def count(self, category: str) -> int:
        return sum(1 for value in self.per_change.values() if value == category)


def element_owner(change: BreakingChange) -> str:
    if change.kind in _TYPE_LEVEL_KINDS:
        return change.element
    return member_owner(change.element)


def _client_type_of(element: str, usage: UsageModel) -> str:
    """The client type of a client element: the element itself or its owner."""
    return element if element in usage.client_types else member_owner(element)


def _is_subtype(client_type: str, owner: str, usage: UsageModel) -> bool:
    return any(
        client_type in usage.uses[kind].get(owner, ())
        for kind in (UseKind.EXTENDS, UseKind.IMPLEMENTS)
    )


def _visibility_breaks(change: BreakingChange, client_element: str, usage: UsageModel) -> str | None:
    """The confidence that the narrowed visibility breaks this use, or None for no impact."""
    detail = change.detail_map()
    new_vis = detail.get("new", "private")
    owner = element_owner(change)
    client_type = _client_type_of(client_element, usage)
    same_package = package_of(client_type) == package_of(owner)
    if new_vis == "public":
        return None
    if new_vis == "protected":
        if same_package:
            return None
        if change.kind == BcKind.CONSTRUCTOR_LESS_ACCESSIBLE:
            # A subtype's super() call would still be legal, but binaries
            # cannot tell super() apart from ordinary instantiation.
            return PESSIMISTIC
        if _is_subtype(client_type, owner, usage):
            return None
        # An intermediate client-side superclass could still grant access.
        return PESSIMISTIC
    # package or private: only same-package clients survive, and private
    # excludes even those.
    if new_vis == "package" and same_package:
        return None
    return CERTAIN


def _lacks_declaration(change: BreakingChange, client_type: str, usage: UsageModel) -> bool:
    return rehost_member(change.element, client_type) not in usage.client_elements


def rule_note(bc_kind: BcKind, use_kind: UseKind) -> str:
    """Human-readable identifier of the rule behind a (BC, use) pairing."""
    for matcher in IMPACT_RULES[bc_kind]:
        if matcher.use_kind == use_kind:
            suffix = f" ({matcher.note})" if matcher.note else ""
            return f"{bc_kind.value} x {use_kind.value}{suffix}"
    return f"{bc_kind.value} x {use_kind.value} (unmapped)"


def compute_detections(delta: Delta, usage: UsageModel) -> list[Detection]:
    """Apply the impact-rule table to every breaking change.

    Raises DeltaUsageMismatch when the usage model was resolved against a
    different library namespace than the delta's old side.
    """
    if delta.old_id and usage.library_id and delta.old_id != usage.library_id:
        raise DeltaUsageMismatch(
            f"usage resolved against {usage.library_id!r}, delta old side is {delta.old_id!r}"
        )

    detections: set[Detection] = set()
    for change in delta.changes:
        owner = element_owner(change)
        for matcher in IMPACT_RULES[change.kind]:
            index = usage.member_uses if matcher.target == TYPE_MEMBERS else usage.uses
            target = change.element if matcher.target == ELEMENT else owner
            for client_element in index[matcher.use_kind].get(target, ()):
                confidence = matcher.confidence
                if matcher.predicate == "visibility":
                    confidence = _visibility_breaks(change, client_element, usage)
                    if confidence is None:
                        continue
                elif matcher.predicate == "lacks_decl":
                    client_type = _client_type_of(client_element, usage)
                    if not _lacks_declaration(change, client_type, usage):
                        continue
                detections.add(
                    Detection(
                        client_element=client_element,
                        library_element=change.element,
                        use_kind=matcher.use_kind,
                        bc_kind=change.kind,
                        confidence=confidence,
                    )
                )
    return sorted(detections, key=Detection.sort_key)


UNUSED = "unused"
NON_BREAKING_USE = "non_breaking_use"
BREAKING_USE = "breaking_use"


def classify_impact(
    delta: Delta, usage: UsageModel, detections: Iterable[Detection]
) -> ImpactSummary:
    """Partition the delta's changes into unused / non-breaking / breaking for one client."""
    detected: set[tuple[str, str]] = set()
    count = 0
    for detection in detections:
        detected.add((detection.library_element, detection.bc_kind.value))
        count += 1

    summary = ImpactSummary(detection_count=count)
    for change in delta.changes:
        key = (change.element, change.kind.value)
        if key in detected:
            summary.per_change[key] = BREAKING_USE
            continue
        if change.kind in _TYPE_LEVEL_KINDS:
            # A type-level change is "used" when the type or any member is.
            used = usage.is_touched(change.element)
        elif change.kind in _ADDITIVE_KINDS:
            # Old clients cannot reference the new declaration; using the
            # affected type is what puts them in scope.
            used = usage.is_touched(element_owner(change))
        else:
            used = usage.is_used(change.element)
        summary.per_change[key] = NON_BREAKING_USE if used else UNUSED
    summary.broken = any(v == BREAKING_USE for v in summary.per_change.values())
    return summary
