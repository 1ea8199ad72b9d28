"""Semantic API model of one library version.

Indexes a JAR's parsed classes by name, labels every declaration as stable
or unstable per annotation and package-naming conventions, and computes
JVM-style member resolution tables. ``type_accessible`` tells which types a
client outside their package can name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from .classfile import ACC_SYNTHETIC, EntryKey, JarContent, RawClass, RawMember, open_jar

VISIBILITY_RANK = {"private": 0, "package": 1, "protected": 2, "public": 3}

# Keywords that mark unstable declarations when found in annotation simple
# names (case-insensitive substring) or as whole package segments.
DEFAULT_KEYWORDS = (
    "api",
    "alpha",
    "beta",
    "internal",
    "protected",
    "private",
    "restricted",
    "experimental",
    "dev",
    "access",
)

# Annotation simple names known to mark unstable API, beyond keyword hits.
DEFAULT_ANNOTATIONS = (
    "Beta",
    "InterfaceAudience",
    "InternalApi",
    "Internal",
    "SdkInternalApi",
)


@dataclass(frozen=True)
class StabilityConfig:
    """Keyword and annotation lists driving stability classification."""

    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    annotations: tuple[str, ...] = DEFAULT_ANNOTATIONS

    @classmethod
    def load(cls, path: str | Path) -> "StabilityConfig":
        """Read a line-oriented config with [keywords] and [annotations] sections."""
        keywords: list[str] = []
        annotations: list[str] = []
        section = None
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("keywords", "annotations"):
                    raise ValueError(f"{path}:{lineno}: unknown section [{section}]")
                continue
            if section == "keywords":
                keywords.append(line.lower())
            elif section == "annotations":
                annotations.append(line)
            else:
                raise ValueError(f"{path}:{lineno}: entry outside any section")
        return cls(tuple(keywords), tuple(annotations))


@dataclass(frozen=True)
class StabilityLabel:
    status: str  # "stable" | "unstable"
    reason_kind: str = "none"  # none | annotation | package_convention | enclosing
    reason_value: str = ""

    @property
    def is_stable(self) -> bool:
        return self.status == "stable"


STABLE = StabilityLabel("stable")


class EffectiveMember(NamedTuple):
    """A member visible on a host type, possibly inherited."""

    decl: RawMember
    inherited_from: str | None


@dataclass
class ApiModel:
    """Immutable view of one library version's declarations."""

    id: str = ""
    config: StabilityConfig = field(default_factory=StabilityConfig)
    # The parsed class of each type. Models built from parses shared through
    # ``open_jar``'s memo hold the same object for identical class bytes,
    # which lets ``build_model`` reuse a previous model's work and
    # ``compute_delta`` skip unchanged types (see ``same_closure``).
    types: dict[str, RawClass] = field(default_factory=dict)
    # Types and members are labelled apart: a type can be named like a field
    # reference (class ``p.A.f`` beside field ``f`` of ``p.A``).
    type_stability: dict[str, StabilityLabel] = field(default_factory=dict)
    member_stability: dict[str, StabilityLabel] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    _methods: dict[str, dict[tuple[str, str], EffectiveMember]] = field(default_factory=dict)
    _fields: dict[str, dict[str, EffectiveMember]] = field(default_factory=dict)

    def effective_methods(self, type_name: str) -> dict[tuple[str, str], EffectiveMember]:
        """Methods and constructors callable through ``type_name``, keyed by (name, descriptor)."""
        return self._methods.get(type_name, {})

    def effective_fields(self, type_name: str) -> dict[str, EffectiveMember]:
        return self._fields.get(type_name, {})

    def resolve_method(self, owner: str, name: str, descriptor: str) -> EffectiveMember | None:
        return self.effective_methods(owner).get((name, descriptor))

    def resolve_field(self, owner: str, name: str, descriptor: str) -> EffectiveMember | None:
        found = self.effective_fields(owner).get(name)
        if found is not None and found.decl.descriptor == descriptor:
            return found
        return None

    def superclass_chain(self, type_name: str) -> list[str]:
        """Superclass names above ``type_name``, excluding java.lang.Object.

        Walks inside the model; the first name outside the model terminates
        the chain (and is included, since its identity still matters).
        """
        chain: list[str] = []
        seen = {type_name}
        current = self.types.get(type_name)
        name = current.super_name if current else None
        while name and name != "java.lang.Object" and name not in seen:
            chain.append(name)
            seen.add(name)
            decl = self.types.get(name)
            name = decl.super_name if decl else None
        return chain

    def transitive_interfaces(self, type_name: str) -> set[str]:
        """All interface names reachable from ``type_name`` via supertypes."""
        result: set[str] = set()
        stack = [type_name]
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            decl = self.types.get(current)
            if decl is None:
                continue
            for iface in decl.interfaces:
                result.add(iface)
                stack.append(iface)
            if decl.super_name and decl.super_name != "java.lang.Object":
                stack.append(decl.super_name)
        return result


def simple_annotation_name(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1].rsplit("$", 1)[-1]


def _annotation_label(annotations: Iterable[str], config: StabilityConfig) -> StabilityLabel | None:
    for qualified in annotations:
        simple = simple_annotation_name(qualified)
        lowered = simple.lower()
        if simple in config.annotations:
            return StabilityLabel("unstable", "annotation", simple)
        for keyword in config.keywords:
            if keyword in lowered:
                return StabilityLabel("unstable", "annotation", simple)
    return None


def _package_label(package: str, config: StabilityConfig) -> StabilityLabel | None:
    for segment in package.split("."):
        if segment.lower() in config.keywords:
            return StabilityLabel("unstable", "package_convention", segment.lower())
    return None


def classify_type_stability(
    decl: RawClass, config: StabilityConfig, enclosing: StabilityLabel | None = None
) -> StabilityLabel:
    """Label a type: own annotations, then package segments, then enclosure."""
    label = _annotation_label(decl.annotations, config)
    if label is not None:
        return label
    label = _package_label(decl.package, config)
    if label is not None:
        return label
    if enclosing is not None and not enclosing.is_stable:
        return StabilityLabel("unstable", "enclosing", decl.enclosing_name or "")
    return STABLE


def classify_member_stability(
    decl: RawMember, config: StabilityConfig, owner_label: StabilityLabel
) -> StabilityLabel:
    label = _annotation_label(decl.annotations, config)
    if label is not None:
        return label
    if not owner_label.is_stable:
        return StabilityLabel("unstable", "enclosing", decl.owner)
    return STABLE


def _collect_effective(
    model: ApiModel,
    type_name: str,
    methods_out: dict[str, dict[tuple[str, str], EffectiveMember]],
    fields_out: dict[str, dict[str, EffectiveMember]],
    in_progress: set[str],
) -> tuple[dict[tuple[str, str], EffectiveMember], dict[str, EffectiveMember]]:
    if type_name in methods_out:
        return methods_out[type_name], fields_out[type_name]
    decl = model.types.get(type_name)
    methods: dict[tuple[str, str], EffectiveMember] = {}
    fields: dict[str, EffectiveMember] = {}
    if decl is None or type_name in in_progress:  # unknown type or hierarchy cycle
        return methods, fields
    in_progress.add(type_name)

    for member in decl.members:
        if member.descriptor.startswith("("):
            methods[(member.name, member.descriptor)] = EffectiveMember(member, None)
        else:
            fields[member.name] = EffectiveMember(member, None)

    supertypes: list[str] = []
    if decl.super_name:
        supertypes.append(decl.super_name)
    supertypes.extend(decl.interfaces)
    for parent in supertypes:
        parent_methods, parent_fields = _collect_effective(
            model, parent, methods_out, fields_out, in_progress
        )
        for key, eff in parent_methods.items():
            if key in methods:
                continue  # declared here or inherited from an earlier supertype
            inner = eff.decl
            if inner.name == "<init>" or inner.visibility == "private":
                continue  # constructors and private members are not inherited
            if inner.is_static:
                declaring = model.types.get(inner.owner)
                if declaring is not None and declaring.kind in ("interface", "annotation"):
                    continue  # static interface methods are not inherited
            methods[key] = EffectiveMember(inner, inner.owner)
        for key, eff in parent_fields.items():
            if key not in fields and eff.decl.visibility != "private":
                fields[key] = EffectiveMember(eff.decl, eff.decl.owner)

    in_progress.discard(type_name)
    methods_out[type_name] = methods
    fields_out[type_name] = fields
    return methods, fields


def same_closure(old: ApiModel, new: ApiModel, name: str, memo: dict[str, bool]) -> bool:
    """True when both models built ``name`` and every supertype it reaches
    from the same parsed class object, or both lack the type, and no
    hierarchy cycle is among them.

    Such a type has the same declaration, supertype chains and effective
    members in both models. Outer classes are not part of the closure: they
    only affect stability labels. A cycle is excluded because
    ``_collect_effective`` resolves it in entry order. Identity, not
    equality: equal records can still hold a ``0.0`` and a ``-0.0`` constant.
    ``memo`` holds the answers for one pair of models.
    """
    known = memo.get(name)
    if known is not None:
        return known
    raw = old.types.get(name)
    if raw is not new.types.get(name):
        result = False
    elif raw is None:
        result = True
    else:
        memo[name] = False  # reaching ``name`` again is a cycle
        supertypes = (raw.super_name, *raw.interfaces) if raw.super_name else raw.interfaces
        result = all(same_closure(old, new, parent, memo) for parent in supertypes)
    memo[name] = result
    return result


def build_model(
    jar: JarContent,
    config: StabilityConfig | None = None,
    model_id: str | None = None,
    previous: ApiModel | None = None,
) -> ApiModel:
    """Build an ApiModel from parsed JAR content.

    Duplicate type names keep the first occurrence and record a diagnostic.
    Synthetic classes are skipped. Stability is computed for every type and
    member, so both stability maps are total.

    ``previous``, typically the model of the library's preceding version,
    lends its work on every type built from the same ``RawClass`` object:
    when both models use one config, its type label if the enclosing type's
    label is unchanged, and its member labels if the type's own label is;
    and its effective members, when ``same_closure`` holds. The result
    equals a model built without it.
    """
    config = config or StabilityConfig()
    model = ApiModel(id=model_id if model_id is not None else jar.source, config=config)

    for path, cls in jar.entries:
        if cls.access_flags & ACC_SYNTHETIC:
            continue
        name = cls.this_name
        if name in model.types:
            model.diagnostics.append(f"duplicate type {name} at {path}; keeping first")
            continue
        model.types[name] = cls

    reuse_labels = previous is not None and previous.config == config
    if reuse_labels:
        # The previous labels of every member whose type is built from the
        # same class; those of the others are dropped, then made below.
        model.member_stability = dict(previous.member_stability)
        for name, decl in previous.types.items():
            if model.types.get(name) is not decl:
                for member in decl.members:
                    model.member_stability.pop(member.ref, None)
    # Outer types label before nested ones: sort by name length of the '$' chain.
    for name in sorted(model.types, key=lambda n: (n.count("$"), n)):
        decl = model.types[name]
        enclosing = decl.enclosing_name
        enclosing_label = model.type_stability.get(enclosing) if enclosing else None
        # A type's label depends only on its class, the config and its
        # enclosing type's label, so a previous label for the same class
        # under the same enclosing label holds here too.
        shared = reuse_labels and previous.types.get(name) is decl
        if shared and (not enclosing or previous.type_stability.get(enclosing) == enclosing_label):
            type_label = previous.type_stability[name]
        else:
            type_label = classify_type_stability(decl, config, enclosing_label)
        model.type_stability[name] = type_label
        if not (shared and previous.type_stability[name] == type_label):
            for member in decl.members:
                model.member_stability[member.ref] = classify_member_stability(
                    member, config, type_label
                )

    if previous is not None:
        memo: dict[str, bool] = {}
        for name in model.types:
            if same_closure(previous, model, name, memo):
                model._methods[name] = previous._methods[name]
                model._fields[name] = previous._fields[name]
    in_progress: set[str] = set()
    for name in model.types:
        _collect_effective(model, name, model._methods, model._fields, in_progress)
    return model


def model_pair(
    old_jar: str | Path, new_jar: str | Path, config: StabilityConfig | None = None
) -> tuple[ApiModel, ApiModel]:
    """The models of two versions of a library, each named after its JAR.

    One parse memo serves both JARs: identical stored entries are parsed once,
    the new model reuses the old one's work on them, and ``compute_delta``
    can skip the types built from them. Raises what ``open_jar`` and
    ``require_complete`` raise; each caller maps those errors itself.
    """
    parsed: dict[EntryKey, RawClass] = {}
    old_content = open_jar(old_jar, parsed).require_complete()
    new_content = open_jar(new_jar, parsed).require_complete()
    old_model = build_model(old_content, config, model_id=str(old_jar))
    return old_model, build_model(new_content, config, model_id=str(new_jar), previous=old_model)


def type_accessible(model: ApiModel, type_name: str) -> bool:
    """True when a client outside the package can name the type at all."""
    decl = model.types.get(type_name)
    if decl is None:
        return False
    if decl.visibility not in ("public", "protected"):
        return False
    enclosing = decl.enclosing_name
    if enclosing is None:
        return True
    return type_accessible(model, enclosing)
