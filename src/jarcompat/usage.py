"""Extraction of client-to-library usage relations from bytecode.

Every use corresponds to a concrete constant-pool reference, hierarchy
declaration, descriptor, or annotation in the client bytes; nothing is
fabricated. References that do not resolve against the supplied library
model are dropped.

Method overriding is not represented: binaries carry no override facts, so
analyses that need them must over-approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .apimodel import ApiModel
from .classfile import JarContent, MemberRef, RawClass, class_names_in, member_ref


class UseKind(str, Enum):
    METHOD_INVOCATION = "methodInvocation"
    FIELD_ACCESS = "fieldAccess"
    EXTENDS = "extends"
    IMPLEMENTS = "implements"
    ANNOTATION = "annotation"
    TYPE_DEPENDENCY = "typeDependency"
    CONSTRUCTOR_INVOCATION = "constructorInvocation"


# The use kinds whose library element is a member; their uses are also
# filed under the member's owner type.
MEMBER_USES = (UseKind.METHOD_INVOCATION, UseKind.FIELD_ACCESS, UseKind.CONSTRUCTOR_INVOCATION)

# use kind -> library element (or owner type) -> the client elements using it
UseIndex = dict[UseKind, dict[str, set[str]]]


@dataclass
class UsageModel:
    """How one client uses one library, indexed by the library side.

    ``uses`` maps each use kind and library element to the client elements
    that use it. ``member_uses`` files every member use a second time, under
    the member's owner type.
    """

    library_id: str = ""
    uses: UseIndex = field(default_factory=lambda: {kind: {} for kind in UseKind})
    member_uses: UseIndex = field(default_factory=lambda: {kind: {} for kind in MEMBER_USES})
    client_elements: set[str] = field(default_factory=set)
    client_types: set[str] = field(default_factory=set)

    def is_used(self, element: str) -> bool:
        """True when a use of any kind names ``element``."""
        return any(element in targets for targets in self.uses.values())

    def is_touched(self, type_name: str) -> bool:
        """True when ``type_name`` is used, or owns a used member."""
        return self.is_used(type_name) or any(
            type_name in owners for owners in self.member_uses.values()
        )


class _Extractor:
    def __init__(self, library: ApiModel) -> None:
        self.library = library
        self.model = UsageModel(library_id=library.id)

    def add(self, kind: UseKind, client: str, library_element: str) -> None:
        self.model.uses[kind].setdefault(library_element, set()).add(client)

    def add_type_use(self, kind: UseKind, client: str, type_name: str) -> None:
        if type_name in self.library.types:
            self.add(kind, client, type_name)

    def member_use(self, client: str, ref: MemberRef, *, is_field: bool) -> None:
        if is_field:
            resolved = self.library.resolve_field(ref.owner, ref.name, ref.descriptor)
        else:
            resolved = self.library.resolve_method(ref.owner, ref.name, ref.descriptor)
        if resolved is None:
            return
        target = member_ref(ref.owner, ref.name, ref.descriptor)
        if is_field:
            kind = UseKind.FIELD_ACCESS
        elif ref.name == "<init>":
            kind = UseKind.CONSTRUCTOR_INVOCATION
        else:
            kind = UseKind.METHOD_INVOCATION
        self.add(kind, client, target)
        self.model.member_uses[kind].setdefault(ref.owner, set()).add(client)

    def descriptor_types(self, client: str, descriptor: str) -> None:
        for name in class_names_in(descriptor):
            self.add_type_use(UseKind.TYPE_DEPENDENCY, client, name)

    def annotations(self, client: str, names: tuple[str, ...]) -> None:
        for name in names:
            self.add_type_use(UseKind.ANNOTATION, client, name)

    def extract_class(self, cls: RawClass) -> None:
        client_type = cls.this_name
        self.model.client_elements.add(client_type)
        self.model.client_types.add(client_type)

        if cls.super_name:
            self.add_type_use(UseKind.EXTENDS, client_type, cls.super_name)
        for iface in cls.interfaces:
            self.add_type_use(UseKind.IMPLEMENTS, client_type, iface)
        self.annotations(client_type, cls.annotations)

        for raw in (*cls.fields, *cls.methods):
            element = raw.ref
            self.model.client_elements.add(element)
            self.annotations(element, raw.annotations)
            self.descriptor_types(element, raw.descriptor)
            for exc in raw.declared_exceptions:
                self.add_type_use(UseKind.TYPE_DEPENDENCY, element, exc)
            for ref in raw.invoked_methods:
                self.member_use(element, ref, is_field=False)
            for ref in raw.accessed_fields:
                self.member_use(element, ref, is_field=True)
            for type_name in raw.referenced_types:
                self.add_type_use(UseKind.TYPE_DEPENDENCY, element, type_name)


def extract_usage(client: JarContent, library: ApiModel) -> UsageModel:
    """The index of how ``client`` uses declarations of ``library``.

    Resolution is purely name/descriptor based against the supplied model;
    usage is normally extracted against the *old* version of a library when
    asking whether an upgrade breaks the client.
    """
    extractor = _Extractor(library)
    for _, cls in client.entries:
        extractor.extract_class(cls)
    return extractor.model
