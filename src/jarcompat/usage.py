"""Extraction of client-to-library usage relations from bytecode.

Every relation pair corresponds to a concrete constant-pool reference,
hierarchy declaration, descriptor, or annotation in the client bytes;
nothing is fabricated. References that do not resolve against the supplied
library model are dropped.

Method overriding is not represented: binaries carry no override facts, so
analyses that need them must over-approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .apimodel import ApiModel, member_ref
from .classfile import JarContent, MemberRef, RawClass, class_names_in


class UseKind(str, Enum):
    METHOD_INVOCATION = "methodInvocation"
    FIELD_ACCESS = "fieldAccess"
    EXTENDS = "extends"
    IMPLEMENTS = "implements"
    ANNOTATION = "annotation"
    TYPE_DEPENDENCY = "typeDependency"
    CONSTRUCTOR_INVOCATION = "constructorInvocation"


Pair = tuple[str, str]


@dataclass
class UsageModel:
    """Binary relations from client elements to library elements."""

    library_id: str = ""
    relations: dict[UseKind, set[Pair]] = field(
        default_factory=lambda: {kind: set() for kind in UseKind}
    )
    client_elements: set[str] = field(default_factory=set)
    client_types: set[str] = field(default_factory=set)

    def pairs(self, kind: UseKind) -> set[Pair]:
        return self.relations[kind]


class _Extractor:
    def __init__(self, library: ApiModel) -> None:
        self.library = library
        self.model = UsageModel(library_id=library.id)

    def add(self, kind: UseKind, client: str, library_element: str) -> None:
        self.model.relations[kind].add((client, library_element))

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
            element = member_ref(client_type, raw.name, raw.descriptor)
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
    """Relations describing how ``client`` uses declarations of ``library``.

    Resolution is purely name/descriptor based against the supplied model;
    usage is normally extracted against the *old* version of a library when
    asking whether an upgrade breaks the client.
    """
    extractor = _Extractor(library)
    for _, cls in client.entries:
        extractor.extract_class(cls)
    return extractor.model
