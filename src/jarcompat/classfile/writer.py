"""Emit minimal synthetic class files for test fixtures.

This is a fixture generator, not a general assembler: it supports exactly
the constructs the breaking-change catalog and the benchmark need. Method
bodies are sequences of reference-bearing instructions (field access,
invocations, ``new``) followed by ``return``; they are parseable but not
verifiable, which is all the toolkit requires.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .descriptors import DescriptorError, parse_method_descriptor, validate_descriptor
from .model import (
    ACC_ABSTRACT,
    ACC_ANNOTATION,
    ACC_ENUM,
    ACC_FINAL,
    ACC_INTERFACE,
    ACC_NATIVE,
    ACC_PRIVATE,
    ACC_PROTECTED,
    ACC_PUBLIC,
    ACC_STATIC,
    ACC_STRICT,
    ACC_SUPER,
    UnsupportedConstruct,
)

# Sentinel: derive "<SimpleName>.java" from the class name.
AUTO_SOURCE = "<auto>"

_VISIBILITY_FLAGS = {
    "public": ACC_PUBLIC,
    "protected": ACC_PROTECTED,
    "package": 0,
    "private": ACC_PRIVATE,
}

KINDS = ("class", "interface", "enum", "annotation")


@dataclass(frozen=True)
class FieldSpec:
    name: str
    descriptor: str = "I"
    visibility: str = "public"
    is_static: bool = False
    is_final: bool = False
    constant: int | float | str | None = None
    annotations: tuple[str, ...] = ()


@dataclass(frozen=True)
class MethodSpec:
    name: str
    descriptor: str = "()V"
    visibility: str = "public"
    is_abstract: bool = False
    is_static: bool = False
    is_final: bool = False
    is_native: bool = False
    is_strict: bool = False
    annotations: tuple[str, ...] = ()
    exceptions: tuple[str, ...] = ()
    # Body content: (owner, name, descriptor) triples and plain type names.
    calls: tuple[tuple[str, str, str], ...] = ()
    interface_calls: tuple[tuple[str, str, str], ...] = ()
    field_reads: tuple[tuple[str, str, str], ...] = ()
    field_writes: tuple[tuple[str, str, str], ...] = ()
    type_refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassSpec:
    name: str
    kind: str = "class"
    visibility: str = "public"
    is_abstract: bool = False
    is_final: bool = False
    super_name: str | None = None  # defaults by kind
    interfaces: tuple[str, ...] = ()
    fields: tuple[FieldSpec, ...] = ()
    methods: tuple[MethodSpec, ...] = ()
    annotations: tuple[str, ...] = ()
    source_file: str | None = AUTO_SOURCE
    major_version: int = 52
    inner_classes: tuple[tuple[str, str | None, str | None, int], ...] = ()

    def resolved_super(self) -> str:
        if self.super_name is not None:
            return self.super_name
        if self.kind == "enum":
            return "java.lang.Enum"
        return "java.lang.Object"

    def resolved_source(self) -> str | None:
        if self.source_file == AUTO_SOURCE:
            simple = self.name.rsplit(".", 1)[-1].split("$", 1)[0]
            return simple + ".java"
        return self.source_file


class _Pool:
    """Deduplicating constant-pool builder (1-based indices)."""

    def __init__(self) -> None:
        self.blobs: list[bytes] = []
        self.slots = 1  # next index
        self.index: dict[tuple, int] = {}

    def _add(self, key: tuple, blob: bytes, wide: bool = False) -> int:
        existing = self.index.get(key)
        if existing is not None:
            return existing
        idx = self.slots
        self.blobs.append(blob)
        self.index[key] = idx
        self.slots += 2 if wide else 1
        return idx

    def utf8(self, text: str) -> int:
        raw = text.encode("utf-8")
        return self._add(("u", text), struct.pack(">BH", 1, len(raw)) + raw)

    def cls(self, dotted: str) -> int:
        internal = dotted.replace(".", "/")
        name_idx = self.utf8(internal)
        return self._add(("c", internal), struct.pack(">BH", 7, name_idx))

    def nat(self, name: str, desc: str) -> int:
        ni, di = self.utf8(name), self.utf8(desc)
        return self._add(("n", name, desc), struct.pack(">BHH", 12, ni, di))

    def member(self, tag: int, owner: str, name: str, desc: str) -> int:
        ci = self.cls(owner)
        nti = self.nat(name, desc)
        return self._add((tag, owner, name, desc), struct.pack(">BHH", tag, ci, nti))

    def constant(self, value: int | float | str, descriptor: str) -> int:
        if descriptor in ("I", "S", "B", "C", "Z"):
            if not isinstance(value, int):
                raise UnsupportedConstruct(f"constant {value!r} for descriptor {descriptor}")
            return self._add(("i", value), struct.pack(">Bi", 3, value))
        if descriptor == "J":
            if not isinstance(value, int):
                raise UnsupportedConstruct(f"constant {value!r} for long field")
            return self._add(("l", value), struct.pack(">Bq", 5, value), wide=True)
        # Floats and doubles are keyed by their encoding: 0.0 == -0.0 and
        # NaN != NaN, so keying by value would merge or split entries.
        if descriptor == "F":
            blob = struct.pack(">Bf", 4, float(value))
            return self._add(("f", blob), blob)
        if descriptor == "D":
            blob = struct.pack(">Bd", 6, float(value))
            return self._add(("d", blob), blob, wide=True)
        if descriptor == "Ljava/lang/String;":
            if not isinstance(value, str):
                raise UnsupportedConstruct(f"constant {value!r} for String field")
            si = self.utf8(value)
            return self._add(("s", value), struct.pack(">BH", 8, si))
        raise UnsupportedConstruct(f"no constant encoding for descriptor {descriptor}")

    def serialize(self) -> bytes:
        return struct.pack(">H", self.slots) + b"".join(self.blobs)


def _annotations_attr(pool: _Pool, annotations: tuple[str, ...]) -> bytes | None:
    if not annotations:
        return None
    out = struct.pack(">H", len(annotations))
    for name in annotations:
        desc = "L" + name.replace(".", "/") + ";"
        out += struct.pack(">HH", pool.utf8(desc), 0)
    return out


def _attribute(pool: _Pool, name: str, payload: bytes) -> bytes:
    return struct.pack(">HI", pool.utf8(name), len(payload)) + payload


def _method_body(pool: _Pool, spec: MethodSpec) -> bytes:
    code = bytearray()
    for owner, name, desc in spec.field_reads:
        code += struct.pack(">BH", 0xB2, pool.member(9, owner, name, desc))  # getstatic
    for owner, name, desc in spec.field_writes:
        code += struct.pack(">BH", 0xB3, pool.member(9, owner, name, desc))  # putstatic
    for type_name in spec.type_refs:
        code += struct.pack(">BH", 0xBB, pool.cls(type_name))  # new
    for owner, name, desc in spec.calls:
        opcode = 0xB7 if name == "<init>" else 0xB6  # invokespecial / invokevirtual
        code += struct.pack(">BH", opcode, pool.member(10, owner, name, desc))
    for owner, name, desc in spec.interface_calls:
        idx = pool.member(11, owner, name, desc)
        code += struct.pack(">BHBB", 0xB9, idx, 1, 0)  # invokeinterface
    code.append(0xB1)  # return
    # max_stack / max_locals are nominal; the code is never executed.
    return struct.pack(">HHI", 8, 8, len(code)) + bytes(code) + struct.pack(">HH", 0, 0)


def _method_info(pool: _Pool, spec: MethodSpec, owner: ClassSpec) -> bytes:
    try:
        parse_method_descriptor(spec.descriptor)
    except DescriptorError as exc:
        raise UnsupportedConstruct(f"{owner.name}.{spec.name}: {exc}") from exc
    if spec.visibility not in _VISIBILITY_FLAGS:
        raise UnsupportedConstruct(f"bad visibility {spec.visibility!r}")
    if spec.is_abstract and (spec.calls or spec.field_reads or spec.field_writes):
        raise UnsupportedConstruct(f"abstract method {spec.name} cannot have a body")

    flags = _VISIBILITY_FLAGS[spec.visibility]
    flags |= ACC_ABSTRACT if spec.is_abstract else 0
    flags |= ACC_STATIC if spec.is_static else 0
    flags |= ACC_FINAL if spec.is_final else 0
    flags |= ACC_NATIVE if spec.is_native else 0
    flags |= ACC_STRICT if spec.is_strict else 0

    attrs: list[bytes] = []
    if not spec.is_abstract and not spec.is_native:
        attrs.append(_attribute(pool, "Code", _method_body(pool, spec)))
    if spec.exceptions:
        payload = struct.pack(">H", len(spec.exceptions))
        for exc_name in spec.exceptions:
            payload += struct.pack(">H", pool.cls(exc_name))
        attrs.append(_attribute(pool, "Exceptions", payload))
    annos = _annotations_attr(pool, spec.annotations)
    if annos is not None:
        attrs.append(_attribute(pool, "RuntimeVisibleAnnotations", annos))

    return (
        struct.pack(">HHHH", flags, pool.utf8(spec.name), pool.utf8(spec.descriptor), len(attrs))
        + b"".join(attrs)
    )


def _field_info(pool: _Pool, spec: FieldSpec, owner: ClassSpec) -> bytes:
    try:
        validate_descriptor(spec.descriptor)
    except DescriptorError as exc:
        raise UnsupportedConstruct(f"{owner.name}.{spec.name}: {exc}") from exc
    if spec.descriptor.startswith("("):
        raise UnsupportedConstruct(f"field {spec.name} with method descriptor")
    if spec.visibility not in _VISIBILITY_FLAGS:
        raise UnsupportedConstruct(f"bad visibility {spec.visibility!r}")

    flags = _VISIBILITY_FLAGS[spec.visibility]
    flags |= ACC_STATIC if spec.is_static else 0
    flags |= ACC_FINAL if spec.is_final else 0

    attrs: list[bytes] = []
    if spec.constant is not None:
        const_idx = pool.constant(spec.constant, spec.descriptor)
        attrs.append(_attribute(pool, "ConstantValue", struct.pack(">H", const_idx)))
    annos = _annotations_attr(pool, spec.annotations)
    if annos is not None:
        attrs.append(_attribute(pool, "RuntimeVisibleAnnotations", annos))

    return (
        struct.pack(">HHHH", flags, pool.utf8(spec.name), pool.utf8(spec.descriptor), len(attrs))
        + b"".join(attrs)
    )


def write_class(spec: ClassSpec) -> bytes:
    """Assemble a class file; parse_class(write_class(s)) mirrors ``s``."""
    if spec.kind not in KINDS:
        raise UnsupportedConstruct(f"unknown kind {spec.kind!r}")
    if spec.visibility not in ("public", "package", "protected", "private"):
        raise UnsupportedConstruct(f"bad class visibility {spec.visibility!r}")
    if spec.is_abstract and spec.is_final:
        raise UnsupportedConstruct(f"{spec.name}: abstract and final")
    if spec.major_version < 45:
        raise UnsupportedConstruct(f"major version {spec.major_version} below 45")

    pool = _Pool()
    flags = _VISIBILITY_FLAGS[spec.visibility] & (ACC_PUBLIC)  # nested vis goes in InnerClasses
    if spec.kind == "interface":
        flags |= ACC_INTERFACE | ACC_ABSTRACT
    elif spec.kind == "annotation":
        flags |= ACC_ANNOTATION | ACC_INTERFACE | ACC_ABSTRACT
    elif spec.kind == "enum":
        flags |= ACC_ENUM | ACC_SUPER | ACC_FINAL
    else:
        flags |= ACC_SUPER
        flags |= ACC_ABSTRACT if spec.is_abstract else 0
    if spec.is_final and spec.kind == "class":
        flags |= ACC_FINAL

    this_idx = pool.cls(spec.name)
    super_idx = pool.cls(spec.resolved_super())
    interfaces = list(spec.interfaces)
    if spec.kind == "annotation" and "java.lang.annotation.Annotation" not in interfaces:
        interfaces.append("java.lang.annotation.Annotation")
    iface_idxs = [pool.cls(name) for name in interfaces]

    for method in spec.methods:
        if method.is_abstract and spec.kind == "class" and not spec.is_abstract:
            raise UnsupportedConstruct(
                f"{spec.name}: abstract method {method.name} on concrete class"
            )

    fields = [_field_info(pool, f, spec) for f in spec.fields]
    methods = [_method_info(pool, m, spec) for m in spec.methods]

    class_attrs: list[bytes] = []
    source = spec.resolved_source()
    if source is not None:
        class_attrs.append(_attribute(pool, "SourceFile", struct.pack(">H", pool.utf8(source))))
    annos = _annotations_attr(pool, spec.annotations)
    if annos is not None:
        class_attrs.append(_attribute(pool, "RuntimeVisibleAnnotations", annos))
    if spec.inner_classes:
        payload = struct.pack(">H", len(spec.inner_classes))
        for inner, outer, simple, inner_flags in spec.inner_classes:
            payload += struct.pack(
                ">HHHH",
                pool.cls(inner),
                pool.cls(outer) if outer else 0,
                pool.utf8(simple) if simple else 0,
                inner_flags,
            )
        class_attrs.append(_attribute(pool, "InnerClasses", payload))

    body = struct.pack(">HHH", flags, this_idx, super_idx)
    body += struct.pack(">H", len(iface_idxs)) + b"".join(struct.pack(">H", i) for i in iface_idxs)
    body += struct.pack(">H", len(fields)) + b"".join(fields)
    body += struct.pack(">H", len(methods)) + b"".join(methods)
    body += struct.pack(">H", len(class_attrs)) + b"".join(class_attrs)

    header = struct.pack(">IHH", 0xCAFEBABE, 0, spec.major_version)
    return header + pool.serialize() + body
