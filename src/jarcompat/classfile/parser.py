"""Class-file and JAR parsing.

The parser resolves the constant pool eagerly and returns records holding
only symbolic names and descriptors. Method bodies are scanned just enough
to collect the member and type references they contain; instructions are
never interpreted.
"""

from __future__ import annotations

import struct
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO

from .descriptors import DescriptorError, element_class_name, validate_descriptor
from .model import (
    MAGIC,
    MIN_MAJOR_VERSION,
    BadMagic,
    ClassFormatError,
    InnerClassRecord,
    JarContent,
    MalformedConstantPool,
    MemberRef,
    NotAZip,
    RawClass,
    RawMember,
    TruncatedClass,
    language_of_source,
)

# Constant pool tags.
_UTF8 = 1
_INTEGER = 3
_FLOAT = 4
_LONG = 5
_DOUBLE = 6
_CLASS = 7
_STRING = 8
_FIELDREF = 9
_METHODREF = 10
_IFACE_METHODREF = 11
_NAME_AND_TYPE = 12
_METHOD_HANDLE = 15
_METHOD_TYPE = 16
_DYNAMIC = 17
_INVOKE_DYNAMIC = 18
_MODULE = 19
_PACKAGE = 20

# Big-endian layouts read from class files.
_U2 = struct.Struct(">H")
_U4 = struct.Struct(">I")
_U2_PAIR = struct.Struct(">HH")
_U1_U2 = struct.Struct(">BH")
_I4 = struct.Struct(">i")
_I4_PAIR = struct.Struct(">ii")
_F4 = struct.Struct(">f")
_I8 = struct.Struct(">q")
_F8 = struct.Struct(">d")
_MEMBER_HEAD = struct.Struct(">HHH")  # access flags, name index, descriptor index


class _Reader:
    """Cursor over a byte buffer with checked reads.

    Fixed-size values are unpacked in place after one bounds check, so only
    ``take`` copies bytes.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _advance(self, count: int) -> int:
        """Move past ``count`` bytes and return where they start."""
        pos = self.pos
        end = pos + count
        if end > len(self.data):
            raise TruncatedClass(f"needed {count} bytes at offset {pos}")
        self.pos = end
        return pos

    def take(self, count: int) -> bytes:
        pos = self._advance(count)
        return self.data[pos : pos + count]

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack_from(self.data, self._advance(layout.size))

    def u1(self) -> int:
        return self.data[self._advance(1)]

    def u2(self) -> int:
        return _U2.unpack_from(self.data, self._advance(2))[0]

    def u4(self) -> int:
        return _U4.unpack_from(self.data, self._advance(4))[0]

    def skip(self, count: int) -> None:
        self._advance(count)


class _ConstantPool:
    """Tagged entries indexed from 1, with typed resolution helpers."""

    def __init__(self, entries: list[tuple[int, object] | None]) -> None:
        self.entries = entries

    def _entry(self, index: int, expected: tuple[int, ...]) -> object:
        if index <= 0 or index >= len(self.entries):
            raise MalformedConstantPool(f"constant index {index} out of range")
        entry = self.entries[index]
        if entry is None or entry[0] not in expected:
            raise MalformedConstantPool(
                f"constant {index} has tag {None if entry is None else entry[0]}, "
                f"wanted one of {expected}"
            )
        return entry[1]

    def utf8(self, index: int) -> str:
        return self._entry(index, (_UTF8,))  # type: ignore[return-value]

    def class_name(self, index: int) -> str:
        name_index = self._entry(index, (_CLASS,))
        return self.utf8(name_index).replace("/", ".")  # type: ignore[arg-type]

    def member_ref(self, index: int) -> MemberRef:
        class_index, nat_index = self._entry(
            index, (_FIELDREF, _METHODREF, _IFACE_METHODREF)
        )  # type: ignore[misc]
        name_index, desc_index = self._entry(nat_index, (_NAME_AND_TYPE,))  # type: ignore[misc]
        owner = self.class_name(class_index)
        return MemberRef(owner, self.utf8(name_index), self.utf8(desc_index))

    def constant_value(self, index: int) -> int | float | str:
        value = self._entry(index, (_INTEGER, _LONG, _FLOAT, _DOUBLE, _STRING))
        entry = self.entries[index]
        if entry[0] == _STRING:  # type: ignore[index]
            return self.utf8(value)  # type: ignore[arg-type]
        return value  # type: ignore[return-value]


def _parse_constant_pool(reader: _Reader) -> _ConstantPool:
    count = reader.u2()
    entries: list[tuple[int, object] | None] = [None]
    while len(entries) < count:
        tag = reader.u1()
        if tag == _UTF8:
            length = reader.u2()
            raw = reader.take(length)
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                # Modified UTF-8 (embedded NULs, surrogate pairs); close enough
                # for name resolution.
                text = raw.decode("utf-8", errors="replace")
            entries.append((tag, text))
        elif tag == _INTEGER:
            entries.append((tag, reader.unpack(_I4)[0]))
        elif tag == _FLOAT:
            entries.append((tag, reader.unpack(_F4)[0]))
        elif tag == _LONG:
            entries.append((tag, reader.unpack(_I8)[0]))
            entries.append(None)  # longs and doubles take two slots
        elif tag == _DOUBLE:
            entries.append((tag, reader.unpack(_F8)[0]))
            entries.append(None)
        elif tag in (_CLASS, _STRING, _METHOD_TYPE, _MODULE, _PACKAGE):
            entries.append((tag, reader.u2()))
        elif tag in (_FIELDREF, _METHODREF, _IFACE_METHODREF, _NAME_AND_TYPE, _DYNAMIC, _INVOKE_DYNAMIC):
            entries.append((tag, reader.unpack(_U2_PAIR)))
        elif tag == _METHOD_HANDLE:
            entries.append((tag, reader.unpack(_U1_U2)))
        else:
            raise MalformedConstantPool(f"unknown constant tag {tag}")
    return _ConstantPool(entries)


# Instruction lengths (opcode byte included); 0 marks variable-length or
# reserved opcodes that get special handling.
def _build_opcode_lengths() -> list[int]:
    lengths = [1] * 256
    for op in (0x10, 0x12, 0x15, 0x16, 0x17, 0x18, 0x19, 0x36, 0x37, 0x38, 0x39, 0x3A, 0xA9, 0xBC):
        lengths[op] = 2
    for op in (0x11, 0x13, 0x14, 0x84, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xBB, 0xBD, 0xC0, 0xC1):
        lengths[op] = 3
    for op in range(0x99, 0xA9):  # ifeq .. jsr
        lengths[op] = 3
    lengths[0xC6] = lengths[0xC7] = 3  # ifnull / ifnonnull
    lengths[0xC5] = 4  # multianewarray
    lengths[0xB9] = lengths[0xBA] = 5  # invokeinterface / invokedynamic
    lengths[0xC8] = lengths[0xC9] = 5  # goto_w / jsr_w
    for op in (0xAA, 0xAB, 0xC4):  # tableswitch, lookupswitch, wide
        lengths[op] = 0
    return lengths


_OPCODE_LENGTHS = _build_opcode_lengths()

_FIELD_OPS = frozenset((0xB2, 0xB3, 0xB4, 0xB5))
_METHOD_OPS = frozenset((0xB6, 0xB7, 0xB8, 0xB9))
_TYPE_OPS = frozenset((0xBB, 0xBD, 0xC0, 0xC1, 0xC5))


def _scan_code(
    code: bytes, pool: _ConstantPool
) -> tuple[list[MemberRef], list[MemberRef], list[str]]:
    """Collect member and class references from a Code attribute body."""
    methods: list[MemberRef] = []
    fields: list[MemberRef] = []
    types: list[str] = []
    pos = 0
    size = len(code)
    while pos < size:
        op = code[pos]
        if op in _METHOD_OPS or op in _FIELD_OPS or op in _TYPE_OPS:
            if pos + 3 > size:
                raise TruncatedClass("method/field/type instruction cut short")
            index = _U2.unpack_from(code, pos + 1)[0]
            if op in _METHOD_OPS:
                methods.append(pool.member_ref(index))
            elif op in _FIELD_OPS:
                fields.append(pool.member_ref(index))
            else:
                name = element_class_name(pool.class_name(index))
                if name is not None:
                    types.append(name)
        elif op in (0x12, 0x13):  # ldc / ldc_w: class literals are type refs
            wide = op == 0x13
            end = pos + (3 if wide else 2)
            if end > size:
                raise TruncatedClass("ldc instruction cut short")
            index = _U2.unpack_from(code, pos + 1)[0] if wide else code[pos + 1]
            entry = pool.entries[index] if 0 < index < len(pool.entries) else None
            if entry is not None and entry[0] == _CLASS:
                name = element_class_name(pool.class_name(index))
                if name is not None:
                    types.append(name)
        elif op == 0xAA:  # tableswitch
            aligned = (pos + 4) & ~3
            if aligned + 12 > size:
                raise TruncatedClass("tableswitch cut short")
            low, high = _I4_PAIR.unpack_from(code, aligned + 4)
            if high < low:
                raise MalformedConstantPool("tableswitch with high < low")
            pos = aligned + 12 + 4 * (high - low + 1)
            continue
        elif op == 0xAB:  # lookupswitch
            aligned = (pos + 4) & ~3
            if aligned + 8 > size:
                raise TruncatedClass("lookupswitch cut short")
            npairs = _I4.unpack_from(code, aligned + 4)[0]
            if npairs < 0:
                raise MalformedConstantPool("lookupswitch with negative pair count")
            pos = aligned + 8 + 8 * npairs
            continue
        elif op == 0xC4:  # wide
            if pos + 2 > size:
                raise TruncatedClass("wide instruction cut short")
            pos += 6 if code[pos + 1] == 0x84 else 4
            continue
        length = _OPCODE_LENGTHS[op]
        if length == 0:
            length = 1
        pos += length
    return methods, fields, types


def _skip_element_value(reader: _Reader) -> None:
    tag = chr(reader.u1())
    if tag in "BCDFIJSZsc":
        reader.skip(2)
    elif tag == "e":
        reader.skip(4)
    elif tag == "@":
        _read_annotation(reader, None)
    elif tag == "[":
        count = reader.u2()
        for _ in range(count):
            _skip_element_value(reader)
    else:
        raise MalformedConstantPool(f"bad annotation element tag {tag!r}")


def _read_annotation(reader: _Reader, pool: _ConstantPool | None) -> str | None:
    type_index = reader.u2()
    pair_count = reader.u2()
    for _ in range(pair_count):
        reader.skip(2)  # element name
        _skip_element_value(reader)
    if pool is None:
        return None
    desc = pool.utf8(type_index)
    name = element_class_name(desc)
    if name is None:
        raise MalformedConstantPool(f"annotation type {desc!r} is not a class type")
    return name


def _read_annotations_attr(data: bytes, pool: _ConstantPool) -> list[str]:
    reader = _Reader(data)
    count = reader.u2()
    return [_read_annotation(reader, pool) for _ in range(count)]  # type: ignore[list-item]


def _read_attributes(reader: _Reader, pool: _ConstantPool) -> dict[str, list[bytes]]:
    count = reader.u2()
    attrs: dict[str, list[bytes]] = {}
    for _ in range(count):
        name = pool.utf8(reader.u2())
        length = reader.u4()
        attrs.setdefault(name, []).append(reader.take(length))
    return attrs


def _member_annotations(attrs: dict[str, list[bytes]], pool: _ConstantPool) -> tuple[str, ...]:
    names: list[str] = []
    for key in ("RuntimeVisibleAnnotations", "RuntimeInvisibleAnnotations"):
        for blob in attrs.get(key, ()):
            names.extend(_read_annotations_attr(blob, pool))
    return tuple(names)


def _parse_member(reader: _Reader, pool: _ConstantPool, *, owner_is_interface: bool) -> RawMember:
    access, name_index, descriptor_index = reader.unpack(_MEMBER_HEAD)
    name = pool.utf8(name_index)
    descriptor = pool.utf8(descriptor_index)
    try:
        validate_descriptor(descriptor)
    except DescriptorError as exc:
        raise MalformedConstantPool(str(exc)) from exc
    attrs = _read_attributes(reader, pool)

    constant = None
    for blob in attrs.get("ConstantValue", ()):
        constant = pool.constant_value(_Reader(blob).u2())

    exceptions: list[str] = []
    for blob in attrs.get("Exceptions", ()):
        sub = _Reader(blob)
        for _ in range(sub.u2()):
            exceptions.append(pool.class_name(sub.u2()))

    invoked: list[MemberRef] = []
    accessed: list[MemberRef] = []
    types: list[str] = []
    for blob in attrs.get("Code", ()):
        sub = _Reader(blob)
        sub.skip(4)  # max_stack, max_locals
        code_len = sub.u4()
        body = sub.take(code_len)
        ms, fs, ts = _scan_code(body, pool)
        invoked.extend(ms)
        accessed.extend(fs)
        types.extend(ts)

    is_method = descriptor.startswith("(")
    is_default = (
        is_method
        and owner_is_interface
        and not access & 0x0400  # ACC_ABSTRACT
        and not access & 0x0008  # ACC_STATIC
        and name not in ("<init>", "<clinit>")
    )
    return RawMember(
        name=name,
        descriptor=descriptor,
        access_flags=access,
        annotations=_member_annotations(attrs, pool),
        is_default_method=is_default,
        constant_value=constant,
        declared_exceptions=tuple(exceptions),
        invoked_methods=tuple(invoked),
        accessed_fields=tuple(accessed),
        referenced_types=tuple(types),
    )


def parse_class(data: bytes) -> RawClass:
    """Parse one class file into a RawClass.

    Raises BadMagic, TruncatedClass, or MalformedConstantPool (all
    ClassFormatError) for bytes that are not a well-formed class file.
    """
    reader = _Reader(data)
    magic = reader.u4()
    if magic != MAGIC:
        raise BadMagic(f"magic 0x{magic:08X} != 0xCAFEBABE")
    minor = reader.u2()
    major = reader.u2()
    if major < MIN_MAJOR_VERSION:
        raise ClassFormatError(f"major version {major} predates the JVM")
    pool = _parse_constant_pool(reader)

    access = reader.u2()
    this_name = pool.class_name(reader.u2())
    super_index = reader.u2()
    super_name = pool.class_name(super_index) if super_index else None
    interfaces = tuple(pool.class_name(reader.u2()) for _ in range(reader.u2()))

    is_interface = bool(access & 0x0200)
    fields = tuple(
        _parse_member(reader, pool, owner_is_interface=is_interface) for _ in range(reader.u2())
    )
    methods = tuple(
        _parse_member(reader, pool, owner_is_interface=is_interface) for _ in range(reader.u2())
    )
    attrs = _read_attributes(reader, pool)

    source_file = None
    for blob in attrs.get("SourceFile", ()):
        source_file = pool.utf8(_Reader(blob).u2())

    inner_records: list[InnerClassRecord] = []
    for blob in attrs.get("InnerClasses", ()):
        sub = _Reader(blob)
        for _ in range(sub.u2()):
            inner_index = sub.u2()
            outer_index = sub.u2()
            name_index = sub.u2()
            inner_access = sub.u2()
            inner_records.append(
                InnerClassRecord(
                    inner_name=pool.class_name(inner_index),
                    outer_name=pool.class_name(outer_index) if outer_index else None,
                    simple_name=pool.utf8(name_index) if name_index else None,
                    access_flags=inner_access,
                )
            )

    return RawClass(
        magic=magic,
        major_version=major,
        minor_version=minor,
        access_flags=access,
        this_name=this_name,
        super_name=super_name,
        interfaces=interfaces,
        fields=fields,
        methods=methods,
        source_file=source_file,
        annotations=_member_annotations(attrs, pool),
        inner_class_records=tuple(inner_records),
    )


# What reading one entry of an opened archive raises: a bad CRC-32 or local
# header (BadZipFile), a corrupt deflate stream (zlib.error), data that ends
# before its declared size (EOFError), an unsupported compression method
# (NotImplementedError), or encryption (RuntimeError).
_DAMAGED_ENTRY = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError)


def open_jar(
    source: str | Path | BinaryIO, parsed: dict[bytes, RawClass] | None = None
) -> JarContent:
    """Read a JAR, parsing every ``*.class`` entry.

    Entry-level failures, a damaged ZIP entry or a malformed class, are
    recorded in ``parse_failures``, not fatal; a damaged entry also in
    ``damaged_entries`` (see ``JarContent.require_intact``).
    ``module-info.class`` entries are skipped (counted as non-class
    content). ``parsed`` maps class-file bytes to their parse:
    an entry whose bytes it holds is not parsed again, and every new parse
    is added to it, so JARs opened with one dict share the ``RawClass`` of
    identical bytes.
    """
    try:
        archive = zipfile.ZipFile(source)
    except (zipfile.BadZipFile, OSError) as exc:
        raise NotAZip(f"{source}: {exc}") from exc

    parsed = {} if parsed is None else parsed
    content = JarContent(source=str(source) if isinstance(source, (str, Path)) else "")
    with archive:
        for info in archive.infolist():
            if info.is_dir():
                continue
            name = info.filename
            if not name.endswith(".class") or name.endswith("module-info.class"):
                content.non_class_entries += 1
                continue
            try:
                data = archive.read(info)
            except _DAMAGED_ENTRY as exc:
                failure = (name, f"{type(exc).__name__}: {exc}")
                content.parse_failures.append(failure)
                content.damaged_entries.append(failure)
                continue
            # Matched on the whole bytes: the directory's CRC and size could collide.
            cls = parsed.get(data)
            if cls is None:
                try:
                    cls = parse_class(data)
                except ClassFormatError as exc:
                    content.parse_failures.append((name, f"{type(exc).__name__}: {exc}"))
                    continue
                parsed[data] = cls
            content.entries.append((name, cls))
            content.detected_languages.add(language_of_source(cls.source_file))
    return content
