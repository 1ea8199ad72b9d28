"""Class-file and JAR parsing.

``open_jar`` reads an archive from disk once. Its central directory is read
in one ``struct`` pass over those bytes, with the checks ``zipfile`` makes
there; ``zipfile`` still reads it where the archive has a comment, a ZIP64
end locator or extra field, or a NUL in a name (``_central_directory``).
The ``struct`` pass stays: reading every directory through ``zipfile``
made ``corpus run --jobs 2`` on the corpus-cold benchmark (seed 17, 2-vCPU
host) slower in 5 of 6 alternating 20 s runs, by 12% in the per-pair median.
Each class entry is then read straight from the archive's bytes, with the
checks ``zipfile`` makes when it reads a member (local header signature and
name, flags, compression method, size and CRC-32), raising the same
exceptions. A local name that does not decode counts as a name mismatch.
Only stored and deflated entries are read, as the JVM reads JARs.

``parse_class`` decodes a class file in one pass of offsets over its bytes:
one bounds check per structure, then precompiled ``struct`` layouts read in
place, so no attribute body is copied. The constant pool is decoded up
front and each class name and member reference is resolved once per pool
index. The result holds only symbolic names and descriptors. Method bodies
are scanned just enough to collect the member and type references they
contain; instructions are never interpreted. Malformed input raises
``ClassFormatError``, never ``IndexError`` or ``struct.error``.
"""

from __future__ import annotations

import io
import struct
import sys
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
    member_ref,
)

# CPython's own SHA-256. It takes about 6 times OpenSSL's time per byte, but
# hashlib would load OpenSSL's libcrypto, about 3.5 MB more in every process.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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

_MAGIC_BYTES = MAGIC.to_bytes(4, "big")

# Big-endian layouts read from class files.
_U2 = struct.Struct(">H")
_I4 = struct.Struct(">i")
_I4_PAIR = struct.Struct(">ii")
_U2_PAIR = struct.Struct(">HH")
_HEADER = struct.Struct(">6xHH")  # after the magic and minor version: major, constant count
_U2_QUAD = struct.Struct(">HHHH")  # class head, member head, InnerClasses row
_ATTRIBUTE_HEAD = struct.Struct(">HI")  # name index, length
_CODE_LENGTH = struct.Struct(">4xI")  # after max_stack and max_locals

# The layout of each constant's body after its tag byte, by tag; Utf8 has a
# variable length and unknown tags have none.
_CONSTANT_LAYOUTS: list[struct.Struct | None] = [None] * 256
for _tags, _layout in (
    ((_INTEGER,), _I4),
    ((_FLOAT,), struct.Struct(">f")),
    ((_LONG,), struct.Struct(">q")),
    ((_DOUBLE,), struct.Struct(">d")),
    ((_CLASS, _STRING, _METHOD_TYPE, _MODULE, _PACKAGE), _U2),
    ((_FIELDREF, _METHODREF, _IFACE_METHODREF, _NAME_AND_TYPE, _DYNAMIC, _INVOKE_DYNAMIC), _U2_PAIR),
    ((_METHOD_HANDLE,), struct.Struct(">BH")),
):
    for _tag in _tags:
        _CONSTANT_LAYOUTS[_tag] = _layout
_MEMBER_REF_TAGS = frozenset((_FIELDREF, _METHODREF, _IFACE_METHODREF))
_CONSTANT_VALUE_TAGS = frozenset((_INTEGER, _LONG, _FLOAT, _DOUBLE, _STRING))


# Instruction lengths, opcode byte included. The scanner measures tableswitch,
# lookupswitch and wide itself.
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
    return lengths


_OPCODE_LENGTHS = _build_opcode_lengths()

# What the scanner does with each opcode; 0 is "step over it".
_OP_METHOD, _OP_FIELD, _OP_TYPE, _OP_LDC, _OP_LDC_W, _OP_TABLESWITCH, _OP_LOOKUPSWITCH, _OP_WIDE = range(1, 9)
_OP_KINDS = bytearray(256)
for _ops, _kind in (
    ((0xB6, 0xB7, 0xB8, 0xB9), _OP_METHOD),
    ((0xB2, 0xB3, 0xB4, 0xB5), _OP_FIELD),
    ((0xBB, 0xBD, 0xC0, 0xC1, 0xC5), _OP_TYPE),
    ((0x12,), _OP_LDC),
    ((0x13,), _OP_LDC_W),
    ((0xAA,), _OP_TABLESWITCH),
    ((0xAB,), _OP_LOOKUPSWITCH),
    ((0xC4,), _OP_WIDE),
):
    for _op in _ops:
        _OP_KINDS[_op] = _kind

# Annotation element-value tags (JVMS 4.7.16.1) followed by one u2.
_CONST_ELEMENT_TAGS = frozenset(b"BCDFIJSZsc")


def _u2_array(data: bytes, pos: int, count: int) -> tuple[int, ...]:
    """``count`` big-endian u2 values at ``pos``, whose bounds the caller checked."""
    return struct.unpack_from(f">{count}H", data, pos)


def _truncated(what: str, pos: int) -> TruncatedClass:
    return TruncatedClass(f"{what} cut short at offset {pos}")


def _skip_element_values(data: bytes, pos: int, limit: int, count: int, named: bool) -> int:
    """The offset just past ``count`` annotation element values starting at
    ``pos``, each behind a 2-byte element name when ``named``.

    Nested annotations and arrays are walked with a stack, not recursion, so
    deep nesting cannot exhaust the interpreter's stack.
    """
    pending = [(count, named)]
    while pending:
        count, named = pending.pop()
        if not count:
            continue
        pending.append((count - 1, named))
        if named:
            pos += 2
        if pos >= limit:
            raise _truncated("annotation element", pos)
        tag = data[pos]
        pos += 1
        if tag in _CONST_ELEMENT_TAGS:
            pos += 2
        elif tag == 0x65:  # 'e': enum type and constant name
            pos += 4
        elif tag == 0x40:  # '@': a nested annotation's type, then its pairs
            if pos + 4 > limit:
                raise _truncated("nested annotation", pos)
            pending.append((_U2.unpack_from(data, pos + 2)[0], True))
            pos += 4
        elif tag == 0x5B:  # '[': an array of values
            if pos + 2 > limit:
                raise _truncated("annotation array", pos)
            pending.append((_U2.unpack_from(data, pos)[0], False))
            pos += 2
        else:
            raise MalformedConstantPool(f"bad annotation element tag {chr(tag)!r}")
    if pos > limit:
        raise _truncated("annotation element", pos)
    return pos


def parse_class(data: bytes) -> RawClass:
    """Parse one class file into a RawClass.

    Raises BadMagic, TruncatedClass, or MalformedConstantPool (all
    ClassFormatError) for bytes that are not a well-formed class file.
    """
    end = len(data)
    if data[:4] != _MAGIC_BYTES:
        if end < 4:
            raise _truncated("magic", 0)
        raise BadMagic(f"magic 0x{int.from_bytes(data[:4], 'big'):08X} != 0xCAFEBABE")
    if end < 10:
        raise _truncated("class header", 4)
    major, count = _HEADER.unpack_from(data)
    if major < MIN_MAJOR_VERSION:
        raise ClassFormatError(f"major version {major} predates the JVM")

    # The constant pool: a tag and a decoded value per index. A long or
    # double takes two slots, so one in the last slot spills one past count.
    tags = bytearray(count + 1)
    values: list = [None] * (count + 1)
    layouts = _CONSTANT_LAYOUTS
    pos = 10
    index = 1
    while index < count:
        if pos >= end:
            raise _truncated("constant pool", pos)
        tag = data[pos]
        if tag == _UTF8:
            start = pos + 3
            if start > end:
                raise _truncated("Utf8 constant", pos)
            pos = start + _U2.unpack_from(data, start - 2)[0]
            if pos > end:
                raise _truncated("Utf8 constant", start - 3)
            raw = data[start:pos]
            try:
                values[index] = raw.decode("utf-8")
            except UnicodeDecodeError:
                # Modified UTF-8 (embedded NULs, surrogate pairs); close enough
                # for name resolution.
                values[index] = raw.decode("utf-8", errors="replace")
        else:
            layout = layouts[tag]
            if layout is None:
                raise MalformedConstantPool(f"unknown constant tag {tag}")
            start = pos + 1
            pos = start + layout.size
            if pos > end:
                raise _truncated("constant", start - 1)
            values[index] = layout.unpack_from(data, start)
        tags[index] = tag
        index += 2 if tag == _LONG or tag == _DOUBLE else 1

    def entry(index: int, tag: int) -> object:
        if index < count and tags[index] == tag:
            return values[index]
        raise MalformedConstantPool(f"constant {index} is not of tag {tag}")

    def utf8(index: int) -> str:
        if index < count and tags[index] == _UTF8:
            return values[index]
        raise MalformedConstantPool(f"constant {index} is not a Utf8 entry")

    class_names: dict[int, str] = {}

    def class_name(index: int) -> str:
        name = class_names.get(index)
        if name is None:
            name = class_names[index] = utf8(entry(index, _CLASS)[0]).replace("/", ".")
        return name

    member_refs: dict[int, MemberRef] = {}

    def pool_member_ref(index: int) -> MemberRef:
        ref = member_refs.get(index)
        if ref is None:
            if not (index < count and tags[index] in _MEMBER_REF_TAGS):
                raise MalformedConstantPool(f"constant {index} is not a member reference")
            class_index, nat_index = values[index]
            name_index, descriptor_index = entry(nat_index, _NAME_AND_TYPE)
            ref = member_refs[index] = MemberRef(
                class_name(class_index), utf8(name_index), utf8(descriptor_index)
            )
        return ref

    type_names: dict[int, str | None] = {}

    def type_name(index: int) -> str | None:
        if index in type_names:
            return type_names[index]
        name = type_names[index] = element_class_name(class_name(index))
        return name

    def annotations(pos: int, limit: int) -> tuple[str, ...]:
        if pos + 2 > limit:
            raise _truncated("annotations", pos)
        number = _U2.unpack_from(data, pos)[0]
        pos += 2
        names = []
        for _ in range(number):
            if pos + 4 > limit:
                raise _truncated("annotation", pos)
            type_index, pairs = _U2_PAIR.unpack_from(data, pos)
            pos = _skip_element_values(data, pos + 4, limit, pairs, True)
            descriptor = utf8(type_index)
            name = element_class_name(descriptor)
            if name is None:
                raise MalformedConstantPool(f"annotation type {descriptor!r} is not a class type")
            names.append(name)
        return tuple(names)

    def scan_code(pos: int, limit: int) -> tuple[tuple, tuple, tuple]:
        """The methods, fields and types referenced by the code array at ``pos``."""
        methods: list[MemberRef] = []
        fields: list[MemberRef] = []
        types: list[str] = []
        kinds, lengths = _OP_KINDS, _OPCODE_LENGTHS
        code_start = pos
        while pos < limit:
            op = data[pos]
            kind = kinds[op]
            if not kind:
                pos += lengths[op]
            elif kind <= _OP_TYPE:
                if pos + 3 > limit:
                    raise _truncated("method/field/type instruction", pos)
                index = _U2.unpack_from(data, pos + 1)[0]
                if kind == _OP_METHOD:
                    methods.append(pool_member_ref(index))
                elif kind == _OP_FIELD:
                    fields.append(pool_member_ref(index))
                else:
                    name = type_name(index)
                    if name is not None:
                        types.append(name)
                pos += lengths[op]
            elif kind <= _OP_LDC_W:  # class literals are type refs
                if kind == _OP_LDC:
                    if pos + 2 > limit:
                        raise _truncated("ldc instruction", pos)
                    index = data[pos + 1]
                    pos += 2
                else:
                    if pos + 3 > limit:
                        raise _truncated("ldc_w instruction", pos)
                    index = _U2.unpack_from(data, pos + 1)[0]
                    pos += 3
                if index < count and tags[index] == _CLASS:
                    name = type_name(index)
                    if name is not None:
                        types.append(name)
            elif kind == _OP_WIDE:
                if pos + 2 > limit:
                    raise _truncated("wide instruction", pos)
                pos += 6 if data[pos + 1] == 0x84 else 4
            else:
                # Switch operands start at the next multiple of four from the
                # start of the code array.
                aligned = code_start + ((pos - code_start + 4) & ~3)
                if kind == _OP_TABLESWITCH:
                    if aligned + 12 > limit:
                        raise _truncated("tableswitch", pos)
                    low, high = _I4_PAIR.unpack_from(data, aligned + 4)
                    if high < low:
                        raise MalformedConstantPool("tableswitch with high < low")
                    pos = aligned + 12 + 4 * (high - low + 1)
                else:
                    if aligned + 8 > limit:
                        raise _truncated("lookupswitch", pos)
                    pairs = _I4.unpack_from(data, aligned + 4)[0]
                    if pairs < 0:
                        raise MalformedConstantPool("lookupswitch with negative pair count")
                    pos = aligned + 8 + 8 * pairs
        return tuple(methods), tuple(fields), tuple(types)

    def attribute(pos: int) -> tuple[str, int, int]:
        """The name, body offset and end offset of the attribute at ``pos``."""
        if pos + 6 > end:
            raise _truncated("attribute header", pos)
        name_index, length = _ATTRIBUTE_HEAD.unpack_from(data, pos)
        start = pos + 6
        if start + length > end:
            raise _truncated("attribute", pos)
        return utf8(name_index), start, start + length

    def members(pos: int, is_interface: bool) -> tuple[tuple[RawMember, ...], int]:
        if pos + 2 > end:
            raise _truncated("member count", pos)
        number = _U2.unpack_from(data, pos)[0]
        pos += 2
        parsed: list[RawMember] = []
        for _ in range(number):
            if pos + 8 > end:
                raise _truncated("member", pos)
            access, name_index, descriptor_index, attribute_count = _U2_QUAD.unpack_from(data, pos)
            pos += 8
            name = utf8(name_index)
            if "." in name:
                raise MalformedConstantPool(f"member name {name!r} holds '.'")
            descriptor = utf8(descriptor_index)
            if descriptor_index not in checked_descriptors:
                try:
                    validate_descriptor(descriptor)
                except DescriptorError as exc:
                    raise MalformedConstantPool(str(exc)) from exc
                checked_descriptors.add(descriptor_index)
            constant = None
            exceptions = invoked = accessed = types = visible = invisible = ()
            for _ in range(attribute_count):
                kind, start, pos = attribute(pos)
                if kind == "Code":
                    if start + 8 > pos:
                        raise _truncated("Code attribute", start)
                    code_start = start + 8
                    code_end = code_start + _CODE_LENGTH.unpack_from(data, start)[0]
                    if code_end > pos:
                        raise _truncated("code array", code_start)
                    code_invoked, code_accessed, code_types = scan_code(code_start, code_end)
                    invoked += code_invoked
                    accessed += code_accessed
                    types += code_types
                elif kind == "ConstantValue":
                    if start + 2 > pos:
                        raise _truncated("ConstantValue attribute", start)
                    value_index = _U2.unpack_from(data, start)[0]
                    if not (value_index < count and tags[value_index] in _CONSTANT_VALUE_TAGS):
                        raise MalformedConstantPool(f"constant {value_index} is not a constant value")
                    constant = values[value_index][0]
                    if tags[value_index] == _STRING:
                        constant = utf8(constant)
                elif kind == "Exceptions":
                    if start + 2 > pos:
                        raise _truncated("Exceptions attribute", start)
                    number_thrown = _U2.unpack_from(data, start)[0]
                    if start + 2 + 2 * number_thrown > pos:
                        raise _truncated("Exceptions attribute", start)
                    exceptions += tuple(map(class_name, _u2_array(data, start + 2, number_thrown)))
                elif kind == "RuntimeVisibleAnnotations":
                    visible += annotations(start, pos)
                elif kind == "RuntimeInvisibleAnnotations":
                    invisible += annotations(start, pos)
            is_default = (
                is_interface
                and descriptor.startswith("(")
                and not access & 0x0400  # ACC_ABSTRACT
                and not access & 0x0008  # ACC_STATIC
                and name not in ("<init>", "<clinit>")
            )
            parsed.append(
                RawMember(
                    name=name,
                    descriptor=descriptor,
                    access_flags=access,
                    owner=this_name,
                    ref=member_ref(this_name, name, descriptor),
                    annotations=visible + invisible,
                    is_default_method=is_default,
                    constant_value=constant,
                    declared_exceptions=exceptions,
                    invoked_methods=invoked,
                    accessed_fields=accessed,
                    referenced_types=types,
                )
            )
        return tuple(parsed), pos

    if pos + 8 > end:
        raise _truncated("class head", pos)
    access, this_index, super_index, interface_count = _U2_QUAD.unpack_from(data, pos)
    pos += 8
    this_name = class_name(this_index)
    super_name = class_name(super_index) if super_index else None
    if pos + 2 * interface_count > end:
        raise _truncated("interfaces", pos)
    interfaces = tuple(map(class_name, _u2_array(data, pos, interface_count)))
    pos += 2 * interface_count

    is_interface = bool(access & 0x0200)
    checked_descriptors: set[int] = set()
    fields, pos = members(pos, is_interface)
    methods, pos = members(pos, is_interface)

    if pos + 2 > end:
        raise _truncated("class attribute count", pos)
    attribute_count = _U2.unpack_from(data, pos)[0]
    pos += 2
    source_file = None
    visible = invisible = ()
    inner_records: list[InnerClassRecord] = []
    for _ in range(attribute_count):
        kind, start, pos = attribute(pos)
        if kind == "SourceFile":
            if start + 2 > pos:
                raise _truncated("SourceFile attribute", start)
            source_file = utf8(_U2.unpack_from(data, start)[0])
        elif kind == "InnerClasses":
            if start + 2 > pos:
                raise _truncated("InnerClasses attribute", start)
            rows = _U2.unpack_from(data, start)[0]
            if start + 2 + 8 * rows > pos:
                raise _truncated("InnerClasses attribute", start)
            for offset in range(start + 2, start + 2 + 8 * rows, 8):
                inner_index, outer_index, name_index, inner_access = _U2_QUAD.unpack_from(data, offset)
                inner_records.append(
                    InnerClassRecord(
                        inner_name=class_name(inner_index),
                        outer_name=class_name(outer_index) if outer_index else None,
                        simple_name=utf8(name_index) if name_index else None,
                        access_flags=inner_access,
                    )
                )
        elif kind == "RuntimeVisibleAnnotations":
            visible += annotations(start, pos)
        elif kind == "RuntimeInvisibleAnnotations":
            invisible += annotations(start, pos)

    return RawClass(
        major_version=major,
        access_flags=access,
        this_name=this_name,
        super_name=super_name,
        interfaces=interfaces,
        fields=fields,
        methods=methods,
        source_file=source_file,
        annotations=visible + invisible,
        inner_class_records=tuple(inner_records),
    )


# A member's local header: signature, general-purpose flags, name length and
# extra-field length; the sizes and CRC-32 are read from the central directory.
_LOCAL_HEADER = struct.Struct("<4s2xH18xHH")
_LOCAL_SIGNATURE = b"PK\x03\x04"
_UTF8_NAME = 0x800  # general-purpose flag bit 11
_ENCRYPTED = 0x1  # bit 0
_COMPRESSED_PATCH = 0x20  # bit 5
_STRONG_ENCRYPTION = 0x40  # bit 6

# The end of central directory record without a comment, and what
# ``_central_directory`` reads of it: the directory's size and offset.
_END_SIZE = 22
_END_SIGNATURE = b"PK\x05\x06"
_END_SIZES = struct.Struct("<LL")
_ZIP64_LOCATOR_SIZE = 20
_ZIP64_LOCATOR_SIGNATURE = b"PK\x06\x07"
# A central directory record up to its name: signature, version needed to
# extract, flags, compression method, CRC-32, both sizes, the lengths of the
# name, extra field and comment, and the local header's offset.
_DIRECTORY_RECORD = struct.Struct("<4s2xB1xHH4xLLLHHH8xL")
_DIRECTORY_SIGNATURE = b"PK\x01\x02"
_EXTRA_HEAD = struct.Struct("<HH")
_ZIP64_EXTRA = 0x0001
_MAX_EXTRACT_VERSION = 63  # zipfile's: ZIP64, bzip2 and LZMA

# One member as ``open_jar`` reads it: its name, with everything from a NUL
# on cut off as ``zipfile`` does, its name as stored, flags, compression
# method, CRC-32, stored and full size, and local header offset.
_Member = tuple[str, str, int, int, int, int, int, int]


def _central_directory(raw: bytes) -> list[_Member]:
    """The members that ``zipfile.ZipFile(...).infolist()`` lists for the
    archive ``raw``, in order, with the errors it raises there.

    An archive whose end record is its last 22 bytes is read here, in one
    pass of ``struct`` over ``raw``, with the checks ``zipfile`` makes:
    signatures and bounds, a walk of the declared directory size rather
    than of the record count, version needed to extract, name decoding,
    a walk of each extra field, and the offset correction for bytes
    prepended to the archive. ``zipfile`` reads the rest: an archive with a
    comment or a ZIP64 end locator, or with a ZIP64 extra field or a NUL in
    a name, where it rewrites the sizes and names."""
    end = len(raw) - _END_SIZE
    locator = end - _ZIP64_LOCATOR_SIZE
    if (
        locator < 0  # zipfile would look for the locator at offset 0
        or raw[end : end + 4] != _END_SIGNATURE
        or raw[-2:] != b"\0\0"  # the comment's length
        or raw[locator : locator + 4] == _ZIP64_LOCATOR_SIGNATURE
    ):
        return _listed_by_zipfile(raw)
    directory_size, directory_offset = _END_SIZES.unpack_from(raw, end + 12)
    start = end - directory_size
    if start < 0:
        raise zipfile.BadZipFile("Bad offset for central directory")
    concat = start - directory_offset
    members: list[_Member] = []
    pos = start
    while pos < end:
        if pos + _DIRECTORY_RECORD.size > end:
            raise zipfile.BadZipFile("Truncated central directory")
        (signature, version, flags, method, crc, packed_size, file_size,
         name_length, extra_length, comment_length, offset) = _DIRECTORY_RECORD.unpack_from(raw, pos)
        if signature != _DIRECTORY_SIGNATURE:
            raise zipfile.BadZipFile("Bad magic number for central directory")
        # A record's fields may run past the directory's declared end, as
        # the last one read; zipfile then reads what is left of them.
        name_start = pos + _DIRECTORY_RECORD.size
        extra_start = name_start + name_length
        name_bytes = raw[name_start : min(extra_start, end)]
        if b"\0" in name_bytes:
            return _listed_by_zipfile(raw)
        name = name_bytes.decode("utf-8" if flags & _UTF8_NAME or name_bytes.isascii() else "cp437")
        if version > _MAX_EXTRACT_VERSION:
            raise NotImplementedError(f"zip file version {version / 10:.1f}")
        field, extra_end = extra_start, min(extra_start + extra_length, end)
        while field + 4 <= extra_end:
            kind, length = _EXTRA_HEAD.unpack_from(raw, field)
            field += 4 + length
            if field > extra_end:
                raise zipfile.BadZipFile(f"Corrupt extra field {kind:04x} (size={length})")
            if kind == _ZIP64_EXTRA:
                return _listed_by_zipfile(raw)
        members.append((name, name, flags, method, crc, packed_size, file_size, offset + concat))
        pos = extra_start + extra_length + comment_length
    return members


def _listed_by_zipfile(raw: bytes) -> list[_Member]:
    """``_central_directory`` of ``raw`` as ``zipfile`` reads it."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        return [
            (info.filename, info.orig_filename, info.flag_bits, info.compress_type, info.CRC,
             info.compress_size, info.file_size, info.header_offset)
            for info in archive.infolist()
        ]


def _entry_data(raw: bytes, member: _Member) -> bytes:
    """The stored bytes of one member of the archive ``raw``, after the checks
    ``zipfile`` makes on its local header, with the same exceptions. They may
    end before the declared compressed size; ``_inflate`` judges that."""
    name, stored_name, flag_bits, _, _, packed_size, _, offset = member
    if offset < 0 or offset + _LOCAL_HEADER.size > len(raw):
        raise zipfile.BadZipFile("Truncated file header")
    signature, flags, name_length, extra_length = _LOCAL_HEADER.unpack_from(raw, offset)
    if signature != _LOCAL_SIGNATURE:
        raise zipfile.BadZipFile("Bad magic number for file header")
    start = offset + _LOCAL_HEADER.size + name_length
    local_name = raw[start - name_length : start]
    if flag_bits & _COMPRESSED_PATCH:
        raise NotImplementedError("compressed patched data (flag bit 5)")
    if flag_bits & _STRONG_ENCRYPTION:
        raise NotImplementedError("strong encryption (flag bit 6)")
    # ASCII reads the same in both encodings, and decodes fastest as UTF-8.
    encoding = "utf-8" if flags & _UTF8_NAME or local_name.isascii() else "cp437"
    try:
        same_name = local_name.decode(encoding) == stored_name
    except UnicodeDecodeError:
        same_name = False
    if not same_name:
        raise zipfile.BadZipFile(
            f"File name in directory {stored_name!r} and header {local_name!r} differ."
        )
    if flag_bits & _ENCRYPTED:
        raise RuntimeError(f"File {name!r} is encrypted, password required for extraction")
    start += extra_length
    return raw[start : start + packed_size]


def _inflate(packed: bytes, member: _Member) -> bytes:
    """The content of a member from its stored bytes ``packed``, read as
    ``zipfile`` reads a member, with its size and CRC-32 checks."""
    name, _, _, method, crc, packed_size, size, _ = member
    # As in zipfile, data that the file cuts short is an EOFError unless what
    # is there already yields the declared size or ends the deflate stream.
    if packed_size and not packed:
        raise EOFError
    if method == zipfile.ZIP_STORED:
        if len(packed) < min(packed_size, size):
            raise EOFError
        data = packed[:size]
    elif method == zipfile.ZIP_DEFLATED:
        inflater = zlib.decompressobj(-15)
        # At most the declared size is inflated; zlib reads a limit of 0 as
        # none, and takes none over sys.maxsize, which a ZIP64 size can be.
        data = inflater.decompress(packed, min(size, sys.maxsize) or 1)[:size]
        if len(data) < size:
            if not inflater.eof and len(packed) < packed_size:
                raise EOFError
            data += inflater.flush()
    else:
        raise NotImplementedError(f"compression type {method}")
    if zlib.crc32(data) != crc:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {name!r}")
    return data


# What reading the central directory raises, whoever reads it: a damaged
# directory or end record (BadZipFile), a version needed to extract that
# zipfile does not implement (NotImplementedError), a UTF-8-flagged name
# that is not UTF-8 (UnicodeDecodeError, a ValueError); and what reading the
# file raises (OSError).
_UNREADABLE_DIRECTORY = (zipfile.BadZipFile, NotImplementedError, ValueError, OSError)

# What reading one entry of an opened archive raises: a bad CRC-32 or local
# header (BadZipFile), a corrupt deflate stream (zlib.error), data that ends
# before its declared size (EOFError), an unsupported compression method
# (NotImplementedError), or encryption (RuntimeError).
_DAMAGED_ENTRY = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError)


# A parse memo's key for one archive member: its compression method, both
# sizes and CRC-32 from the central directory, and its stored bytes. What
# ``_inflate`` yields and whether its checks pass depend on nothing else.
# A parse is also kept under the key its class would have if STORED, so the
# same class compressed another way shares it.
EntryKey = tuple[int, int, int, int, bytes]


def open_jar(
    source: str | Path | BinaryIO, parsed: dict[EntryKey, RawClass] | None = None
) -> JarContent:
    """Read a JAR, parsing every ``*.class`` entry but ``module-info.class``.

    The archive is read once; its bytes are held only while it is opened.
    Entry-level failures are recorded, not fatal: a damaged ZIP entry in
    ``damaged_entries`` (see ``JarContent.require_intact``), a malformed
    class in ``parse_failures``. Other entries are skipped. ``parsed``
    maps the ``EntryKey`` of every entry that passed all checks and parsed,
    and the key of its class as a STORED entry, to its parse. An entry
    whose key it holds is checked up to its local header and is then
    neither inflated nor parsed again; an entry whose class it holds under
    the STORED key is inflated and checked but not parsed again. Every new
    parse is added to it, so JARs opened with one dict share the
    ``RawClass`` of identical class files, however each JAR stores them.
    """
    try:
        raw = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
        members = _central_directory(raw)
    except _UNREADABLE_DIRECTORY as exc:
        raise NotAZip(f"{source}: {exc}") from exc

    parsed = {} if parsed is None else parsed
    content = JarContent(
        source=str(source) if isinstance(source, (str, Path)) else "",
        sha256=sha256(raw).hexdigest(),
    )
    for member in members:
        name, _, _, method, crc, packed_size, size, _ = member
        if not name.endswith(".class") or name.endswith("module-info.class"):
            continue
        try:
            packed = _entry_data(raw, member)
            # Matched on the whole stored bytes: the directory's CRC and
            # sizes could collide.
            key = (method, packed_size, size, crc, packed)
            cls = parsed.get(key)
            if cls is None:
                data = _inflate(packed, member)
        except _DAMAGED_ENTRY as exc:
            content.damaged_entries.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        if cls is None:
            plain = (zipfile.ZIP_STORED, len(data), len(data), crc, data)
            cls = parsed.get(plain)
            if cls is None:
                try:
                    cls = parse_class(data)
                except ClassFormatError as exc:
                    content.parse_failures.append((name, f"{type(exc).__name__}: {exc}"))
                    continue
                parsed[plain] = cls
            parsed[key] = cls
        content.entries.append((name, cls))
    return content
