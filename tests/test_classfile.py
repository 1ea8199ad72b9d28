"""Class-file parser, JAR reader, and fixture-writer tests."""

from __future__ import annotations

import io
import math
import struct
import zipfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_entry, jar_content
from jarcompat.classfile import (
    ACC_ABSTRACT,
    ACC_FINAL,
    ACC_INTERFACE,
    ACC_PUBLIC,
    ACC_STATIC,
    AUTO_SOURCE,
    BadMagic,
    ClassFormatError,
    ClassSpec,
    FieldSpec,
    MemberRef,
    MethodSpec,
    NotAZip,
    TruncatedClass,
    UnknownVersion,
    UnsupportedConstruct,
    java_release_of,
    open_jar,
    parse_class,
    write_class,
)
from jarcompat.classfile import parser
from jarcompat.classfile.parser import _parse_constant_pool, _Reader


def test_bad_magic():
    with pytest.raises(BadMagic):
        parse_class(b"\x00\x00\x00\x00" + b"\x00" * 32)


def test_truncated_class():
    good = write_class(ClassSpec("p.A"))
    with pytest.raises(TruncatedClass):
        parse_class(good[:10])


def test_interface_round_trip():
    spec = ClassSpec(
        "demo.Foo",
        kind="interface",
        methods=(MethodSpec("m", "()V", is_abstract=True),),
    )
    cls = parse_class(write_class(spec))
    assert cls.this_name == "demo.Foo"
    assert cls.access_flags & ACC_INTERFACE
    assert cls.access_flags & ACC_ABSTRACT
    assert len(cls.methods) == 1
    assert cls.methods[0].name == "m"
    assert cls.methods[0].access_flags & ACC_ABSTRACT


def test_public_final_flags_round_trip():
    cls = parse_class(write_class(ClassSpec("p.A", is_final=True)))
    assert cls.access_flags & ACC_PUBLIC
    assert cls.access_flags & ACC_FINAL


def test_source_file_attribute():
    spec = ClassSpec("web.Request", source_file="Request.java")
    assert parse_class(write_class(spec)).source_file == "Request.java"
    auto = ClassSpec("web.Request")
    assert auto.source_file == AUTO_SOURCE
    assert parse_class(write_class(auto)).source_file == "Request.java"
    none = ClassSpec("web.Request", source_file=None)
    assert parse_class(write_class(none)).source_file is None


def test_annotations_and_exceptions_round_trip():
    spec = ClassSpec(
        "p.A",
        annotations=("com.google.common.annotations.Beta",),
        methods=(
            MethodSpec(
                "m",
                "()V",
                annotations=("org.apache.Internal",),
                exceptions=("java.io.IOException", "p.MyError"),
            ),
        ),
        fields=(FieldSpec("f", "I", annotations=("p.Marker",)),),
    )
    cls = parse_class(write_class(spec))
    assert cls.annotations == ("com.google.common.annotations.Beta",)
    assert cls.methods[0].annotations == ("org.apache.Internal",)
    assert cls.methods[0].declared_exceptions == ("java.io.IOException", "p.MyError")
    assert cls.fields[0].annotations == ("p.Marker",)


def test_constant_value_round_trip():
    spec = ClassSpec(
        "p.A",
        fields=(
            FieldSpec("i", "I", is_static=True, is_final=True, constant=42),
            FieldSpec("j", "J", is_static=True, is_final=True, constant=1 << 40),
            FieldSpec("s", "Ljava/lang/String;", is_static=True, is_final=True, constant="hi"),
            FieldSpec("d", "D", is_static=True, is_final=True, constant=2.5),
        ),
    )
    cls = parse_class(write_class(spec))
    values = {f.name: f.constant_value for f in cls.fields}
    assert values == {"i": 42, "j": 1 << 40, "s": "hi", "d": 2.5}


def test_signed_zero_constants_keep_their_sign_through_a_jar():
    def constant(name: str, descriptor: str, value: float) -> FieldSpec:
        return FieldSpec(name, descriptor, is_static=True, is_final=True, constant=value)

    spec = ClassSpec(
        "p.Zeros",
        fields=(
            constant("d", "D", 0.0),
            constant("nd", "D", -0.0),
            constant("f", "F", 0.0),
            constant("nf", "F", -0.0),
        ),
    )
    [(_, cls)] = jar_content([spec]).entries
    signs = {f.name: (f.constant_value, math.copysign(1.0, f.constant_value)) for f in cls.fields}
    assert signs == {"d": (0.0, 1.0), "nd": (0.0, -1.0), "f": (0.0, 1.0), "nf": (0.0, -1.0)}


def test_body_reference_extraction():
    spec = ClassSpec(
        "p.C",
        methods=(
            MethodSpec(
                "run",
                "()V",
                calls=(("p.A", "m", "()V"), ("p.A", "<init>", "()V")),
                interface_calls=(("p.I", "x", "()V"),),
                field_reads=(("p.A", "f", "I"),),
                field_writes=(("p.A", "g", "I"),),
                type_refs=("p.Q",),
            ),
        ),
    )
    member = parse_class(write_class(spec)).methods[0]
    assert MemberRef("p.A", "m", "()V") in member.invoked_methods
    assert MemberRef("p.A", "<init>", "()V") in member.invoked_methods
    assert MemberRef("p.I", "x", "()V") in member.invoked_methods
    assert MemberRef("p.A", "f", "I") in member.accessed_fields
    assert MemberRef("p.A", "g", "I") in member.accessed_fields
    assert "p.Q" in member.referenced_types


def test_default_method_flag():
    iface = ClassSpec(
        "p.I",
        kind="interface",
        methods=(MethodSpec("d", "()V"), MethodSpec("a", "()V", is_abstract=True)),
    )
    cls = parse_class(write_class(iface))
    by_name = {m.name: m for m in cls.methods}
    assert by_name["d"].is_default_method
    assert not by_name["a"].is_default_method
    # Concrete methods on classes are never "default".
    conc = parse_class(write_class(ClassSpec("p.C", methods=(MethodSpec("d", "()V"),))))
    assert not conc.methods[0].is_default_method


def test_enum_and_annotation_kinds():
    enum_cls = parse_class(write_class(ClassSpec("p.E", kind="enum")))
    assert enum_cls.super_name == "java.lang.Enum"
    anno_cls = parse_class(write_class(ClassSpec("p.Ann", kind="annotation")))
    assert "java.lang.annotation.Annotation" in anno_cls.interfaces


def test_writer_rejects_bad_input():
    with pytest.raises(UnsupportedConstruct):
        write_class(ClassSpec("p.A", kind="module"))
    with pytest.raises(UnsupportedConstruct):
        write_class(ClassSpec("p.A", is_abstract=True, is_final=True))
    with pytest.raises(UnsupportedConstruct):
        write_class(ClassSpec("p.A", methods=(MethodSpec("m", "(X)V"),)))
    with pytest.raises(UnsupportedConstruct):
        write_class(ClassSpec("p.A", methods=(MethodSpec("m", "()V", is_abstract=True),)))


def test_java_release_mapping():
    assert java_release_of(52) == 8
    assert java_release_of(45) == 1
    assert java_release_of(53) == 9
    assert java_release_of(54) == 10
    with pytest.raises(UnknownVersion):
        java_release_of(44)


def test_java_release_strictly_monotone():
    releases = [java_release_of(major) for major in range(45, 70)]
    assert releases == sorted(set(releases))


def test_open_jar_empty():
    content = jar_content([])
    assert content.entries == []
    assert content.detected_languages == set()


def test_open_jar_counts_and_languages():
    content = jar_content(
        [ClassSpec("p.A"), ClassSpec("p.B")],
        extra={"META-INF/MANIFEST.MF": b"Manifest-Version: 1.0\n"},
    )
    assert len(content.entries) == 2
    assert content.non_class_entries == 1
    assert content.detected_languages == {"java"}


def test_open_jar_scala_tag():
    content = jar_content([ClassSpec("p.A", source_file="Foo.scala")])
    assert "scala" in content.detected_languages


def test_open_jar_missing_source_is_unknown():
    content = jar_content([ClassSpec("p.A", source_file=None)])
    assert content.detected_languages == {"unknown"}


def test_open_jar_not_a_zip(tmp_path):
    path = tmp_path / "not.jar"
    path.write_bytes(b"garbage")
    with pytest.raises(NotAZip):
        open_jar(path)


def test_open_jar_records_parse_failures():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("p/Bad.class", b"\x00\x01\x02\x03")
        archive.writestr("p/Good.class", write_class(ClassSpec("p.Good")))
    content = open_jar(io.BytesIO(buffer.getvalue()))
    assert len(content.entries) == 1
    assert len(content.parse_failures) == 1
    assert "BadMagic" in content.parse_failures[0][1]


def test_open_jar_skips_module_info():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("module-info.class", b"\xca\xfe\xba\xbe junk")
        archive.writestr("p/Good.class", write_class(ClassSpec("p.Good")))
    content = open_jar(io.BytesIO(buffer.getvalue()))
    assert len(content.entries) == 1
    assert content.non_class_entries == 1


def test_max_java_release():
    content = jar_content([ClassSpec("p.A", major_version=52), ClassSpec("p.B", major_version=50)])
    assert content.max_java_release() == 8
    newer = jar_content([ClassSpec("p.A", major_version=53)])
    assert newer.max_java_release() == 9


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_parse_class_never_crashes_on_fuzz(data):
    try:
        parse_class(data)
    except ClassFormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_parse_class_fuzz_with_valid_prefix(suffix):
    base = write_class(ClassSpec("p.A", methods=(MethodSpec("m"),)))
    try:
        parse_class(base[: len(base) // 2] + suffix)
    except ClassFormatError:
        pass


def _rich_class() -> bytes:
    """A class with constants of every type, annotations, exceptions, a method body and an inner-class record."""
    def constant(name: str, descriptor: str, value) -> FieldSpec:
        return FieldSpec(name, descriptor, is_static=True, is_final=True, constant=value)

    return write_class(
        ClassSpec(
            "p.Outer$Rich",
            super_name="p.Base",
            interfaces=("p.I",),
            annotations=("p.Marker",),
            inner_classes=(("p.Outer$Rich", "p.Outer", "Rich", ACC_STATIC),),
            fields=(
                constant("i", "I", 42),
                constant("j", "J", 1 << 40),
                constant("f", "F", 1.5),
                constant("d", "D", -2.5),
                constant("s", "Ljava/lang/String;", "hi"),
                FieldSpec("g", "Ljava/util/List;", annotations=("p.Marker",)),
            ),
            methods=(
                MethodSpec(
                    "run",
                    "(I)V",
                    exceptions=("java.io.IOException",),
                    annotations=("p.Marker",),
                    calls=(("p.A", "m", "()V"),),
                    interface_calls=(("p.I", "x", "()V"),),
                    field_reads=(("p.A", "f", "I"),),
                    field_writes=(("p.A", "g", "I"),),
                    type_refs=("p.Q",),
                ),
            ),
        )
    )


def test_every_proper_prefix_is_a_class_format_error():
    data = _rich_class()
    assert parse_class(data).this_name == "p.Outer$Rich"
    for end in range(len(data)):
        # pytest.raises lets struct.error or IndexError through, failing the test.
        with pytest.raises(ClassFormatError):
            parse_class(data[:end])


def test_short_constant_value_attribute_is_a_class_format_error():
    data = write_class(
        ClassSpec("p.A", fields=(FieldSpec("i", "I", is_static=True, is_final=True, constant=42),))
    )
    pool = _parse_constant_pool(_Reader(data[8:]))  # after magic and version
    name_index = pool.entries.index((1, "ConstantValue"))
    attribute = data.index(struct.pack(">HI", name_index, 2))
    # Declare the attribute one byte long and drop its last byte, so the rest still lines up.
    short = (
        data[:attribute] + struct.pack(">HI", name_index, 1)
        + data[attribute + 6 : attribute + 7] + data[attribute + 8 :]
    )
    with pytest.raises(TruncatedClass):
        parse_class(short)


def test_inner_class_records_round_trip():
    spec = ClassSpec(
        "p.Outer$Inner",
        inner_classes=(("p.Outer$Inner", "p.Outer", "Inner", ACC_STATIC | 0x0002),),
    )
    cls = parse_class(write_class(spec))
    assert cls.inner_class_records[0].inner_name == "p.Outer$Inner"
    assert cls.inner_class_records[0].outer_name == "p.Outer"
    assert cls.inner_class_records[0].access_flags == ACC_STATIC | 0x0002


def _two_class_jar(compression: int) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        archive.writestr("p/B.class", write_class(ClassSpec("p.B")))
        archive.writestr("p/A.class", write_class(ClassSpec("p.A")))
    return buffer.getvalue()


def _patch_directory(jar: bytes, name: str, offset: int, value: int) -> bytes:
    """``jar`` with the 16-bit field at ``offset`` of ``name``'s central directory record set."""
    record = jar.index(b"PK\x01\x02")
    while jar[record + 46 : record + 46 + len(name)] != name.encode():
        record = jar.index(b"PK\x01\x02", record + 4)
    return jar[: record + offset] + struct.pack("<H", value) + jar[record + offset + 2 :]


def _cut_short(jar: bytes) -> bytes:
    """``jar`` with p/A.class, its last entry, moved behind the end record and cut
    to half its data, so that the file ends before the entry's declared size."""
    archive = zipfile.ZipFile(io.BytesIO(jar))
    info = archive.getinfo("p/A.class")
    start = info.header_offset
    directory = jar[archive.start_dir : jar.rindex(b"PK\x05\x06")]
    record = directory.rindex(b"PK\x01\x02")
    directory = (
        directory[: record + 42]
        + struct.pack("<I", start + len(directory) + 22)
        + directory[record + 46 :]
    )
    end = struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 2, 2, len(directory), start, 0)
    cut = start + 30 + len(info.filename) + info.compress_size // 2
    return jar[:start] + directory + end + jar[start:cut]


@pytest.mark.parametrize(
    "damage, reasons",
    [
        (lambda: damage_entry(_two_class_jar(zipfile.ZIP_STORED), "p/A.class"),
         ("BadZipFile: Bad CRC-32",)),
        (lambda: damage_entry(_two_class_jar(zipfile.ZIP_DEFLATED), "p/A.class"),
         ("error: Error -3",)),
        # Compression method 99 (AES), which zipfile does not implement.
        (lambda: _patch_directory(_two_class_jar(zipfile.ZIP_STORED), "p/A.class", 10, 99),
         ("NotImplementedError",)),
        # General-purpose flag bit 0: encrypted.
        (lambda: _patch_directory(_two_class_jar(zipfile.ZIP_STORED), "p/A.class", 8, 1),
         ("RuntimeError",)),
        # Newer zipfile releases refuse an entry that reaches past the central
        # directory as overlapped before reading it.
        (lambda: _cut_short(_two_class_jar(zipfile.ZIP_DEFLATED)),
         ("EOFError", "BadZipFile: Overlapped")),
    ],
    ids=["bad-crc", "corrupt-deflate", "unknown-method", "encrypted", "truncated-deflate"],
)
def test_open_jar_records_damaged_entry(damage, reasons):
    content = open_jar(io.BytesIO(damage()))
    assert [name for name, _ in content.entries] == ["p/B.class"]
    assert content.parse_failures == content.damaged_entries
    [(name, failure)] = content.damaged_entries
    assert name == "p/A.class" and failure.startswith(reasons)
    with pytest.raises(NotAZip, match="damaged entry p/A.class"):
        content.require_intact()


def test_require_intact_passes_a_class_that_does_not_parse():
    content = jar_content([ClassSpec("p.B")], extra={"p/Bad.class": b"\x00\x01\x02\x03"})
    assert len(content.parse_failures) == 1 and not content.damaged_entries
    assert content.require_intact() is content


def test_require_complete_rejects_a_class_that_does_not_parse():
    content = jar_content([ClassSpec("p.B")], extra={"p/Bad.class": b"\x00\x01\x02\x03"})
    with pytest.raises(ClassFormatError, match="p/Bad.class does not parse: BadMagic"):
        content.require_complete()
    assert jar_content([ClassSpec("p.B")]).require_complete().classes()[0].this_name == "p.B"


def test_open_jar_memo_parses_each_distinct_class_once(monkeypatch):
    calls = []

    def counting_parse(data):
        calls.append(data)
        return parse_class(data)

    monkeypatch.setattr(parser, "parse_class", counting_parse)
    shared = write_class(ClassSpec("p.A"))

    def jar(b_methods):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("p/A.class", shared)
            archive.writestr("p/B.class", write_class(ClassSpec("p.B", methods=b_methods)))
            archive.writestr("p/Bad.class", b"\x00\x01\x02\x03")
        return io.BytesIO(buffer.getvalue())

    parsed: dict = {}
    v1 = open_jar(jar(()), parsed)
    v2 = open_jar(jar((MethodSpec("m"),)), parsed)
    assert v1.entries[0][1] is v2.entries[0][1]
    assert v1.entries[1][1] != v2.entries[1][1]
    # A failed parse is not remembered: it is tried and recorded again.
    assert len(v1.parse_failures) == len(v2.parse_failures) == 1
    assert len(calls) == 5 and calls.count(shared) == 1
    assert len(parsed) == 3


def _force_crc32(data: bytes, window: int, crc: int) -> bytes:
    """``data`` with the 4 bytes at ``window`` rewritten so that its CRC-32 is ``crc``.

    Over messages of one length, CRC-32 is affine in the message bits, so
    the flips of the window's 32 bits are solved for over GF(2).
    """
    def flip(buffer: bytearray, bit: int) -> None:
        buffer[window + bit // 8] ^= 0x80 >> (bit % 8)

    basis: list[tuple[int, int]] = []  # (effect on the CRC, bits flipped), highest effect first
    for bit in range(32):
        flipped = bytearray(data)
        flip(flipped, bit)
        effect, bits = zlib.crc32(flipped) ^ zlib.crc32(data), 1 << bit
        for row_effect, row_bits in basis:
            if effect ^ row_effect < effect:
                effect, bits = effect ^ row_effect, bits ^ row_bits
        basis = sorted([*basis, (effect, bits)], reverse=True)
    wanted, bits = crc ^ zlib.crc32(data), 0
    for row_effect, row_bits in basis:
        if wanted ^ row_effect < wanted:
            wanted, bits = wanted ^ row_effect, bits ^ row_bits
    assert wanted == 0
    out = bytearray(data)
    for bit in range(32):
        if bits >> bit & 1:
            flip(out, bit)
    return bytes(out)


def test_open_jar_memo_matches_whole_bytes_not_crc():
    # Two class files of one size and one CRC-32 whose constants differ: the
    # ZIP directory cannot tell them apart, the memo must.
    def with_constants(a: int, b: int) -> bytes:
        return write_class(ClassSpec("p.K", fields=(
            FieldSpec("A", "I", is_static=True, is_final=True, constant=a),
            FieldSpec("B", "I", is_static=True, is_final=True, constant=b),
        )))

    first = with_constants(0x11111111, 0x22222222)
    second = with_constants(0x33333333, 0x22222222)
    window = second.index(struct.pack(">BI", 3, 0x22222222)) + 1  # B's CONSTANT_Integer
    second = _force_crc32(second, window, zlib.crc32(first))
    assert len(first) == len(second) and zlib.crc32(first) == zlib.crc32(second)

    parsed: dict = {}
    constants = []
    for data in (first, second):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("p/K.class", data)
        content = open_jar(io.BytesIO(buffer.getvalue()), parsed)
        constants.append([f.constant_value for f in content.entries[0][1].fields])
    assert constants[0] == [0x11111111, 0x22222222]
    assert constants[1][0] == 0x33333333
    assert len(parsed) == 2
