"""Class-file parser, JAR reader, and fixture-writer tests."""

from __future__ import annotations

import hashlib
import io
import math
import struct
import zipfile
import zlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import damage_entry, jar_bytes, jar_content, misfile_entry
from jarcompat.apimodel import build_model
from jarcompat.classfile import (
    ACC_ABSTRACT,
    ACC_FINAL,
    ACC_INTERFACE,
    ACC_NATIVE,
    ACC_PRIVATE,
    ACC_PROTECTED,
    ACC_PUBLIC,
    ACC_STATIC,
    ACC_STRICT,
    AUTO_SOURCE,
    BadMagic,
    ClassFormatError,
    ClassSpec,
    DescriptorError,
    FieldSpec,
    MalformedConstantPool,
    MemberRef,
    MethodSpec,
    NotAZip,
    TruncatedClass,
    UnknownVersion,
    UnsupportedConstruct,
    java_release_of,
    language_of_source,
    open_jar,
    parse_class,
    sha256,
    validate_descriptor,
    write_class,
)
from jarcompat.classfile import parser
from jarcompat.delta import compute_delta
from test_delta import _SKELETON, _type_spec


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


def test_a_dot_in_a_member_name_or_descriptor_is_a_class_format_error():
    # A member reference's owner ends at its last ".", which is exact only
    # while no member name (JVMS 4.2.2) or descriptor (4.3.2) holds one.
    with pytest.raises(DescriptorError):
        validate_descriptor("(Lq.X;)V")
    data = write_class(ClassSpec("p.A", fields=(FieldSpec("f_g", "Lq/X;"),)))
    parse_class(data)
    for written, dotted in ((b"Lq/X;", b"Lq.X;"), (b"f_g", b"f.g")):
        assert data.count(written) == 1
        with pytest.raises(MalformedConstantPool):
            parse_class(data.replace(written, dotted))


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
    assert content.entries == content.parse_failures == content.damaged_entries == []


@given(
    st.one_of(
        st.binary(max_size=300),
        # Past 64 KiB: a drawn block repeated, then a drawn tail.
        st.builds(
            lambda block, tail: block * ((1 << 16) // len(block) + 1) + tail,
            st.binary(min_size=1, max_size=200),
            st.binary(max_size=200),
        ),
    )
)
@example(b"")
@settings(max_examples=60, deadline=None)
def test_sha256_matches_hashlib(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_open_jar_counts_and_languages():
    content = jar_content(
        [ClassSpec("p.A"), ClassSpec("p.B")],
        extra={"META-INF/MANIFEST.MF": b"Manifest-Version: 1.0\n"},
    )
    assert [name for name, _ in content.entries] == ["p/A.class", "p/B.class"]
    assert [language_of_source(cls.source_file) for cls in content.classes()] == ["java", "java"]


def test_open_jar_scala_tag():
    content = jar_content([ClassSpec("p.A", source_file="Foo.scala")])
    assert [language_of_source(cls.source_file) for cls in content.classes()] == ["scala"]


def test_open_jar_missing_source_is_unknown():
    content = jar_content([ClassSpec("p.A", source_file=None)])
    assert [cls.source_file for cls in content.classes()] == [None]
    assert language_of_source(None) == "unknown"


@pytest.mark.parametrize("source_file, language", [
    ("Foo.java", "java"), ("Foo.JAVA", "java"), ("Foo.scala", "scala"), ("Foo.kt", "kotlin"),
    ("build.kts", "kotlin"), ("Foo.groovy", "groovy"), ("core.clj", "clojure"),
    ("Foo.txt", "unknown"), ("Foo", "unknown"), (None, "unknown"),
])
def test_language_of_source(source_file, language):
    assert language_of_source(source_file) == language


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
    assert len(content.parse_failures) == 1 and not content.damaged_entries
    assert "BadMagic" in content.parse_failures[0][1]


def test_open_jar_skips_module_info():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("module-info.class", b"\xca\xfe\xba\xbe junk")
        archive.writestr("p/Good.class", write_class(ClassSpec("p.Good")))
    content = open_jar(io.BytesIO(buffer.getvalue()))
    # The junk module-info.class would be a parse failure had it been read.
    assert [name for name, _ in content.entries] == ["p/Good.class"]
    assert content.parse_failures == content.damaged_entries == []


def test_max_java_release():
    content = jar_content([ClassSpec("p.A", major_version=52), ClassSpec("p.B", major_version=50)])
    assert java_release_of(max(cls.major_version for cls in content.classes())) == 8
    newer = jar_content([ClassSpec("p.A", major_version=53)])
    assert java_release_of(max(cls.major_version for cls in newer.classes())) == 9


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


def test_every_single_byte_change_parses_or_is_a_class_format_error():
    data = _rich_class()
    for pos in range(len(data)):
        for value in (data[pos] ^ 0xFF, (data[pos] + 1) & 0xFF):
            # Any other exception escapes and fails the test.
            try:
                parse_class(data[:pos] + bytes((value,)) + data[pos + 1 :])
            except ClassFormatError:
                pass


def test_deeply_nested_annotation_values_parse():
    data = write_class(ClassSpec("p.A", annotations=("p.Marker",), source_file=None))
    # The class ends with its one attribute, RuntimeVisibleAnnotations, holding
    # one annotation without element pairs: give it one pair whose value is
    # arrays nested 5,000 deep around a boolean.
    name_index, length, count, type_index, pairs = struct.unpack_from(">HIHHH", data, len(data) - 12)
    assert (length, count, pairs) == (6, 1, 0)
    value = b"[\x00\x01" * 5000 + b"Z\x00\x01"
    payload = struct.pack(">HHHH", 1, type_index, 1, type_index) + value
    nested = data[:-12] + struct.pack(">HI", name_index, len(payload)) + payload
    assert parse_class(nested).annotations == ("p.Marker",)


def _with_code(data: bytes, body: int, code: bytes) -> bytes:
    """``data`` with the Code attribute whose body starts at ``body`` holding
    ``code`` instead, its attribute and code lengths fixed up."""
    (length,) = struct.unpack_from(">I", data, body - 4)
    payload = struct.pack(">HHI", 8, 8, len(code)) + code + struct.pack(">HH", 0, 0)
    return data[: body - 4] + struct.pack(">I", len(payload)) + payload + data[body + length :]


def _switch_at(offset: int, opcode: int) -> bytes:
    """``offset`` nops, then a tableswitch (0xAA) or lookupswitch (0xAB) whose
    operands start at the next multiple of four from the start of the code."""
    code = b"\x00" * offset + bytes((opcode,)) + b"\x00" * (-(offset + 1) % 4)
    if opcode == 0xAA:  # default, low, high, then high - low + 1 jump offsets
        return code + struct.pack(">5i", 0x7F, 0, 1, 0x7F, 0x7F)
    return code + struct.pack(">4i", 0x7F, 1, 5, 0x7F)  # default, one (match, offset) pair


def test_switch_padding_counts_from_the_start_of_the_code():
    call = MemberRef("p.Lib", "run", "()V")
    code_alignments = set()
    # Names of four lengths put the code array at every offset mod 4 in the class file.
    for name in ("p.A", "p.AB", "p.ABC", "p.ABCD"):
        data = write_class(ClassSpec(name, source_file=None, methods=(MethodSpec("m", calls=(call,)),)))
        body = data.index(struct.pack(">HHI", 8, 8, 4) + b"\xb6")  # invokevirtual; return
        code_alignments.add((body + 8) % 4)
        invoke = data[body + 8 : body + 11]
        for offset in range(4):
            for opcode in (0xAA, 0xAB):
                cls = parse_class(_with_code(data, body, _switch_at(offset, opcode) + invoke + b"\xb1"))
                assert cls.methods[0].invoked_methods == (call,), (name, offset, hex(opcode))
    assert code_alignments == {0, 1, 2, 3}


def test_short_constant_value_attribute_is_a_class_format_error():
    data = write_class(ClassSpec(
        "p.A",
        fields=(FieldSpec("i", "I", is_static=True, is_final=True, constant=42),),
        source_file=None,
    ))
    # The class ends with the field's one attribute, the method count and the
    # attribute count, so its ConstantValue attribute starts 12 bytes from the end.
    attribute = len(data) - 12
    name_index, length = struct.unpack_from(">HI", data, attribute)
    assert length == 2 and b"\x01\x00\x0dConstantValue" in data
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
    # A damaged entry is not also a class that did not parse.
    assert content.parse_failures == []
    [(name, failure)] = content.damaged_entries
    assert name == "p/A.class" and failure.startswith(reasons)
    with pytest.raises(NotAZip, match="damaged entry p/A.class"):
        content.require_intact()


class _Unseekable(io.RawIOBase):
    """A write-only stream that cannot tell or seek, so zipfile writes each
    entry's sizes and CRC-32 in a data descriptor after its data."""

    def __init__(self) -> None:
        self.written = io.BytesIO()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        return self.written.write(data)


def _mixed_jar(data_descriptors: bool) -> bytes:
    """Stored and deflated class entries, two with a local extra field (the
    JAR marker 0xCAFE) and one with a UTF-8-flagged name."""
    sink = _Unseekable() if data_descriptors else io.BytesIO()
    entries = [
        ("p/Café.class", zipfile.ZIP_DEFLATED, b"\xfe\xca\x00\x00"),
        ("p/B.class", zipfile.ZIP_STORED, b""),
        ("p/C.class", zipfile.ZIP_DEFLATED, b""),
        ("p/D.class", zipfile.ZIP_STORED, b"\xfe\xca\x00\x00"),
    ]
    with zipfile.ZipFile(sink, "w") as archive:
        for name, compression, extra in entries:
            info = zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0))
            info.compress_type = compression
            info.extra = extra
            spec = ClassSpec("p." + name[2:-6], methods=(MethodSpec("m", calls=(("p.B", "m", "()V"),)),))
            archive.writestr(info, write_class(spec))
    jar = (sink.written if data_descriptors else sink).getvalue()
    flags = [info.flag_bits for info in zipfile.ZipFile(io.BytesIO(jar)).infolist()]
    assert [bool(flag & 0x8) for flag in flags] == [data_descriptors] * 4
    assert flags[0] & 0x800 and not flags[1] & 0x800
    return jar


def _read_by_zipfile(jar: bytes) -> dict[str, bytes | None]:
    """Each entry's bytes as ``zipfile.ZipFile.read`` reads them, None where it refuses."""
    archive = zipfile.ZipFile(io.BytesIO(jar))
    out: dict[str, bytes | None] = {}
    for info in archive.infolist():
        try:
            out[info.filename] = archive.read(info)
        # A name whose UTF-8 flag is wrong fails to decode.
        except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError,
                UnicodeDecodeError):
            out[info.filename] = None
    return out


@pytest.fixture
def read_by_open_jar(monkeypatch):
    """Each class entry's bytes as ``open_jar`` reads them, None for an entry it
    reports damaged. The test JARs hold no two entries with equal bytes, so
    every entry read reaches ``parse_class``."""
    delivered: list[bytes] = []

    def recording_parse(data):
        delivered.append(data)
        return parse_class(data)

    monkeypatch.setattr(parser, "parse_class", recording_parse)

    def read(jar: bytes) -> dict[str, bytes | None]:
        delivered.clear()
        content = open_jar(io.BytesIO(jar))
        damaged = {name for name, _ in content.damaged_entries}
        read_in_order = iter(delivered)
        return {
            info.filename: None if info.filename in damaged else next(read_in_order)
            for info in zipfile.ZipFile(io.BytesIO(jar)).infolist()
        }

    return read


@pytest.mark.parametrize("data_descriptors", [False, True], ids=["sized", "data-descriptor"])
def test_open_jar_reads_entries_as_zipfile_does(data_descriptors, read_by_open_jar):
    jar = _mixed_jar(data_descriptors)
    expected = _read_by_zipfile(jar)
    assert None not in expected.values()
    assert read_by_open_jar(jar) == expected


@pytest.mark.parametrize("data_descriptors", [False, True], ids=["sized", "data-descriptor"])
def test_open_jar_agrees_with_zipfile_on_every_changed_local_header_byte(
    data_descriptors, read_by_open_jar
):
    jar = _mixed_jar(data_descriptors)
    intact = _read_by_zipfile(jar)
    for info in zipfile.ZipFile(io.BytesIO(jar)).infolist():
        name_length, extra_length = struct.unpack_from("<HH", jar, info.header_offset + 26)
        data_start = info.header_offset + 30 + name_length + extra_length
        refused = 0
        # The local header, then the first data bytes.
        for pos in range(info.header_offset, data_start + 8):
            for flip in (0xFF, 0x01):
                changed = jar[:pos] + bytes((jar[pos] ^ flip,)) + jar[pos + 1 :]
                expected = _read_by_zipfile(changed)
                # Only the changed entry may differ from the intact JAR.
                assert {k: v for k, v in expected.items() if k != info.filename} == {
                    k: v for k, v in intact.items() if k != info.filename
                }
                assert read_by_open_jar(changed) == expected, (info.filename, pos, flip)
                refused += expected[info.filename] is None
        assert refused


# A cp437 name: zipfile writes every non-ASCII name as UTF-8, so the entry
# is written under a placeholder of the same length, which is then replaced.
_CP437_NAME, _CP437_PLACEHOLDER = "p/Ça.class", "p/Xa.class"
_VARIATIONS = ("comment", "prefix", "directory", "cafe", "force_zip64", "zip64_extra", "zip64_end")


def _variant_jar(variations: set[str]) -> bytes:
    """A JAR with a UTF-8 and a cp437 name and deflated and stored entries,
    and each of ``variations``: an archive ``comment``, bytes before the
    archive (``prefix``), a ``directory`` entry, the 0xCAFE extra field that
    the JDK jar tool writes on the first entry (``cafe``), an entry written
    with ``force_zip64=True``, an entry whose directory record keeps its
    size in a ZIP64 extra field (``zip64_extra``), as for a member over
    4 GiB, and a ZIP64 end record and locator before the end record
    (``zip64_end``), as for an archive of over 65,535 entries."""
    buffer = io.BytesIO()
    z_size = len(write_class(ClassSpec("p.C2")))
    with zipfile.ZipFile(buffer, "w") as archive:
        if "directory" in variations:
            archive.writestr("p/", b"")
        entries = [
            ("p/Café.class", zipfile.ZIP_DEFLATED, b"\xfe\xca\x00\x00" if "cafe" in variations else b""),
            (_CP437_PLACEHOLDER, zipfile.ZIP_STORED, b""),
            ("p/Z.class", zipfile.ZIP_DEFLATED,
             struct.pack("<HHQ", 1, 8, z_size) if "zip64_extra" in variations else b""),
        ]
        for index, (name, compression, extra) in enumerate(entries):
            info = zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0))
            info.compress_type = compression
            info.extra = extra
            archive.writestr(info, write_class(ClassSpec(f"p.C{index}")))
        if "force_zip64" in variations:
            info = zipfile.ZipInfo("p/Big.class", (1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as handle:
                handle.write(write_class(ClassSpec("p.Big")))
        if "comment" in variations:
            archive.comment = b"built for the property below"
    jar = buffer.getvalue().replace(_CP437_PLACEHOLDER.encode(), _CP437_NAME.encode("cp437"))
    if "zip64_extra" in variations:
        # The size field of p/Z.class's directory record says "see ZIP64".
        record = jar.rindex(b"p/Z.class") - 46
        jar = jar[: record + 24] + b"\xff\xff\xff\xff" + jar[record + 28 :]
    if "zip64_end" in variations:
        end = jar.rindex(b"PK\x05\x06")
        _, _, _, on_disk, total, size, offset, _ = struct.unpack_from("<4s4H2LH", jar, end)
        record64 = struct.pack("<4sQ2H2L4Q", b"PK\x06\x06", 44, 45, 45, 0, 0, on_disk, total, size, offset)
        locator = struct.pack("<4sLQL", b"PK\x06\x07", 0, end, 1)
        jar = jar[:end] + record64 + locator + jar[end:]
    return (b"#!/bin/sh\nexec java -jar \"$0\"\n" if "prefix" in variations else b"") + jar


def _zipfile_members(jar: bytes) -> list[tuple] | None:
    """Each member's name, stored name, flags, method, CRC-32, sizes and local
    header offset as ``zipfile`` lists them, or None where it raises."""
    try:
        infos = zipfile.ZipFile(io.BytesIO(jar)).infolist()
    except Exception:
        return None
    return [
        (i.filename, i.orig_filename, i.flag_bits, i.compress_type, i.CRC, i.compress_size,
         i.file_size, i.header_offset)
        for i in infos
    ]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(_VARIATIONS)), st.integers(1, 254))
def test_open_jar_reads_the_central_directory_as_zipfile_does(variations, flip):
    jar = _variant_jar(variations)
    classes = {name: entry for name, *entry in _zipfile_members(jar) if name.endswith(".class")}
    assert list(classes) == ["p/Café.class", _CP437_NAME, "p/Z.class"] + ["p/Big.class"] * ("force_zip64" in variations)
    assert classes["p/Café.class"][1] & 0x800 and not classes[_CP437_NAME][1] & 0x800
    assert classes["p/Z.class"][5] == len(write_class(ClassSpec("p.C2")))
    assert len(open_jar(io.BytesIO(jar)).entries) == len(classes)
    start = zipfile.ZipFile(io.BytesIO(jar)).start_dir
    # Each byte from the central directory on (the directory, any ZIP64 end
    # records, the end record and the comment) changed, then the archive cut
    # at each of those bytes.
    variants = [
        jar[:pos] + bytes((jar[pos] ^ change,)) + jar[pos + 1 :]
        for pos in range(start, len(jar))
        for change in {0xFF, flip}
    ] + [jar[:cut] for cut in range(start, len(jar))]
    parsed: dict = {}
    refused = 0
    for variant in variants:
        expected = _zipfile_members(variant)
        if expected is None:
            refused += 1
            with pytest.raises(NotAZip):
                open_jar(io.BytesIO(variant), parsed)
        else:
            assert parser._central_directory(variant) == expected
            open_jar(io.BytesIO(variant), parsed)
    assert 0 < refused < len(variants)


def test_open_jar_reads_an_entry_of_a_size_past_memory_as_zipfile_does(read_by_open_jar):
    jar = _variant_jar({"zip64_extra"})
    extra = jar.rindex(b"p/Z.class") + len("p/Z.class")
    # p/Z.class's ZIP64 size is now 2**63 bytes, more than a buffer can hold.
    # Its deflate stream ends first, with the right CRC-32, so it reads whole.
    jar = jar[: extra + 4] + struct.pack("<Q", 1 << 63) + jar[extra + 12 :]
    assert zipfile.ZipFile(io.BytesIO(jar)).getinfo("p/Z.class").file_size == 1 << 63
    expected = _read_by_zipfile(jar)
    assert None not in expected.values()
    assert read_by_open_jar(jar) == expected


def test_open_jar_counts_an_entry_without_a_name_as_other_content():
    jar = jar_bytes([ClassSpec("p.A")], extra={"x": b"data"})
    record = jar.rindex(b"PK\x01\x02")
    # x's directory record: no name, and its one name byte read as extra field.
    jar = jar[: record + 28] + struct.pack("<HH", 0, 1) + jar[record + 32 :]
    assert [info.filename for info in zipfile.ZipFile(io.BytesIO(jar)).infolist()] == ["p/A.class", ""]
    content = open_jar(io.BytesIO(jar))
    assert [name for name, _ in content.entries] == ["p/A.class"]
    assert content.parse_failures == content.damaged_entries == []


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



def _stored_bytes(jar: bytes, name: str) -> bytes:
    info = zipfile.ZipFile(io.BytesIO(jar)).getinfo(name)
    name_length, extra_length = struct.unpack_from("<HH", jar, info.header_offset + 26)
    start = info.header_offset + 30 + name_length + extra_length
    return jar[start : start + info.compress_size]


@pytest.mark.parametrize("field", ["crc", "local_name"])
@pytest.mark.parametrize(
    "compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED], ids=["stored", "deflated"]
)
def test_open_jar_memo_never_skips_an_entry_check(compression, field):
    # p/A.class keeps the stored bytes that the memo already holds, but its
    # directory CRC-32 or its local name is wrong: it is still damaged.
    jar = _two_class_jar(compression)
    damaged = misfile_entry(jar, "p/A.class", field)
    assert _stored_bytes(damaged, "p/A.class") == _stored_bytes(jar, "p/A.class")
    parsed: dict = {}
    open_jar(io.BytesIO(jar), parsed)
    remembered = dict(parsed)
    content = open_jar(io.BytesIO(damaged), parsed)
    assert [name for name, _ in content.entries] == ["p/B.class"]
    [(name, failure)] = content.damaged_entries
    assert name == "p/A.class"
    assert failure.startswith("BadZipFile: " + ("Bad CRC-32" if field == "crc" else "File name"))
    with pytest.raises(NotAZip, match="damaged entry p/A.class"):
        content.require_complete()
    # Only entries that passed every check are remembered.
    assert parsed == remembered


@pytest.mark.parametrize(
    "first, second",
    [(zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED), (zipfile.ZIP_DEFLATED, zipfile.ZIP_STORED)],
    ids=["stored-then-deflated", "deflated-then-stored"],
)
def test_a_class_stored_then_deflated_parses_to_equal_records_and_no_delta(
    monkeypatch, first, second
):
    calls = []

    def counting_parse(data):
        calls.append(data)
        return parse_class(data)

    monkeypatch.setattr(parser, "parse_class", counting_parse)
    specs = [
        ClassSpec("p.A", methods=(MethodSpec("m", exceptions=("java.io.IOException",)),)),
        ClassSpec("p.B", super_name="p.A", fields=(
            FieldSpec("K", "J", is_static=True, is_final=True, constant=7),
        )),
    ]
    parsed: dict = {}
    v1 = open_jar(io.BytesIO(jar_bytes(specs, compression=first)), parsed)
    v2 = open_jar(io.BytesIO(jar_bytes(specs, compression=second)), parsed)
    # The memo finds each class however it is stored: parsed once, one record.
    assert len(calls) == 2
    assert v1.classes() == v2.classes()
    assert all(a is b for a, b in zip(v1.classes(), v2.classes()))
    old = build_model(v1, model_id="old")
    new = build_model(v2, model_id="new", previous=old)
    assert compute_delta(old, new).changes == []


_CALLS = (("p.A", "m", "()V"), ("p.I1", "n", "(I)V"), ("java.lang.Object", "<init>", "()V"))
_FIELD_REFS = (("p.A", "f", "I"), ("p.B", "K", "D"))
_TYPE_REFS = ("p.Q", "java.util.List")
_CONSTANT_FIELDS = tuple(
    FieldSpec(name, descriptor, is_static=True, is_final=True, constant=value)
    for name, descriptor, value in (
        ("I", "I", -7), ("J", "J", 1 << 40), ("F", "F", 1.5), ("S", "Ljava/lang/String;", "hé"),
    )
)
_VISIBILITY_BITS = {"public": ACC_PUBLIC, "protected": ACC_PROTECTED, "package": 0, "private": ACC_PRIVATE}


@st.composite
def _jar_specs(draw):
    """The skeleton's types, with method bodies and constants of every kind, in a drawn entry order."""
    def refs(choices):
        return draw(st.lists(st.sampled_from(choices), max_size=3).map(tuple))

    specs = []
    for name, kind, super_name, interfaces in _SKELETON:
        spec = draw(_type_spec(name, kind, super_name, interfaces))
        methods = tuple(
            method if method.is_abstract else replace(
                method, calls=refs(_CALLS), interface_calls=refs(_CALLS),
                field_reads=refs(_FIELD_REFS), field_writes=refs(_FIELD_REFS), type_refs=refs(_TYPE_REFS),
            )
            for method in spec.methods
        )
        constants = tuple(draw(st.lists(st.sampled_from(_CONSTANT_FIELDS), unique=True)))
        specs.append(replace(spec, methods=methods, fields=spec.fields + constants))
    return draw(st.permutations(specs))


def _assert_mirrors(cls, spec: ClassSpec) -> None:
    assert (cls.this_name, cls.super_name, cls.interfaces) == (
        spec.name, spec.resolved_super(), spec.interfaces
    )
    assert bool(cls.access_flags & ACC_INTERFACE) == (spec.kind == "interface")
    assert bool(cls.access_flags & ACC_ABSTRACT) == (spec.kind == "interface" or spec.is_abstract)
    assert bool(cls.access_flags & ACC_FINAL) == spec.is_final
    assert (cls.source_file, cls.annotations) == (spec.resolved_source(), spec.annotations)
    assert [tuple(record) for record in cls.inner_class_records] == list(spec.inner_classes)
    assert [(f.name, f.descriptor) for f in cls.fields] == [(f.name, f.descriptor) for f in spec.fields]
    for field, field_spec in zip(cls.fields, spec.fields):
        assert field.access_flags == (
            _VISIBILITY_BITS[field_spec.visibility]
            | (ACC_STATIC if field_spec.is_static else 0)
            | (ACC_FINAL if field_spec.is_final else 0)
        )
        # By repr, so that NaN matches NaN and -0.0 does not match 0.0.
        assert repr(field.constant_value) == repr(field_spec.constant)
        assert field.annotations == field_spec.annotations
    assert [(m.name, m.descriptor) for m in cls.methods] == [(m.name, m.descriptor) for m in spec.methods]
    for method, method_spec in zip(cls.methods, spec.methods):
        assert method.access_flags == (
            _VISIBILITY_BITS[method_spec.visibility]
            | (ACC_ABSTRACT if method_spec.is_abstract else 0)
            | (ACC_STATIC if method_spec.is_static else 0)
            | (ACC_FINAL if method_spec.is_final else 0)
            | (ACC_NATIVE if method_spec.is_native else 0)
            | (ACC_STRICT if method_spec.is_strict else 0)
        )
        assert (method.annotations, method.declared_exceptions) == (
            method_spec.annotations, method_spec.exceptions
        )
        assert method.invoked_methods == tuple(
            MemberRef(*ref) for ref in method_spec.calls + method_spec.interface_calls
        )
        assert method.accessed_fields == tuple(
            MemberRef(*ref) for ref in method_spec.field_reads + method_spec.field_writes
        )
        assert method.referenced_types == method_spec.type_refs
        assert method.is_default_method == (
            spec.kind == "interface" and not method_spec.is_abstract and not method_spec.is_static
        )


@settings(max_examples=60, deadline=None)
@given(_jar_specs())
def test_classes_round_trip_through_writer_parser_and_jar(specs):
    parsed = [parse_class(write_class(spec)) for spec in specs]
    for cls, spec in zip(parsed, specs):
        _assert_mirrors(cls, spec)
    entries = []
    for compression in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", compression) as archive:
            for spec in specs:
                archive.writestr(spec.name.replace(".", "/") + ".class", write_class(spec))
        entries.append(open_jar(io.BytesIO(buffer.getvalue())).entries)
    names = [spec.name.replace(".", "/") + ".class" for spec in specs]
    # By repr: a NaN constant never equals itself, so equal classes that hold one compare unequal.
    assert repr(entries[0]) == repr(entries[1]) == repr(list(zip(names, parsed)))
