"""Raw structural records produced by the class-file parser.

Everything downstream of this package works on symbolic names and
descriptors; constant-pool indices never escape the parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple


class ClassFormatError(Exception):
    """A class file that cannot be decoded into a RawClass."""


class BadMagic(ClassFormatError):
    """First four bytes are not 0xCAFEBABE."""


class TruncatedClass(ClassFormatError):
    """Input ended before the structure it promised."""


class MalformedConstantPool(ClassFormatError):
    """Constant pool entry with a bad tag, index, or encoding."""


class NotAZip(Exception):
    """The given archive is not a readable ZIP file."""


class UnknownVersion(ValueError):
    """Class-file major version below the JVM's first release (45)."""


class UnsupportedConstruct(ValueError):
    """Fixture writer asked for something outside the supported subset."""


# Access flags (classes and members share the namespace).
ACC_PUBLIC = 0x0001
ACC_PRIVATE = 0x0002
ACC_PROTECTED = 0x0004
ACC_STATIC = 0x0008
ACC_FINAL = 0x0010
ACC_SUPER = 0x0020
ACC_NATIVE = 0x0100
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400
ACC_STRICT = 0x0800
ACC_SYNTHETIC = 0x1000
ACC_ANNOTATION = 0x2000
ACC_ENUM = 0x4000


def visibility_of(flags: int) -> str:
    if flags & ACC_PUBLIC:
        return "public"
    if flags & ACC_PROTECTED:
        return "protected"
    if flags & ACC_PRIVATE:
        return "private"
    return "package"


# ``visibility_of`` by the three visibility bits, which are the lowest.
_VISIBILITIES = tuple(visibility_of(flags) for flags in range(8))


MAGIC = 0xCAFEBABE
MIN_MAJOR_VERSION = 45

# SourceFile extension -> language tag. Anything else (including a missing
# SourceFile attribute) maps to "unknown".
LANGUAGE_BY_EXTENSION = {
    ".java": "java",
    ".scala": "scala",
    ".kt": "kotlin",
    ".kts": "kotlin",
    ".groovy": "groovy",
    ".clj": "clojure",
}


def language_of_source(source_file: str | None) -> str:
    if source_file is None:
        return "unknown"
    dot = source_file.rfind(".")
    if dot < 0:
        return "unknown"
    return LANGUAGE_BY_EXTENSION.get(source_file[dot:].lower(), "unknown")


def java_release_of(major_version: int) -> int:
    """Map a class-file major version to its Java release number.

    45 -> 1 (JDK 1.1), 52 -> 8, 53 -> 9, and so on (major - 44).
    """
    if major_version < MIN_MAJOR_VERSION:
        raise UnknownVersion(f"class-file major version {major_version} predates the JVM")
    return major_version - 44


class MemberRef(NamedTuple):
    """A symbolic reference to a field or method of some type."""

    owner: str
    name: str
    descriptor: str


# Element references. A type is named by its dotted name (nested ``a.b.C$D``),
# a field as ``owner.name`` and a method or constructor as
# ``owner.name(descriptor)``. The owner is everything before the last ``.``:
# neither a member name (JVMS 4.2.2) nor a descriptor (JVMS 4.3) holds one,
# and the parser rejects a class whose member name or descriptor does.


def member_ref(owner: str, name: str, descriptor: str) -> str:
    """Element reference of a member: ``owner.name`` for a field,
    ``owner.name(descriptor)`` for a method or constructor."""
    if descriptor.startswith("("):
        return f"{owner}.{name}{descriptor}"
    return f"{owner}.{name}"


def member_owner(ref: str) -> str:
    """Owner type of a member reference built by ``member_ref``."""
    return ref.rpartition(".")[0]


def rehost_member(ref: str, owner: str) -> str:
    """The member reference ``ref`` with its owner type replaced by ``owner``."""
    return owner + ref[len(member_owner(ref)) :]


def package_of(type_name: str) -> str:
    """The package of a dotted type name, ``""`` for the default package.
    ``$`` marks nesting only after the last ``.``: ``x$y.Lib`` is in ``x$y``."""
    return type_name.rpartition(".")[0]


class InnerClassRecord(NamedTuple):
    """One row of the InnerClasses attribute, names resolved."""

    inner_name: str
    outer_name: str | None
    simple_name: str | None
    access_flags: int


# The flag decoders are plain properties: a ``cached_property`` takes a lock
# on its first read, which costs more than decoding a flag. Only the per-class
# loops (the members view, the InnerClasses lookup) are cached.


class RawMember(NamedTuple):
    """A field or method as declared in the class file.

    A named tuple rather than a frozen dataclass: a class file holds many
    members, and a tuple is built at a fraction of the cost of a dataclass
    whose ``__init__`` sets each field through ``object.__setattr__``. It is
    immutable all the same, which the parse memo and the models' identity
    short cuts rely on; ``_replace`` gives a modified copy.
    """

    name: str
    descriptor: str
    access_flags: int
    owner: str  # the declaring class
    ref: str  # ``member_ref(owner, name, descriptor)``
    annotations: tuple[str, ...] = ()
    is_default_method: bool = False
    constant_value: int | float | str | None = None
    declared_exceptions: tuple[str, ...] = ()
    # References extracted from the Code attribute, if any. Bodies are only
    # scanned for refs; instructions are never interpreted.
    invoked_methods: tuple[MemberRef, ...] = ()
    accessed_fields: tuple[MemberRef, ...] = ()
    referenced_types: tuple[str, ...] = ()

    @property
    def member_kind(self) -> str:
        """``field``, ``method`` or ``constructor``."""
        if not self.descriptor.startswith("("):
            return "field"
        return "constructor" if self.name == "<init>" else "method"

    @property
    def visibility(self) -> str:
        return _VISIBILITIES[self.access_flags & 7]

    @property
    def is_abstract(self) -> bool:
        return bool(self.access_flags & ACC_ABSTRACT)

    @property
    def is_final(self) -> bool:
        return bool(self.access_flags & ACC_FINAL)

    @property
    def is_static(self) -> bool:
        return bool(self.access_flags & ACC_STATIC)


@dataclass(frozen=True)
class RawClass:
    """A parsed class file with all constant-pool indices resolved away."""

    major_version: int
    access_flags: int
    this_name: str
    super_name: str | None
    interfaces: tuple[str, ...]
    fields: tuple[RawMember, ...]
    methods: tuple[RawMember, ...]
    source_file: str | None = None
    annotations: tuple[str, ...] = ()
    inner_class_records: tuple[InnerClassRecord, ...] = ()

    @property
    def kind(self) -> str:
        """``class``, ``interface``, ``enum`` or ``annotation``."""
        if self.access_flags & ACC_ANNOTATION:
            return "annotation"
        if self.access_flags & ACC_INTERFACE:
            return "interface"
        if self.access_flags & ACC_ENUM:
            return "enum"
        return "class"

    @cached_property
    def visibility(self) -> str:
        # A nested class's own row of InnerClasses carries its true visibility.
        flags = self.access_flags
        for record in self.inner_class_records:
            if record.inner_name == self.this_name:
                flags = record.access_flags
        return visibility_of(flags)

    @property
    def is_abstract(self) -> bool:
        return bool(self.access_flags & ACC_ABSTRACT)

    @property
    def is_final(self) -> bool:
        return bool(self.access_flags & ACC_FINAL)

    @property
    def package(self) -> str:
        return package_of(self.this_name)

    @property
    def enclosing_name(self) -> str | None:
        """The class this one is nested in, by the ``$`` in its simple name."""
        name = self.this_name
        if "$" in name[name.rfind(".") + 1 :]:
            return name.rpartition("$")[0]
        return None

    @cached_property
    def members(self) -> tuple[RawMember, ...]:
        """The members an API declares: all but ``<clinit>`` and synthetic ones."""
        return tuple(
            member
            for member in (*self.fields, *self.methods)
            if member.name != "<clinit>" and not member.access_flags & ACC_SYNTHETIC
        )


@dataclass
class JarContent:
    """One JAR's class entries: each that parsed, by entry name, and each
    that failed, with the reason: in ``damaged_entries`` when the archive
    could not deliver it, in ``parse_failures`` when its class did not parse."""

    entries: list[tuple[str, RawClass]] = field(default_factory=list)
    parse_failures: list[tuple[str, str]] = field(default_factory=list)
    damaged_entries: list[tuple[str, str]] = field(default_factory=list)
    source: str = ""
    sha256: str = ""  # hex digest of the archive's bytes

    def classes(self) -> list[RawClass]:
        return [cls for _, cls in self.entries]

    def require_intact(self) -> JarContent:
        """This content, or ``NotAZip`` when an entry could not be read.

        A model built without a damaged entry's class would report that
        class removed, a breaking change the library never made.
        """
        if self.damaged_entries:
            name, reason = self.damaged_entries[0]
            raise NotAZip(f"{self.source}: damaged entry {name}: {reason}")
        return self

    def require_complete(self) -> JarContent:
        """This content, or an error when any class entry failed: ``NotAZip``
        for a damaged entry, ``ClassFormatError`` for a class that did not
        parse. A library's model must hold every class its JAR ships; a
        client's only loses the uses of the missing class, so clients need
        no more than ``require_intact``.
        """
        self.require_intact()
        if self.parse_failures:
            name, reason = self.parse_failures[0]
            raise ClassFormatError(f"{self.source}: class entry {name} does not parse: {reason}")
        return self
