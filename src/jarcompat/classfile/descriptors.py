"""JVM type- and method-descriptor parsing."""

from __future__ import annotations

PRIMITIVES = frozenset("BCDFIJSZV")


class DescriptorError(ValueError):
    """Descriptor does not follow the JVM grammar."""


def _read_type(desc: str, pos: int, *, allow_void: bool) -> int:
    """Return the index just past one type starting at ``pos``."""
    if pos >= len(desc):
        raise DescriptorError(f"truncated descriptor: {desc!r}")
    ch = desc[pos]
    if ch in PRIMITIVES:
        if ch == "V" and not allow_void:
            raise DescriptorError(f"void not allowed here: {desc!r}")
        return pos + 1
    if ch == "[":
        return _read_type(desc, pos + 1, allow_void=False)
    if ch == "L":
        end = desc.find(";", pos)
        if end < 0 or end == pos + 1:
            raise DescriptorError(f"unterminated class type: {desc!r}")
        if desc.find(".", pos, end) >= 0:
            # Internal names separate packages with '/' (JVMS 4.2.1).
            raise DescriptorError(f"'.' in class name: {desc!r}")
        return end + 1
    raise DescriptorError(f"bad type tag {ch!r} in {desc!r}")


def validate_field_descriptor(desc: str) -> None:
    end = _read_type(desc, 0, allow_void=False)
    if end != len(desc):
        raise DescriptorError(f"trailing junk in field descriptor {desc!r}")


def parse_method_descriptor(desc: str) -> tuple[list[str], str]:
    """Split ``(params)return`` into parameter descriptors and the return."""
    if not desc.startswith("("):
        raise DescriptorError(f"method descriptor must start with '(': {desc!r}")
    params: list[str] = []
    pos = 1
    while pos < len(desc) and desc[pos] != ")":
        end = _read_type(desc, pos, allow_void=False)
        params.append(desc[pos:end])
        pos = end
    if pos >= len(desc):
        raise DescriptorError(f"unterminated parameter list: {desc!r}")
    ret_start = pos + 1
    end = _read_type(desc, ret_start, allow_void=True)
    if end != len(desc):
        raise DescriptorError(f"trailing junk in method descriptor {desc!r}")
    return params, desc[ret_start:]


def validate_descriptor(desc: str) -> None:
    if desc.startswith("("):
        parse_method_descriptor(desc)
    else:
        validate_field_descriptor(desc)


def parameter_part(desc: str) -> str:
    """The ``(params)`` prefix of a method descriptor (erases the return)."""
    close = desc.index(")")
    return desc[: close + 1]


def class_names_in(desc: str) -> list[str]:
    """All class names referenced by a field or method descriptor, dotted."""
    names = []
    pos = 0
    while pos < len(desc):
        ch = desc[pos]
        if ch == "L":
            end = desc.find(";", pos)
            if end < 0:
                break
            names.append(desc[pos + 1 : end].replace("/", "."))
            pos = end + 1
        else:
            pos += 1
    return names


def element_class_name(name: str) -> str | None:
    """Dotted class name behind a (possibly array) internal name, else None.

    ``java/lang/String`` -> ``java.lang.String``; ``[Ljava/util/List;`` ->
    ``java.util.List``; primitive arrays like ``[I`` -> None.
    """
    stripped = name.lstrip("[")
    if stripped.startswith("L") and stripped.endswith(";"):
        stripped = stripped[1:-1]
    elif name != stripped:
        return None  # primitive array
    if not stripped:
        return None
    return stripped.replace("/", ".")
