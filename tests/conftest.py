"""Shared fixture builders: in-memory JARs assembled from class specs."""

from __future__ import annotations

import io
import os
import struct
import zipfile
from pathlib import Path

import pytest

from jarcompat.apimodel import ApiModel, StabilityConfig, build_model
from jarcompat.classfile import ClassSpec, JarContent, open_jar, write_class
from jarcompat.usage import UsageModel, UseKind


def assert_no_child_left() -> None:
    """Every process this one forked has been reaped: none is left to wait for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def jar_bytes(
    specs: list[ClassSpec],
    extra: dict[str, bytes] | None = None,
    compression: int = zipfile.ZIP_STORED,
) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        for spec in specs:
            archive.writestr(spec.name.replace(".", "/") + ".class", write_class(spec))
        for name, data in (extra or {}).items():
            archive.writestr(name, data)
    return buffer.getvalue()


def jar_content(specs: list[ClassSpec], extra: dict[str, bytes] | None = None) -> JarContent:
    return open_jar(io.BytesIO(jar_bytes(specs, extra)))


def damage_entry(jar: bytes, name: str) -> bytes:
    """``jar`` with the first data byte of entry ``name`` flipped, which its CRC-32 catches."""
    offset = zipfile.ZipFile(io.BytesIO(jar)).getinfo(name).header_offset
    name_length, extra_length = struct.unpack_from("<HH", jar, offset + 26)
    damaged = bytearray(jar)
    damaged[offset + 30 + name_length + extra_length] ^= 0xFF
    return bytes(damaged)


def misfile_entry(jar: bytes, name: str, field: str) -> bytes:
    """``jar`` with entry ``name``'s stored bytes kept but one field about them
    made wrong: its CRC-32 in the central directory (``field="crc"``) or the
    last character of its name in its local header (``field="local_name"``)."""
    info = zipfile.ZipFile(io.BytesIO(jar)).getinfo(name)
    if field == "crc":
        record = jar.index(b"PK\x01\x02")
        while jar[record + 46 : record + 46 + len(name)] != name.encode():
            record = jar.index(b"PK\x01\x02", record + 4)
        return jar[: record + 16] + struct.pack("<I", info.CRC ^ 1) + jar[record + 20 :]
    assert field == "local_name"
    last = info.header_offset + 30 + len(name) - 1
    return jar[:last] + b"_" + jar[last + 1 :]


def refuse_directory(jar: bytes, defect: str) -> bytes:
    """``jar`` with a first central directory record that ``zipfile`` refuses:
    one that needs version 6.4 to extract (``defect="version"``), or one
    whose name begins with byte 0x80 under the UTF-8 flag (``"name"``)."""
    record = jar.index(b"PK\x01\x02")
    if defect == "version":
        return jar[: record + 6] + b"\x40" + jar[record + 7 :]
    assert defect == "name"
    flags = struct.unpack_from("<H", jar, record + 8)[0] | 0x800
    return jar[: record + 8] + struct.pack("<H", flags) + jar[record + 10 : record + 46] + b"\x80" + jar[record + 47 :]


def write_jar(path: Path, specs: list[ClassSpec], extra: dict[str, bytes] | None = None) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(jar_bytes(specs, extra))
    return path


def model_of(
    specs: list[ClassSpec],
    config: StabilityConfig | None = None,
    model_id: str = "fixture",
) -> ApiModel:
    return build_model(jar_content(specs), config, model_id=model_id)


def usage_pairs(usage: UsageModel, kind: UseKind) -> set[tuple[str, str]]:
    """The (client element, library element) pairs of one use kind."""
    return {(client, target) for target, clients in usage.uses[kind].items() for client in clients}


@pytest.fixture
def make_jar(tmp_path):
    counter = {"n": 0}

    def _make(specs: list[ClassSpec], name: str | None = None) -> Path:
        counter["n"] += 1
        target = tmp_path / (name or f"fixture{counter['n']}.jar")
        return write_jar(target, specs)

    return _make
