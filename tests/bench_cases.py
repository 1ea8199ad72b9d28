"""Mini accuracy-benchmark cases: one (v1, v2, client) triple per catalog
kind, each exercising a single library declaration from its entry point.

Oracle records are hand-written from JVM linkage semantics: the error class
the linker raises when the client runs against v2, or None when the change
is silent at link time (those cases pin down the documented pessimistic
false positives). The two ``known_gap`` cases cover modifier changes the
delta computation deliberately does not track (native, strictfp); the
strictfp oracle is a synthetic stand-in that exists to keep the gap visible
in the recall accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from jarcompat.classfile import ClassSpec, FieldSpec, MethodSpec

MAIN_DESC = "([Ljava/lang/String;)V"


def lib(name: str, **kwargs) -> ClassSpec:
    return ClassSpec(name=f"lib.{name}", **kwargs)


def m(name: str, descriptor: str = "()V", **kwargs) -> MethodSpec:
    return MethodSpec(name=name, descriptor=descriptor, **kwargs)


def f(name: str, descriptor: str = "I", **kwargs) -> FieldSpec:
    return FieldSpec(name=name, descriptor=descriptor, **kwargs)


def main_class(case: str, **body) -> ClassSpec:
    return ClassSpec(
        name=f"cli.Main{case}",
        methods=(MethodSpec(name="main", descriptor=MAIN_DESC, is_static=True, **body),),
    )


@dataclass(frozen=True)
class BenchCaseDef:
    case_id: str
    old: tuple[ClassSpec, ...]
    new: tuple[ClassSpec, ...]
    client: tuple[ClassSpec, ...]
    entry: str
    oracle: dict | None
    expected_kind: str | None
    known_gap: str | None = None


def _main_oracle(case: str, error: str, library_element: str) -> dict:
    return {
        "errorClass": error,
        "clientElement": f"cli.Main{case}.main{MAIN_DESC}",
        "libraryElement": library_element,
    }


def _case(case_id, old, new, client, entry, oracle, expected_kind, known_gap=None):
    return BenchCaseDef(
        case_id=case_id,
        old=tuple(old),
        new=tuple(new),
        client=tuple(client),
        entry=entry,
        oracle=oracle,
        expected_kind=expected_kind,
        known_gap=known_gap,
    )


CTOR = m("<init>")

BENCH_CASES: list[BenchCaseDef] = [
    _case(
        "classRemoved",
        [lib("A", methods=(CTOR,))],
        [],
        [main_class("classRemoved", type_refs=("lib.A",), calls=(("lib.A", "<init>", "()V"),))],
        "cli.MainclassRemoved",
        _main_oracle("classRemoved", "java.lang.NoClassDefFoundError", "lib.A"),
        "classRemoved",
    ),
    _case(
        "classNowFinal",
        [lib("A", methods=(CTOR,))],
        [lib("A", is_final=True, methods=(CTOR,))],
        [ClassSpec(name="cli.SubFinal", super_name="lib.A")],
        "cli.SubFinal",
        {
            "errorClass": "java.lang.VerifyError",
            "clientElement": "cli.SubFinal",
            "libraryElement": "lib.A",
        },
        "classNowFinal",
    ),
    _case(
        "classNowAbstract",
        [lib("A", methods=(CTOR,))],
        [lib("A", is_abstract=True, methods=(CTOR,))],
        [main_class("classNowAbstract", type_refs=("lib.A",), calls=(("lib.A", "<init>", "()V"),))],
        "cli.MainclassNowAbstract",
        _main_oracle("classNowAbstract", "java.lang.InstantiationError", "lib.A"),
        "classNowAbstract",
    ),
    _case(
        "classLessAccessible",
        [lib("A", methods=(CTOR,))],
        [lib("A", visibility="package", methods=(CTOR,))],
        [main_class("classLessAccessible", type_refs=("lib.A",), calls=(("lib.A", "<init>", "()V"),))],
        "cli.MainclassLessAccessible",
        _main_oracle("classLessAccessible", "java.lang.IllegalAccessError", "lib.A"),
        "classLessAccessible",
    ),
    _case(
        "classTypeChanged",
        [lib("A", methods=(CTOR,))],
        [lib("A", kind="interface")],
        [main_class("classTypeChanged", type_refs=("lib.A",), calls=(("lib.A", "<init>", "()V"),))],
        "cli.MainclassTypeChanged",
        _main_oracle("classTypeChanged", "java.lang.IncompatibleClassChangeError", "lib.A"),
        "classTypeChanged",
    ),
    # Losing an empty superclass is silent at link time; the pessimistic
    # extends rule still reports, which is the documented false positive.
    _case(
        "superclassRemoved_silent",
        [lib("S"), lib("B", super_name="lib.S", methods=(CTOR,))],
        [lib("S"), lib("B", methods=(CTOR,))],
        [ClassSpec(name="cli.SubSilent", super_name="lib.B")],
        "cli.SubSilent",
        None,
        "superclassRemoved",
    ),
    _case(
        "superclassRemoved_inherited",
        [lib("S", methods=(m("inh"),)), lib("B", super_name="lib.S", methods=(CTOR,))],
        [lib("S", methods=(m("inh"),)), lib("B", methods=(CTOR,))],
        [main_class("superRemoved", calls=(("lib.B", "inh", "()V"),))],
        "cli.MainsuperRemoved",
        _main_oracle("superRemoved", "java.lang.NoSuchMethodError", "lib.B.inh()V"),
        "methodRemoved",
    ),
    _case(
        "superclassAdded",
        [
            lib("S", is_abstract=True, methods=(m("req", is_abstract=True),)),
            lib("B", methods=(CTOR,)),
        ],
        [
            lib("S", is_abstract=True, methods=(m("req", is_abstract=True),)),
            lib("B", super_name="lib.S", methods=(CTOR,)),
        ],
        [ClassSpec(name="cli.SubAdded", super_name="lib.B")],
        "cli.SubAdded",
        {
            "errorClass": "java.lang.AbstractMethodError",
            "clientElement": "cli.SubAdded",
            "libraryElement": "lib.B.req()V",
        },
        "superclassAdded",
    ),
    # A new marker interface imposes nothing; pessimistic rule reports anyway.
    _case(
        "interfaceAdded",
        [lib("I", kind="interface"), lib("A", methods=(CTOR,))],
        [lib("I", kind="interface"), lib("A", interfaces=("lib.I",), methods=(CTOR,))],
        [ClassSpec(name="cli.SubIfaceAdd", super_name="lib.A")],
        "cli.SubIfaceAdd",
        None,
        "interfaceAdded",
    ),
    _case(
        "interfaceRemoved",
        [
            lib("I", kind="interface", methods=(m("call", is_abstract=True),)),
            lib("A", interfaces=("lib.I",), methods=(CTOR, m("call"))),
        ],
        [
            lib("I", kind="interface", methods=(m("call", is_abstract=True),)),
            lib("A", methods=(CTOR, m("call"))),
        ],
        [
            main_class(
                "interfaceRemoved",
                type_refs=("lib.A",),
                calls=(("lib.A", "<init>", "()V"),),
                interface_calls=(("lib.I", "call", "()V"),),
            )
        ],
        "cli.MaininterfaceRemoved",
        _main_oracle("interfaceRemoved", "java.lang.IncompatibleClassChangeError", "lib.A"),
        "interfaceRemoved",
    ),
    _case(
        "methodRemoved",
        [lib("A", methods=(CTOR, m("gone")))],
        [lib("A", methods=(CTOR,))],
        [main_class("methodRemoved", calls=(("lib.A", "gone", "()V"),))],
        "cli.MainmethodRemoved",
        _main_oracle("methodRemoved", "java.lang.NoSuchMethodError", "lib.A.gone()V"),
        "methodRemoved",
    ),
    _case(
        "methodNowAbstract",
        [lib("A", is_abstract=True, methods=(m("run"),))],
        [lib("A", is_abstract=True, methods=(m("run", is_abstract=True),))],
        [main_class("methodNowAbstract", calls=(("lib.A", "run", "()V"),))],
        "cli.MainmethodNowAbstract",
        _main_oracle("methodNowAbstract", "java.lang.AbstractMethodError", "lib.A.run()V"),
        "methodNowAbstract",
    ),
    _case(
        "methodNowFinal_override",
        [lib("A", methods=(CTOR, m("run")))],
        [lib("A", methods=(CTOR, m("run", is_final=True)))],
        [ClassSpec(name="cli.SubOverride", super_name="lib.A", methods=(m("run"),))],
        "cli.SubOverride",
        {
            "errorClass": "java.lang.VerifyError",
            "clientElement": "cli.SubOverride",
            "libraryElement": "lib.A.run()V",
        },
        "methodNowFinal",
    ),
    # Subclass without an override is unaffected; pessimistic rule reports.
    _case(
        "methodNowFinal_noOverride",
        [lib("A", methods=(CTOR, m("run")))],
        [lib("A", methods=(CTOR, m("run", is_final=True)))],
        [ClassSpec(name="cli.SubNoOverride", super_name="lib.A")],
        "cli.SubNoOverride",
        None,
        "methodNowFinal",
    ),
    _case(
        "methodNowStatic",
        [lib("A", methods=(m("run"),))],
        [lib("A", methods=(m("run", is_static=True),))],
        [main_class("methodNowStatic", calls=(("lib.A", "run", "()V"),))],
        "cli.MainmethodNowStatic",
        _main_oracle("methodNowStatic", "java.lang.IncompatibleClassChangeError", "lib.A.run()V"),
        "methodNowStatic",
    ),
    _case(
        "methodNoLongerStatic",
        [lib("A", methods=(m("run", is_static=True),))],
        [lib("A", methods=(m("run"),))],
        [main_class("methodNoLongerStatic", calls=(("lib.A", "run", "()V"),))],
        "cli.MainmethodNoLongerStatic",
        _main_oracle(
            "methodNoLongerStatic", "java.lang.IncompatibleClassChangeError", "lib.A.run()V"
        ),
        "methodNoLongerStatic",
    ),
    _case(
        "methodLessAccessible",
        [lib("A", methods=(m("run"),))],
        [lib("A", methods=(m("run", visibility="private"),))],
        [main_class("methodLessAccessible", calls=(("lib.A", "run", "()V"),))],
        "cli.MainmethodLessAccessible",
        _main_oracle("methodLessAccessible", "java.lang.IllegalAccessError", "lib.A.run()V"),
        "methodLessAccessible",
    ),
    _case(
        "methodReturnTypeChanged",
        [lib("A", methods=(m("run", "()I"),))],
        [lib("A", methods=(m("run", "()J"),))],
        [main_class("methodReturnTypeChanged", calls=(("lib.A", "run", "()I"),))],
        "cli.MainmethodReturnTypeChanged",
        _main_oracle("methodReturnTypeChanged", "java.lang.NoSuchMethodError", "lib.A.run()I"),
        "methodReturnTypeChanged",
    ),
    # A client type implements the interface that gained an abstract method
    # and must now provide it: the end-to-end interface-evolution scenario.
    _case(
        "methodAddedToInterface",
        [lib("Handler", kind="interface", methods=(m("a", is_abstract=True),))],
        [
            lib(
                "Handler",
                kind="interface",
                methods=(m("a", is_abstract=True), m("b", is_abstract=True)),
            )
        ],
        [ClassSpec(name="cli.MockHandler", interfaces=("lib.Handler",), methods=(m("a"),))],
        "cli.MockHandler",
        {
            "errorClass": "java.lang.AbstractMethodError",
            "clientElement": "cli.MockHandler",
            "libraryElement": "lib.Handler.b()V",
        },
        "methodAddedToInterface",
    ),
    _case(
        "methodAbstractAddedToClass",
        [lib("A", is_abstract=True, methods=(CTOR,))],
        [lib("A", is_abstract=True, methods=(CTOR, m("req", is_abstract=True)))],
        [ClassSpec(name="cli.SubAbstract", super_name="lib.A")],
        "cli.SubAbstract",
        {
            "errorClass": "java.lang.AbstractMethodError",
            "clientElement": "cli.SubAbstract",
            "libraryElement": "lib.A.req()V",
        },
        "methodAbstractAddedToClass",
    ),
    _case(
        "methodAddedToPublicClass",
        [
            lib("S", visibility="package", is_abstract=True),
            lib("B", super_name="lib.S", methods=(CTOR,)),
        ],
        [
            lib(
                "S",
                visibility="package",
                is_abstract=True,
                methods=(m("req", is_abstract=True),),
            ),
            lib("B", super_name="lib.S", methods=(CTOR,)),
        ],
        [ClassSpec(name="cli.SubPublic", super_name="lib.B")],
        "cli.SubPublic",
        {
            "errorClass": "java.lang.AbstractMethodError",
            "clientElement": "cli.SubPublic",
            "libraryElement": "lib.B.req()V",
        },
        "methodAddedToPublicClass",
    ),
    # A lone default method cannot collide in this client; pessimistic rule
    # reports regardless.
    _case(
        "methodNewDefault",
        [lib("I", kind="interface", methods=(m("a", is_abstract=True),))],
        [lib("I", kind="interface", methods=(m("a", is_abstract=True), m("d")))],
        [ClassSpec(name="cli.ImplDefault", interfaces=("lib.I",), methods=(m("a"),))],
        "cli.ImplDefault",
        None,
        "methodNewDefault",
    ),
    # The client overrides the method, so abstract-to-default is harmless.
    _case(
        "methodAbstractNowDefault",
        [lib("I", kind="interface", methods=(m("a", is_abstract=True),))],
        [lib("I", kind="interface", methods=(m("a"),))],
        [ClassSpec(name="cli.ImplNowDefault", interfaces=("lib.I",), methods=(m("a"),))],
        "cli.ImplNowDefault",
        None,
        "methodAbstractNowDefault",
    ),
    # Checked exceptions are a compile-time construct; the linker is silent.
    _case(
        "methodNowThrowsCheckedException",
        [lib("A", methods=(m("run"),))],
        [lib("A", methods=(m("run", exceptions=("java.io.IOException",)),))],
        [main_class("methodNowThrows", calls=(("lib.A", "run", "()V"),))],
        "cli.MainmethodNowThrows",
        None,
        "methodNowThrowsCheckedException",
    ),
    _case(
        "constructorRemoved",
        [lib("A", methods=(CTOR, m("<init>", "(I)V")))],
        [lib("A", methods=(CTOR,))],
        [main_class("constructorRemoved", type_refs=("lib.A",), calls=(("lib.A", "<init>", "(I)V"),))],
        "cli.MainconstructorRemoved",
        _main_oracle("constructorRemoved", "java.lang.NoSuchMethodError", "lib.A.<init>(I)V"),
        "constructorRemoved",
    ),
    _case(
        "constructorLessAccessible_outsider",
        [lib("A", methods=(CTOR,))],
        [lib("A", methods=(m("<init>", visibility="protected"),))],
        [main_class("ctorLess", type_refs=("lib.A",), calls=(("lib.A", "<init>", "()V"),))],
        "cli.MainctorLess",
        _main_oracle("ctorLess", "java.lang.IllegalAccessError", "lib.A.<init>()V"),
        "constructorLessAccessible",
    ),
    # A subclass super() call stays legal under protected; binaries cannot
    # tell it apart from ordinary instantiation, so the pessimistic rule
    # reports it: the documented super-call false positive.
    _case(
        "constructorLessAccessible_super",
        [lib("A", methods=(CTOR,))],
        [lib("A", methods=(m("<init>", visibility="protected"),))],
        [
            ClassSpec(
                name="cli.SubCtor",
                super_name="lib.A",
                methods=(m("<init>", calls=(("lib.A", "<init>", "()V"),)),),
            )
        ],
        "cli.SubCtor",
        None,
        "constructorLessAccessible",
    ),
    _case(
        "fieldRemoved",
        [lib("A", fields=(f("gone", is_static=True), f("kept", is_static=True)))],
        [lib("A", fields=(f("kept", is_static=True),))],
        [main_class("fieldRemoved", field_reads=(("lib.A", "gone", "I"),))],
        "cli.MainfieldRemoved",
        _main_oracle("fieldRemoved", "java.lang.NoSuchFieldError", "lib.A.gone"),
        "fieldRemoved",
    ),
    _case(
        "fieldNowFinal_write",
        [lib("A", fields=(f("v", is_static=True),))],
        [lib("A", fields=(f("v", is_static=True, is_final=True),))],
        [main_class("fieldNowFinalW", field_writes=(("lib.A", "v", "I"),))],
        "cli.MainfieldNowFinalW",
        _main_oracle("fieldNowFinalW", "java.lang.IllegalAccessError", "lib.A.v"),
        "fieldNowFinal",
    ),
    # Reads of a newly final field are fine; the model cannot tell reads
    # from writes, so the pessimistic rule reports.
    _case(
        "fieldNowFinal_read",
        [lib("A", fields=(f("v", is_static=True),))],
        [lib("A", fields=(f("v", is_static=True, is_final=True),))],
        [main_class("fieldNowFinalR", field_reads=(("lib.A", "v", "I"),))],
        "cli.MainfieldNowFinalR",
        None,
        "fieldNowFinal",
    ),
    _case(
        "fieldNowStatic",
        [lib("A", fields=(f("v"),))],
        [lib("A", fields=(f("v", is_static=True),))],
        [main_class("fieldNowStatic", field_reads=(("lib.A", "v", "I"),))],
        "cli.MainfieldNowStatic",
        _main_oracle("fieldNowStatic", "java.lang.IncompatibleClassChangeError", "lib.A.v"),
        "fieldNowStatic",
    ),
    _case(
        "fieldNoLongerStatic",
        [lib("A", fields=(f("v", is_static=True),))],
        [lib("A", fields=(f("v"),))],
        [main_class("fieldNoLongerStatic", field_reads=(("lib.A", "v", "I"),))],
        "cli.MainfieldNoLongerStatic",
        _main_oracle("fieldNoLongerStatic", "java.lang.IncompatibleClassChangeError", "lib.A.v"),
        "fieldNoLongerStatic",
    ),
    _case(
        "fieldLessAccessible",
        [lib("A", fields=(f("v", is_static=True),))],
        [lib("A", fields=(f("v", is_static=True, visibility="private"),))],
        [main_class("fieldLessAccessible", field_reads=(("lib.A", "v", "I"),))],
        "cli.MainfieldLessAccessible",
        _main_oracle("fieldLessAccessible", "java.lang.IllegalAccessError", "lib.A.v"),
        "fieldLessAccessible",
    ),
    _case(
        "fieldTypeChanged",
        [lib("A", fields=(f("v", "I", is_static=True),))],
        [lib("A", fields=(f("v", "J", is_static=True),))],
        [main_class("fieldTypeChanged", field_reads=(("lib.A", "v", "I"),))],
        "cli.MainfieldTypeChanged",
        _main_oracle("fieldTypeChanged", "java.lang.NoSuchFieldError", "lib.A.v"),
        "fieldTypeChanged",
    ),
    # Constant reads were inlined when the client compiled; nothing resolves
    # at link time and no detection is expected.
    _case(
        "fieldConstantValueChanged",
        [lib("A", fields=(f("c", is_static=True, is_final=True, constant=1),))],
        [lib("A", fields=(f("c", is_static=True, is_final=True, constant=2),))],
        [main_class("fieldConst", field_reads=(("lib.A", "c", "I"),))],
        "cli.MainfieldConst",
        None,
        "fieldConstantValueChanged",
    ),
    # The two documented recall gaps: modifier changes the catalog does not
    # track. The linker-side records keep the misses visible.
    _case(
        "gap_native",
        [lib("A", methods=(m("run"),))],
        [lib("A", methods=(m("run", is_native=True),))],
        [main_class("gapNative", calls=(("lib.A", "run", "()V"),))],
        "cli.MaingapNative",
        _main_oracle("gapNative", "java.lang.UnsatisfiedLinkError", "lib.A.run()V"),
        None,
        known_gap="native",
    ),
    _case(
        "gap_strictfp",
        [lib("A", methods=(m("run", is_strict=True),))],
        [lib("A", methods=(m("run"),))],
        [main_class("gapStrictfp", calls=(("lib.A", "run", "()V"),))],
        "cli.MaingapStrictfp",
        _main_oracle("gapStrictfp", "java.lang.VerifyError", "lib.A.run()V"),
        None,
        known_gap="strictfp",
    ),
]


def write_benchmark(root: Path) -> Path:
    """Materialize all cases as JARs plus a manifest.json under ``root``."""
    from conftest import write_jar

    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for case in BENCH_CASES:
        base = root / case.case_id
        write_jar(base / "v1.jar", list(case.old))
        write_jar(base / "v2.jar", list(case.new))
        write_jar(base / "client.jar", list(case.client))
        entries.append(
            {
                "id": case.case_id,
                "v1": f"{case.case_id}/v1.jar",
                "v2": f"{case.case_id}/v2.jar",
                "client": f"{case.case_id}/client.jar",
                "entry": case.entry,
                "oracle": case.oracle,
                "knownGap": case.known_gap,
            }
        )
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return manifest
