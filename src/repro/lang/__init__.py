"""The Jx language frontend: lexer, parser, semantic analysis, codegen.

The one-call entry point is :func:`compile_source`, which turns Jx source
text into a verified, linkable
:class:`~repro.bytecode.classfile.ProgramUnit` (including the standard
library).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from repro.bytecode.classfile import ClassInfo, ProgramUnit
from repro.bytecode.opcodes import CALL_OPS, INTRINSIC
from repro.bytecode.verify import verify_method
from repro.lang.codegen import generate
from repro.lang.errors import JxError, LexError, ParseError, SemanticError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_source
from repro.lang.semantic import analyze
from repro.lang.stdlib import STDLIB_SOURCE, build_prebuilt_classes
from repro.vm.intrinsics import intrinsic_returns

__all__ = [
    "JxError",
    "LexError",
    "ParseError",
    "SemanticError",
    "compile_source",
    "compile_stdlib",
    "parse_source",
    "stdlib_class_names",
    "tokenize",
]


#: The standard library as compiled once per process (the boot image):
#: never linked, only copied.  ``None`` until the first request.
_PRISTINE_STDLIB: list[ClassInfo] | None = None
_PRISTINE_LOCK = threading.Lock()


def _pristine_stdlib() -> list[ClassInfo]:
    """The process-wide compiled stdlib, compiled and verified on first
    use.  Every unit's stdlib is a copy of these bodies and a program
    cannot redefine a stdlib class, so no unit verifies them again."""
    global _PRISTINE_STDLIB
    if _PRISTINE_STDLIB is None:
        with _PRISTINE_LOCK:
            if _PRISTINE_STDLIB is None:
                prebuilt = build_prebuilt_classes()
                stdlib_ast = parse_source(STDLIB_SOURCE, "<stdlib>")
                unit = analyze(stdlib_ast, prebuilt)
                generate(stdlib_ast, unit)
                verify_program_with_intrinsics(unit)
                _PRISTINE_STDLIB = list(unit.classes.values())
    return _PRISTINE_STDLIB


def compile_stdlib() -> list[ClassInfo]:
    """The full standard library (prebuilt + self-hosted layers).

    The stdlib is compiled once per process, as Jikes RVM boots from an
    image that already holds its class library.  Each call returns a
    fresh unlinked copy (:meth:`ClassInfo.copy`): linking writes field
    slots, resolved operands and state hooks into the classes it links,
    so class objects must never be shared between two VMs.
    """
    return [cls.copy() for cls in _pristine_stdlib()]


def stdlib_class_names() -> frozenset[str]:
    """Names of the standard library's classes and interfaces."""
    return frozenset(cls.name for cls in _pristine_stdlib())


def compile_source(
    source: str,
    filename: str = "<source>",
    entry_class: str = "Main",
    entry_method: str = "main",
    include_stdlib: bool = True,
    verify: bool = True,
) -> ProgramUnit:
    """Compile Jx source text to a verified :class:`ProgramUnit`.

    Args:
        source: Jx source (any number of class/interface declarations).
        filename: Name used in diagnostics.
        entry_class: Class holding the program entry point.
        entry_method: Static void no-arg entry method name.
        include_stdlib: Link against the standard library (``Sys``,
            ``Object``, ``StringBuilder``, ...).  Disable only for
            compiler-internals tests.
        verify: Run the structural bytecode verifier over the
            program's own classes (the stdlib was verified once, when
            it was compiled).

    Raises:
        JxError: On any lexical, syntactic, or semantic error.
    """
    prebuilt = compile_stdlib() if include_stdlib else []
    program_ast = parse_source(source, filename)
    unit = analyze(program_ast, prebuilt, entry_class, entry_method)
    generate(program_ast, unit)
    unit.stdlib_names = frozenset(cls.name for cls in prebuilt)
    if verify:
        verify_program_with_intrinsics(unit, [
            cls for cls in unit.classes.values()
            if cls.name not in unit.stdlib_names
        ])
    return unit


def verify_program_with_intrinsics(
    unit: ProgramUnit, classes: Iterable[ClassInfo] | None = None
) -> None:
    """Verify the method bodies of ``classes`` (default: every class of
    ``unit``), resolving call/intrinsic result arity against ``unit``.

    Builds the exact per-call ``pushes a value?`` map from resolved method
    signatures and the intrinsic registry, then delegates to the
    structural verifier.
    """
    returns = intrinsic_returns()
    if classes is None:
        classes = unit.classes.values()
    for method in (m for cls in classes for m in cls.methods.values()):
        if method.is_abstract:
            continue
        call_returns: dict[int, bool] = {}
        for i, instr in enumerate(method.code):
            if instr.op in CALL_OPS:
                cls_name, key, _ = instr.arg
                target = unit.lookup_method(cls_name, key)
                if target is None:
                    target = _lookup_iface(unit, cls_name, key)
                if target is None:
                    raise SemanticError(
                        f"{method.qualified_name}: unresolvable call target "
                        f"{cls_name}.{key}"
                    )
                call_returns[i] = target.return_type.name != "void"
            elif instr.op is INTRINSIC:
                name, _ = instr.arg
                if name not in returns:
                    raise SemanticError(
                        f"{method.qualified_name}: unknown intrinsic {name!r}"
                    )
                call_returns[i] = returns[name]
        verify_method(method, call_returns)


def _lookup_iface(unit: ProgramUnit, iface_name: str, key: str):
    cls = unit.classes.get(iface_name)
    if cls is None:
        return None
    if key in cls.methods:
        return cls.methods[key]
    for sup in cls.interface_names:
        found = _lookup_iface(unit, sup, key)
        if found is not None:
            return found
    return None
