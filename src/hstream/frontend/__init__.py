"""Frontend: lexing, parsing, and semantic checking of annotated host programs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from hstream.frontend.ast import Program, format_program
from hstream.frontend.lexer import Token, TokenKind, lex
from hstream.frontend.parser import parse, parse_source
from hstream.frontend.semantics import check
from hstream.ir import KernelSpec

__all__ = [
    "CompileResult",
    "Program",
    "Token",
    "TokenKind",
    "check",
    "compile_source",
    "compile_file",
    "format_program",
    "lex",
    "parse",
    "parse_source",
    "unit_name_for",
]


@dataclass(frozen=True)
class CompileResult:
    program: Program
    kernels: tuple[KernelSpec, ...]
    unit_name: str


def unit_name_for(path: Union[str, Path]) -> str:
    """Kernel naming stem for a source path: 'triad.hs.c' -> 'Triad'."""
    stem = Path(path).name
    for suffix in (".hs.c", ".c"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    stem = re.sub(r"[^A-Za-z0-9_]", "_", stem) or "Kernel"
    if stem[0].isdigit():
        stem = f"K{stem}"
    return stem[0].upper() + stem[1:]


def compile_source(source: str, unit_name: str = "Kernel") -> CompileResult:
    """Lex, parse, and check a program; raises CompileError with positioned
    diagnostics on any failure."""
    program = parse(lex(source))
    kernels = check(program, unit_name)
    return CompileResult(program, tuple(kernels), unit_name)


def compile_file(path: Union[str, Path]) -> CompileResult:
    text = Path(path).read_text(encoding="utf-8")
    return compile_source(text, unit_name_for(path))
