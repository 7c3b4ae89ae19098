"""Frontend: lexing, parsing, and semantic checking of annotated host programs,
and their line counts (`hstreamc loc`)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from hstream.frontend.ast import Program, format_program
from hstream.frontend.lexer import Token, TokenKind, lex
from hstream.frontend.parser import parse
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
    "count_file_loc",
    "count_pragma_loc",
    "format_program",
    "lex",
    "parse",
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


_PRAGMA_LINE = re.compile(r"^#\s*pragma\s+hstream\b")


def count_file_loc(path: Union[str, Path]) -> tuple[int, int]:
    """(total_loc, hstream_loc): non-blank non-comment lines, and the subset
    that are stream pragma lines."""
    total = 0
    pragmas = 0
    in_block_comment = False
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if line.startswith("/*"):
            if "*/" in line:
                line = line.split("*/", 1)[1].strip()
            else:
                in_block_comment = True
                continue
        if not line or line.startswith("//"):
            continue
        total += 1
        if _PRAGMA_LINE.match(line):
            pragmas += 1
    return total, pragmas


def count_pragma_loc(corpus: Union[str, Path]) -> dict[str, tuple[int, int]]:
    """LOC per file for a corpus directory (``*.hs.c``) or a single file."""
    root = Path(corpus)
    if root.is_dir():
        files = sorted(root.glob("*.hs.c"))
    else:
        files = [root]
    return {str(f): count_file_loc(f) for f in files}
