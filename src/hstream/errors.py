"""Diagnostics and error types shared by the compiler, runtime, and tools.

Every compiler diagnostic renders as ``<file>:<line>:<col>: error[<CODE>]: <message>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# Lexical / syntactic codes.
ILLEGAL_CHAR = "ILLEGAL_CHAR"
BAD_PRAGMA = "BAD_PRAGMA"
SYNTAX = "SYNTAX"

# Semantic codes.
DUP_DEVICE = "DUP_DEVICE"
DUP_SCHEDULING = "DUP_SCHEDULING"
UNDECLARED = "UNDECLARED"
TYPE_MISMATCH = "TYPE_MISMATCH"
DUP_DECL = "DUP_DECL"
OUT_OF_SCOPE = "OUT_OF_SCOPE"
NOT_IN_CLAUSE = "NOT_IN_CLAUSE"

# Platform description codes.
PDL_XML = "PDL_XML"
PDL_ATTR = "PDL_ATTR"
PDL_VALUE = "PDL_VALUE"
PDL_DUP_ID = "PDL_DUP_ID"
PDL_EMPTY = "PDL_EMPTY"
PDL_NO_CPU = "PDL_NO_CPU"


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    code: str
    message: str

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: error[{self.code}]: {self.message}"


class CompileError(Exception):
    """Raised with one or more diagnostics; diagnostics are sorted by position."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = sorted(diagnostics, key=lambda d: (d.line, d.col))
        first = self.diagnostics[0]
        extra = f" (+{len(self.diagnostics) - 1} more)" if len(self.diagnostics) > 1 else ""
        super().__init__(f"{first.render()}{extra}")

    @classmethod
    def single(cls, line: int, col: int, code: str, message: str) -> "CompileError":
        return cls([Diagnostic(line, col, code, message)])

    def render(self, filename: str = "<input>") -> str:
        return "\n".join(d.render(filename) for d in self.diagnostics)

    @property
    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]


class PdlError(CompileError):
    """Platform description file errors (same diagnostic shape, PDL_* codes)."""


class ResolveError(Exception):
    """A device selector, device configuration or benchmark kernel name does
    not resolve."""


class ConfigurationError(Exception):
    """Invalid run configuration detected before any chunk is claimed."""


class DeviceMemoryError(RuntimeError):
    """A chunk does not fit in a simulated accelerator's memory."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the first stage error as __cause__."""


class VerificationError(RuntimeError):
    """A benchmark run's output diverged from the sequential reference."""
