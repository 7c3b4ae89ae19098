"""Checked intermediate representation shared by the frontend, codegen, and runtime.

Positions (line/col) are carried for diagnostics but excluded from equality so
that structurally identical kernels compare equal regardless of where they
were written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

import numpy as np


class ElementType(Enum):
    INT = "int"
    DOUBLE = "double"

    @property
    def size_bytes(self) -> int:
        return 4 if self is ElementType.INT else 8

    @property
    def numpy_dtype(self):
        return np.int32 if self is ElementType.INT else np.float64

    @property
    def c_name(self) -> str:
        return self.value


class VarKind(Enum):
    SCALAR = "scalar"
    ARRAY = "array"
    STREAM = "stream"

    @property
    def is_elementwise(self) -> bool:
        return self is not VarKind.SCALAR


@dataclass(frozen=True)
class BoundVar:
    """A clause or body variable resolved against its declaration."""

    name: str
    kind: VarKind
    element_type: ElementType

    @property
    def is_elementwise(self) -> bool:
        return self.kind.is_elementwise


# --- Expressions -----------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Union[int, float]
    element_type: ElementType
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Expr = Union[Num, Var, Neg, BinOp]


def expr_var_names(expr: Expr) -> list[str]:
    """Variable names referenced by an expression, in first-occurrence order."""
    out: list[str] = []

    def walk(e: Expr) -> None:
        if isinstance(e, Var):
            if e.name not in out:
                out.append(e.name)
        elif isinstance(e, Neg):
            walk(e.operand)
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)

    walk(expr)
    return out


# --- Device selection and scheduling ----------------------------------------

@dataclass(frozen=True)
class AllDevices:
    """Use every processing unit of the platform, in platform order."""


@dataclass(frozen=True)
class DeviceIds:
    ids: tuple[int, ...]


ALL_DEVICES = AllDevices()
DeviceSelector = Union[AllDevices, DeviceIds]


@dataclass(frozen=True)
class AutoSchedule:
    """Runtime picks per-device chunk sizes proportional to configured speed."""


@dataclass(frozen=True)
class UniformSchedule:
    chunk_elements: int


@dataclass(frozen=True, eq=True)
class PerDeviceSchedule:
    # (device_id, chunk_elements) pairs; order preserved from the clause.
    entries: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


SchedulingSpec = Union[AutoSchedule, UniformSchedule, PerDeviceSchedule]


# --- Checked kernels ---------------------------------------------------------

@dataclass(frozen=True)
class ElementAssign:
    """One elementwise statement of a directive body: target <- expr per index."""

    target: BoundVar
    expr: Expr
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class KernelSpec:
    """A semantically checked directive, ready for code generation or execution."""

    name: str
    ins: tuple[BoundVar, ...]
    outs: tuple[BoundVar, ...]
    body: tuple[ElementAssign, ...]
    device: DeviceSelector = ALL_DEVICES
    scheduling: SchedulingSpec = AutoSchedule()
    locals_: tuple[BoundVar, ...] = ()
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    @property
    def array_ins(self) -> tuple[BoundVar, ...]:
        return tuple(v for v in self.ins if v.is_elementwise)

    @property
    def scalar_ins(self) -> tuple[BoundVar, ...]:
        return tuple(v for v in self.ins if not v.is_elementwise)

    @property
    def array_outs(self) -> tuple[BoundVar, ...]:
        return tuple(v for v in self.outs if v.is_elementwise)

    @property
    def arrays(self) -> tuple[BoundVar, ...]:
        """Every clause array once: array ins in clause order, then out-only
        arrays."""
        in_names = {v.name for v in self.array_ins}
        return self.array_ins + tuple(
            v for v in self.array_outs if v.name not in in_names)

    @property
    def local_names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.locals_)

    def binding(self, name: str) -> BoundVar:
        for v in (*self.ins, *self.outs, *self.locals_):
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def body_reads(self) -> tuple[BoundVar, ...]:
        """Non-local variables read by the body, in first-use order."""
        seen: list[BoundVar] = []
        for stmt in self.body:
            for name in expr_var_names(stmt.expr):
                if name in self.local_names:
                    continue
                v = self.binding(name)
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    @property
    def body_writes(self) -> tuple[BoundVar, ...]:
        """Non-local assignment targets, in first-write order."""
        seen: list[BoundVar] = []
        for stmt in self.body:
            if stmt.target.name in self.local_names:
                continue
            if stmt.target not in seen:
                seen.append(stmt.target)
        return tuple(seen)

    def scalar_defaults(self) -> Mapping[str, Union[int, float]]:
        """Zero-initialized values for every scalar input."""
        return {
            v.name: 0 if v.element_type is ElementType.INT else 0.0
            for v in self.scalar_ins
        }
