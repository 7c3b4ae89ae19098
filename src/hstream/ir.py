"""Checked intermediate representation shared by the frontend, codegen, and runtime.

Positions (line/col) are carried for diagnostics but excluded from equality so
that structurally identical kernels compare equal regardless of where they
were written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping, Union


# Tokens, syntax nodes and IR nodes are built by the thousand per compile. A
# slotted dataclass's plain `__init__` costs a third of a frozen one's; nodes
# are never changed once built, so they still hash by value.
syntax_node = dataclass(slots=True, unsafe_hash=True)


class ElementType(Enum):
    INT = "int"
    DOUBLE = "double"

    def __init__(self, c_name: str):
        # The C spelling, read for every array by every generator: a plain
        # attribute, since an enum's `value` is a Python-level property.
        self.c_name = c_name

    @property
    def size_bytes(self) -> int:
        return 4 if self is ElementType.INT else 8

    @property
    def numpy_dtype(self) -> str:
        """The numpy dtype's name; the compiler never loads numpy."""
        return "int32" if self is ElementType.INT else "float64"


class VarKind(Enum):
    SCALAR = "scalar"
    ARRAY = "array"
    STREAM = "stream"

    @property
    def is_elementwise(self) -> bool:
        return self is not VarKind.SCALAR


@syntax_node
class BoundVar:
    """A clause or body variable resolved against its declaration."""

    name: str
    kind: VarKind
    element_type: ElementType

    @property
    def is_elementwise(self) -> bool:
        return self.kind.is_elementwise


# --- Expressions -----------------------------------------------------------

@syntax_node
class Num:
    value: Union[int, float]
    element_type: ElementType
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class Var:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class Neg:
    operand: "Expr"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Expr = Union[Num, Var, Neg, BinOp]


def expr_vars(expr: Expr) -> list[Var]:
    """Every variable occurrence in an expression, from left to right."""
    found: list[Var] = []
    pending = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, BinOp):
            pending += (node.right, node.left)
        elif isinstance(node, Var):
            found.append(node)
        elif isinstance(node, Neg):
            pending.append(node.operand)
    return found


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _format_num(value: Union[int, float]) -> str:
    text = repr(value)
    # The lexer reads a float only with a point: 1e-05 is printed 1.0e-05.
    if "e" in text and "." not in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}.0e{exponent}"
    return text


def format_expr(expr: Expr, name: Callable[[str], str] = str) -> str:
    """Expression text, for the source printer and every target alike.

    `name` renders a variable (codegen appends its index). The text re-parses
    to the same tree and C evaluates it in the same order: a right operand of
    equal or lower precedence keeps its parentheses, since floating-point
    + and * do not associate, and text after a - never begins with -, so no
    -- (a C decrement) is printed.
    """
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        left = format_expr(expr.left, name)
        right = format_expr(expr.right, name)
        if isinstance(expr.left, BinOp) and _PRECEDENCE[expr.left.op] < prec:
            left = f"({left})"
        if (isinstance(expr.right, BinOp) and _PRECEDENCE[expr.right.op] <= prec) \
                or (expr.op == "-" and right.startswith("-")):
            right = f"({right})"
        return f"{left}{expr.op}{right}"
    if isinstance(expr, Var):
        return name(expr.name)
    if isinstance(expr, Num):
        return _format_num(expr.value)
    if isinstance(expr, Neg):
        inner = format_expr(expr.operand, name)
        if isinstance(expr.operand, BinOp) or inner.startswith("-"):
            inner = f"({inner})"
        return f"-{inner}"
    raise TypeError(f"not an expression: {expr!r}")


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

@syntax_node
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

    # Codegen's rendering of the body, one text per index symbol, filled on
    # first use by `hstream.codegen.emit`.
    body_texts: dict[str, str] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    # The views below are computed on first use: a spec never changes.

    @cached_property
    def array_ins(self) -> tuple[BoundVar, ...]:
        return tuple(v for v in self.ins if v.is_elementwise)

    @cached_property
    def scalar_ins(self) -> tuple[BoundVar, ...]:
        return tuple(v for v in self.ins if not v.is_elementwise)

    @cached_property
    def array_outs(self) -> tuple[BoundVar, ...]:
        return tuple(v for v in self.outs if v.is_elementwise)

    @cached_property
    def arrays(self) -> tuple[BoundVar, ...]:
        """Every clause array once: array ins in clause order, then out-only
        arrays."""
        in_names = {v.name for v in self.array_ins}
        return self.array_ins + tuple(
            v for v in self.array_outs if v.name not in in_names)

    @cached_property
    def local_names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.locals_)

    def binding(self, name: str) -> BoundVar:
        for v in (*self.ins, *self.outs, *self.locals_):
            if v.name == name:
                return v
        raise KeyError(name)

    @cached_property
    def body_reads(self) -> tuple[BoundVar, ...]:
        """Non-local variables read by the body, in first-use order."""
        seen: list[BoundVar] = []
        for stmt in self.body:
            for var in expr_vars(stmt.expr):
                if var.name in self.local_names:
                    continue
                v = self.binding(var.name)
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    @cached_property
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
