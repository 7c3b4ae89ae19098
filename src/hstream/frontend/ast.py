"""Syntax tree for host programs: declarations, plain statements, directives.

``format_program`` renders a Program back to source; re-parsing its output
yields a structurally identical tree (positions excluded from equality).
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional, Union

from hstream.ir import (
    AllDevices,
    AutoSchedule,
    DeviceSelector,
    ElementType,
    Expr,
    SchedulingSpec,
    UniformSchedule,
    VarKind,
    format_expr,
    syntax_node,
)


@syntax_node
class VarRef:
    """A clause operand; stream refs carry their `name:type` annotation."""

    name: str
    stream_type: Optional[ElementType] = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class InClause:
    refs: tuple[VarRef, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class OutClause:
    refs: tuple[VarRef, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class InOutClause:
    refs: tuple[VarRef, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class DeviceClause:
    selector: DeviceSelector
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class SchedulingClause:
    spec: SchedulingSpec
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Clause = Union[InClause, OutClause, InOutClause, DeviceClause, SchedulingClause]


@syntax_node
class Declaration:
    name: str
    element_type: ElementType
    kind: VarKind
    array_size: Optional[int] = None  # set iff kind is ARRAY
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@syntax_node
class Assignment:
    target: str
    expr: Expr
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


BodyItem = Union[Declaration, Assignment]


@syntax_node
class DirectiveNode:
    clauses: tuple[Clause, ...]
    body: tuple[BodyItem, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


TopItem = Union[Declaration, Assignment, DirectiveNode]


@syntax_node
class Program:
    items: tuple[TopItem, ...]

    @property
    def declarations(self) -> tuple[Declaration, ...]:
        return tuple(i for i in self.items if isinstance(i, Declaration))

    @property
    def statements(self) -> tuple[Union[Assignment, DirectiveNode], ...]:
        return tuple(i for i in self.items if not isinstance(i, Declaration))

    @property
    def directives(self) -> tuple[DirectiveNode, ...]:
        return tuple(i for i in self.items if isinstance(i, DirectiveNode))


# --- Pretty printer ----------------------------------------------------------

def _format_declaration(d: Declaration) -> str:
    if d.kind is VarKind.STREAM:
        return f"stream<{d.element_type.c_name}> {d.name};"
    if d.kind is VarKind.ARRAY:
        return f"{d.element_type.c_name} {d.name}[{d.array_size}];"
    return f"{d.element_type.c_name} {d.name};"


def _format_ref(r: VarRef) -> str:
    if r.stream_type is not None:
        return f"{r.name}:{r.stream_type.c_name}"
    return r.name


def format_clause(c: Clause) -> str:
    if isinstance(c, InClause):
        return f"in({', '.join(_format_ref(r) for r in c.refs)})"
    if isinstance(c, OutClause):
        return f"out({', '.join(_format_ref(r) for r in c.refs)})"
    if isinstance(c, InOutClause):
        return f"inout({', '.join(_format_ref(r) for r in c.refs)})"
    if isinstance(c, DeviceClause):
        if isinstance(c.selector, AllDevices):
            return "device(*)"
        return f"device({', '.join(str(i) for i in c.selector.ids)})"
    if isinstance(c, SchedulingClause):
        spec = c.spec
        if isinstance(spec, AutoSchedule):
            return "scheduling(AUTO)"
        if isinstance(spec, UniformSchedule):
            return f"scheduling({spec.chunk_elements})"
        pairs = ", ".join(f"{d}:{s}" for d, s in spec.entries)
        return f"scheduling({pairs})"
    raise TypeError(f"not a clause: {c!r}")


def format_program(program: Program) -> str:
    lines: list[str] = []
    for item in program.items:
        if isinstance(item, Declaration):
            lines.append(_format_declaration(item))
        elif isinstance(item, Assignment):
            lines.append(f"{item.target} = {format_expr(item.expr)};")
        else:
            clauses = " ".join(format_clause(c) for c in item.clauses)
            lines.append(f"#pragma hstream {clauses}".rstrip())
            lines.append("{")
            for stmt in item.body:
                if isinstance(stmt, Declaration):
                    lines.append(f"    {_format_declaration(stmt)}")
                else:
                    lines.append(f"    {stmt.target} = {format_expr(stmt.expr)};")
            lines.append("}")
    return "\n".join(lines) + "\n"
