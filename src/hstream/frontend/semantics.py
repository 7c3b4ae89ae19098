"""Semantic analysis: scope and type checking, clause normalization, IR building.

All problems found in one pass are collected and reported together, sorted by
position; an error in one directive never hides errors in its siblings.

Checked guarantees on every produced KernelSpec:
  * repeated in/out/inout clauses are merged (first-occurrence order, no dups);
  * inout(x), and the pair in(x) out(x), both put x in `ins` and `outs`;
  * device defaults to all units, scheduling defaults to AUTO;
  * every body identifier resolves to exactly one declaration;
  * every body read is covered by in/inout, every body write by out/inout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from hstream import errors
from hstream.errors import CompileError, Diagnostic
from hstream.frontend.ast import (
    Assignment,
    Declaration,
    DeviceClause,
    DirectiveNode,
    InClause,
    InOutClause,
    OutClause,
    Program,
    SchedulingClause,
    VarRef,
)
from hstream.ir import (
    ALL_DEVICES,
    AutoSchedule,
    BoundVar,
    ElementAssign,
    ElementType,
    Expr,
    KernelSpec,
    Neg,
    Num,
    Var,
    VarKind,
)


@dataclass
class _Scope:
    """A directive body: its locals, and the globals its clauses let it read."""

    symbols: dict[str, Declaration]
    readable: set[str]


class _Checker:
    def __init__(self, program: Program, unit_name: str):
        self.program = program
        self.unit_name = unit_name
        self.diags: list[Diagnostic] = []
        self.globals: dict[str, Declaration] = {}
        # Names declared anywhere at top level, for use-before-declaration messages.
        self.all_globals = {d.name: d for d in program.declarations}
        # Locals of directive bodies whose scope has closed.
        self.retired: dict[str, Declaration] = {}

    def diag(self, line: int, col: int, code: str, message: str) -> None:
        self.diags.append(Diagnostic(line, col, code, message))

    # -- resolution ------------------------------------------------------------

    def resolve(self, name: str, line: int, col: int,
                scope: Optional[_Scope] = None) -> Optional[Declaration]:
        if scope is not None and name in scope.symbols:
            return scope.symbols[name]
        if name in self.globals:
            return self.globals[name]
        if name in self.retired:
            decl = self.retired[name]
            self.diag(line, col, errors.OUT_OF_SCOPE,
                      f"'{name}' is not accessible here; it was declared inside a "
                      f"directive body on line {decl.line} whose scope has ended")
        elif name in self.all_globals:
            self.diag(line, col, errors.UNDECLARED,
                      f"'{name}' is used before its declaration on line "
                      f"{self.all_globals[name].line}")
        else:
            self.diag(line, col, errors.UNDECLARED, f"undeclared variable '{name}'")
        return None

    # -- expression typing -------------------------------------------------------

    def expr_type(self, expr: Expr, scope: Optional[_Scope]) -> Optional[ElementType]:
        """Type of an expression, or None if any operand failed to resolve.

        One walk resolves each variable once and checks the read: a directive
        body (`scope`) reads a global only through an in or inout clause, and
        a plain statement (no scope) reads no elementwise variable."""
        if isinstance(expr, Var):
            return self.read_type(expr, scope)
        if isinstance(expr, Num):
            return expr.element_type
        if isinstance(expr, Neg):
            return self.expr_type(expr.operand, scope)
        left = self.expr_type(expr.left, scope)
        right = self.expr_type(expr.right, scope)
        if left is None or right is None:
            return None
        if ElementType.DOUBLE in (left, right):
            return ElementType.DOUBLE
        return ElementType.INT

    def read_type(self, var: Var, scope: Optional[_Scope]) -> Optional[ElementType]:
        if scope is not None and var.name in scope.symbols:
            return scope.symbols[var.name].element_type
        decl = self.resolve(var.name, var.line, var.col)
        if decl is None:
            return None
        if scope is not None:
            if var.name not in scope.readable:
                self.diag(var.line, var.col, errors.NOT_IN_CLAUSE,
                          f"'{var.name}' is read by the body but does not appear "
                          f"in an in or inout clause")
        elif decl.kind.is_elementwise:
            self.diag(var.line, var.col, errors.TYPE_MISMATCH,
                      f"{decl.kind.value} '{var.name}' cannot be used in a plain "
                      f"statement; elementwise access is only available "
                      f"inside a directive body")
        return decl.element_type

    def check_assign_types(self, target_type: ElementType,
                           value_type: Optional[ElementType], line: int, col: int,
                           target_name: str) -> None:
        if value_type is ElementType.DOUBLE and target_type is ElementType.INT:
            self.diag(line, col, errors.TYPE_MISMATCH,
                      f"cannot assign a double expression to int '{target_name}' "
                      f"without a cast")

    # -- top level ----------------------------------------------------------------

    def run(self) -> list[KernelSpec]:
        kernels: list[KernelSpec] = []
        directives = self.program.directives
        multi = len(directives) > 1
        index = 0
        for item in self.program.items:
            if isinstance(item, Declaration):
                self.declare_global(item)
            elif isinstance(item, Assignment):
                self.check_plain_assignment(item)
            else:
                index += 1
                name = f"{self.unit_name}_{index}" if multi else self.unit_name
                spec = self.check_directive(item, name)
                if spec is not None:
                    kernels.append(spec)
        return kernels

    def declare_global(self, decl: Declaration) -> None:
        if decl.name in self.globals:
            first = self.globals[decl.name]
            self.diag(decl.line, decl.col, errors.DUP_DECL,
                      f"'{decl.name}' is already declared on line {first.line}")
            return
        self.globals[decl.name] = decl

    def check_plain_assignment(self, stmt: Assignment) -> None:
        decl = self.resolve(stmt.target, stmt.line, stmt.col)
        etype = self.expr_type(stmt.expr, None)
        if decl is None:
            return
        if decl.kind.is_elementwise:
            self.diag(stmt.line, stmt.col, errors.TYPE_MISMATCH,
                      f"{decl.kind.value} '{stmt.target}' cannot be assigned in a "
                      f"plain statement; use a directive body")
            return
        self.check_assign_types(decl.element_type, etype, stmt.line, stmt.col,
                                stmt.target)

    # -- directives ----------------------------------------------------------------

    def bind_ref(self, ref: VarRef) -> Optional[BoundVar]:
        decl = self.resolve(ref.name, ref.line, ref.col)
        if decl is None:
            return None
        if decl.kind is VarKind.STREAM:
            if ref.stream_type is None:
                self.diag(ref.line, ref.col, errors.TYPE_MISMATCH,
                          f"stream '{ref.name}' must be referenced as "
                          f"'{ref.name}:{decl.element_type.c_name}' in clauses")
            elif ref.stream_type is not decl.element_type:
                self.diag(ref.line, ref.col, errors.TYPE_MISMATCH,
                          f"stream '{ref.name}' is declared as "
                          f"{decl.element_type.c_name}, not {ref.stream_type.c_name}")
        elif ref.stream_type is not None:
            self.diag(ref.line, ref.col, errors.TYPE_MISMATCH,
                      f"':{ref.stream_type.c_name}' annotation is only valid for "
                      f"stream variables, and '{ref.name}' is a {decl.kind.value}")
        return BoundVar(ref.name, decl.kind, decl.element_type)

    def check_directive(self, node: DirectiveNode, name: str) -> Optional[KernelSpec]:
        before = len(self.diags)

        in_vars: list[BoundVar] = []
        out_vars: list[BoundVar] = []
        device = None
        scheduling = None
        for clause in node.clauses:
            if isinstance(clause, (InClause, OutClause, InOutClause)):
                # an inout reference is bound, and diagnosed, once
                bound = [bv for r in clause.refs if (bv := self.bind_ref(r)) is not None]
                if not isinstance(clause, OutClause):
                    in_vars += bound
                if not isinstance(clause, InClause):
                    out_vars += bound
            elif isinstance(clause, DeviceClause):
                if device is not None:
                    self.diag(clause.line, clause.col, errors.DUP_DEVICE,
                              "only one device clause may be provided per directive")
                else:
                    device = clause.selector
            elif isinstance(clause, SchedulingClause):
                if scheduling is not None:
                    self.diag(clause.line, clause.col, errors.DUP_SCHEDULING,
                              "only one scheduling clause may be provided per directive")
                else:
                    scheduling = clause.spec

        ins = _dedup(in_vars)
        outs = _dedup(out_vars)
        out_names = {v.name for v in outs}

        # A variable listed in both a bare in and a bare out clause transfers
        # in both directions, i.e. behaves exactly like inout.

        scope = _Scope({}, {v.name for v in ins})
        body: list[ElementAssign] = []
        local_vars: list[BoundVar] = []
        for stmt in node.body:
            if isinstance(stmt, Declaration):
                if stmt.name in scope.symbols:
                    first = scope.symbols[stmt.name]
                    self.diag(stmt.line, stmt.col, errors.DUP_DECL,
                              f"'{stmt.name}' is already declared in this body "
                              f"on line {first.line}")
                    continue
                scope.symbols[stmt.name] = stmt
                local_vars.append(BoundVar(stmt.name, VarKind.SCALAR, stmt.element_type))
                continue

            etype = self.expr_type(stmt.expr, scope)
            tdecl = self.resolve(stmt.target, stmt.line, stmt.col, scope)
            if tdecl is None:
                continue
            if stmt.target in scope.symbols:
                target = BoundVar(stmt.target, VarKind.SCALAR, tdecl.element_type)
            elif not tdecl.kind.is_elementwise:
                self.diag(stmt.line, stmt.col, errors.TYPE_MISMATCH,
                          f"scalar '{stmt.target}' cannot be an elementwise "
                          f"assignment target inside a directive body")
                continue
            else:
                if stmt.target not in out_names:
                    self.diag(stmt.line, stmt.col, errors.NOT_IN_CLAUSE,
                              f"'{stmt.target}' is written by the body but does not "
                              f"appear in an out or inout clause")
                target = BoundVar(stmt.target, tdecl.kind, tdecl.element_type)
            self.check_assign_types(tdecl.element_type, etype, stmt.line, stmt.col,
                                    stmt.target)
            body.append(ElementAssign(target, stmt.expr, stmt.line, stmt.col))

        self.retired.update(scope.symbols)

        if len(self.diags) > before:
            return None
        return KernelSpec(
            name=name,
            ins=tuple(ins),
            outs=tuple(outs),
            body=tuple(body),
            device=device if device is not None else ALL_DEVICES,
            scheduling=scheduling if scheduling is not None else AutoSchedule(),
            locals_=tuple(local_vars),
            line=node.line,
            col=node.col,
        )


def _dedup(vars_: list[BoundVar]) -> list[BoundVar]:
    seen: set[str] = set()
    out: list[BoundVar] = []
    for v in vars_:
        if v.name not in seen:
            seen.add(v.name)
            out.append(v)
    return out


def check(program: Program, unit_name: str = "Kernel") -> list[KernelSpec]:
    """Produce one KernelSpec per directive, or raise CompileError with every
    semantic diagnostic found, sorted by source position."""
    checker = _Checker(program, unit_name)
    kernels = checker.run()
    if checker.diags:
        raise CompileError(checker.diags)
    return kernels
