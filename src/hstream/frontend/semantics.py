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
    expr_vars,
)


@dataclass
class _Scope:
    symbols: dict[str, Declaration]


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
        # One diagnostic per unresolved occurrence, even when an expression is
        # visited both for clause coverage and for typing.
        self._resolved: dict[tuple[str, int, int], Optional[Declaration]] = {}

    def diag(self, line: int, col: int, code: str, message: str) -> None:
        self.diags.append(Diagnostic(line, col, code, message))

    # -- resolution ------------------------------------------------------------

    def resolve(self, name: str, line: int, col: int,
                scope: Optional[_Scope] = None) -> Optional[Declaration]:
        key = (name, line, col)
        if key in self._resolved:
            return self._resolved[key]
        decl = self._resolve_fresh(name, line, col, scope)
        self._resolved[key] = decl
        return decl

    def _resolve_fresh(self, name: str, line: int, col: int,
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
        """Type of an expression, or None if any operand failed to resolve."""
        if isinstance(expr, Var):
            decl = self.resolve(expr.name, expr.line, expr.col, scope)
            return decl.element_type if decl else None
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

    def check_assign_types(self, target_type: ElementType, expr: Expr,
                           scope: Optional[_Scope], line: int, col: int,
                           target_name: str) -> None:
        et = self.expr_type(expr, scope)
        if et is ElementType.DOUBLE and target_type is ElementType.INT:
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
        for var in expr_vars(stmt.expr):
            d = self.resolve(var.name, var.line, var.col)
            if d is not None and d.kind.is_elementwise:
                self.diag(var.line, var.col, errors.TYPE_MISMATCH,
                          f"{d.kind.value} '{var.name}' cannot be used in a plain "
                          f"statement; elementwise access is only available "
                          f"inside a directive body")
        if decl is None:
            return
        if decl.kind.is_elementwise:
            self.diag(stmt.line, stmt.col, errors.TYPE_MISMATCH,
                      f"{decl.kind.value} '{stmt.target}' cannot be assigned in a "
                      f"plain statement; use a directive body")
            return
        self.check_assign_types(decl.element_type, stmt.expr, None,
                                stmt.line, stmt.col, stmt.target)

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

        in_refs: list[VarRef] = []
        out_refs: list[VarRef] = []
        device = None
        scheduling = None
        for clause in node.clauses:
            if isinstance(clause, InClause):
                in_refs.extend(clause.refs)
            elif isinstance(clause, OutClause):
                out_refs.extend(clause.refs)
            elif isinstance(clause, InOutClause):
                in_refs.extend(clause.refs)
                out_refs.extend(clause.refs)
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

        ins = _dedup([bv for r in in_refs if (bv := self.bind_ref(r)) is not None])
        outs = _dedup([bv for r in out_refs if (bv := self.bind_ref(r)) is not None])
        in_names = {v.name for v in ins}
        out_names = {v.name for v in outs}

        # A variable listed in both a bare in and a bare out clause transfers
        # in both directions, i.e. behaves exactly like inout.

        scope = _Scope({})
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

            for var in expr_vars(stmt.expr):
                if var.name in scope.symbols:
                    continue
                decl = self.resolve(var.name, var.line, var.col, scope)
                if decl is not None and var.name not in in_names:
                    self.diag(var.line, var.col, errors.NOT_IN_CLAUSE,
                              f"'{var.name}' is read by the body but does not appear "
                              f"in an in or inout clause")

            tdecl = self.resolve(stmt.target, stmt.line, stmt.col, scope)
            if tdecl is None:
                self.expr_type(stmt.expr, scope)  # still surface nested problems
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
            self.check_assign_types(tdecl.element_type, stmt.expr, scope,
                                    stmt.line, stmt.col, stmt.target)
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
