"""Executable elementwise kernels: the interpreted form shared by every
execution path (host loop, simulated accelerators, sequential reference).

A kernel's statements are compiled once into numpy closures; evaluation over a
range touches only that range, so output index i depends only on input index i
and the scalar environment. Integer division follows C semantics (truncation
toward zero); integer division by zero yields 0, and INT_MIN / -1 wraps to
INT_MIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

import numpy as np

from hstream.ir import (
    BinOp,
    ElementType,
    Expr,
    KernelSpec,
    Neg,
    Num,
    Var,
)

Scalar = Union[int, float]
Env = dict[str, Union[np.ndarray, Scalar]]


def _is_integer(value) -> bool:
    if isinstance(value, np.ndarray):
        return np.issubdtype(value.dtype, np.integer)
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _divide(left, right):
    if _is_integer(left) and _is_integer(right):
        a = np.asarray(left)
        b = np.asarray(right)
        # floor_divide gives 0 for x / 0 and wraps INT_MIN / -1 to INT_MIN
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = np.floor_divide(a, b)
            r = a - q * b
        # floor -> truncation toward zero, except after a zero divisor
        return q + ((r != 0) & ((a < 0) != (b < 0)) & (b != 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(left, right)


def compile_expr(expr: Expr) -> Callable[[Env], Union[np.ndarray, Scalar]]:
    """Compile an expression tree into a closure over an evaluation env."""
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name
        return lambda env: env[name]
    if isinstance(expr, Neg):
        inner = compile_expr(expr.operand)
        return lambda env: -inner(env)
    if isinstance(expr, BinOp):
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
        if expr.op == "+":
            return lambda env: left(env) + right(env)
        if expr.op == "-":
            return lambda env: left(env) - right(env)
        if expr.op == "*":
            return lambda env: left(env) * right(env)
        if expr.op == "/":
            return lambda env: _divide(left(env), right(env))
        raise ValueError(f"unknown operator {expr.op!r}")
    raise TypeError(f"not an expression: {expr!r}")


@dataclass
class ExecutableKernel:
    """A checked directive bound to scalar values, ready to run.

    `transfer_ins`/`transfer_outs` mirror the clause semantics (what moves to
    and from accelerator memory); `input_arrays` is the subset whose initial
    host values the body actually reads, which is what a stream source must
    supply. `bytes_per_element` is the throughput accounting convention:
    one element-size per body array read plus one per array write.
    """

    name: str
    input_arrays: tuple[str, ...]
    output_arrays: tuple[str, ...]
    transfer_ins: tuple[str, ...]
    transfer_outs: tuple[str, ...]
    array_types: dict[str, ElementType]
    scalars: dict[str, Scalar]
    locals_: tuple[tuple[str, ElementType], ...]
    statements: tuple[tuple[str, Callable[[Env], object]], ...] = field(repr=False)
    bytes_per_element: int = 0
    # derived lookups, precomputed because the executor hits them per chunk
    array_names: tuple[str, ...] = field(init=False, repr=False)
    element_sizes: dict[str, int] = field(init=False, repr=False)
    numpy_dtypes: dict[str, "np.dtype"] = field(init=False, repr=False)
    buffer_bytes_per_element: int = field(init=False, repr=False)
    # widest element, which sizes byte-denominated batches and chunks
    max_element_size: int = field(init=False, repr=False)
    # bytes one element moves to and from an accelerator (ins plus outs)
    transfer_bytes_per_element: int = field(init=False, repr=False)
    # out-only arrays no statement writes (a local of the same name shadows
    # one): nothing fills their accelerator buffers, so those start at zero
    unwritten_outs: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        seen: list[str] = []
        for n in (*self.transfer_ins, *self.transfer_outs):
            if n not in seen:
                seen.append(n)
        self.array_names = tuple(seen)
        self.element_sizes = {n: self.array_types[n].size_bytes for n in seen}
        self.numpy_dtypes = {n: np.dtype(self.array_types[n].numpy_dtype)
                             for n in seen}
        self.buffer_bytes_per_element = sum(self.element_sizes.values())
        self.max_element_size = max(self.element_sizes.values(), default=8)
        self.transfer_bytes_per_element = sum(
            self.element_sizes[n] for n in (*self.transfer_ins, *self.transfer_outs))
        written = {t for t, _ in self.statements} - {n for n, _ in self.locals_}
        self.unwritten_outs = tuple(n for n in self.transfer_outs
                                    if n not in self.transfer_ins and n not in written)

    @classmethod
    def from_kernel_spec(
            cls, spec: KernelSpec,
            scalar_values: Mapping[str, Scalar] | None = None) -> "ExecutableKernel":
        values = dict(spec.scalar_defaults())
        if scalar_values:
            for key, val in scalar_values.items():
                if key in values:
                    values[key] = val
        body_read_names = [v.name for v in spec.body_reads if v.is_elementwise]
        transfer_ins = tuple(v.name for v in spec.array_ins)
        inputs = tuple(v for v in transfer_ins if v in body_read_names)
        array_types = {v.name: v.element_type
                       for v in (*spec.ins, *spec.outs) if v.is_elementwise}
        statements = tuple(
            (stmt.target.name, compile_expr(stmt.expr)) for stmt in spec.body
        )
        bytes_per_element = sum(
            array_types[n].size_bytes for n in body_read_names
        ) + sum(v.element_type.size_bytes for v in spec.body_writes if v.is_elementwise)
        return cls(
            name=spec.name,
            input_arrays=inputs,
            output_arrays=tuple(v.name for v in spec.array_outs),
            transfer_ins=transfer_ins,
            transfer_outs=tuple(v.name for v in spec.array_outs),
            array_types=array_types,
            scalars=values,
            locals_=tuple((v.name, v.element_type) for v in spec.locals_),
            statements=statements,
            bytes_per_element=bytes_per_element,
        )

    def eval_into(self, arrays: Mapping[str, np.ndarray], length: int) -> None:
        """Run the body over `length` elements, writing targets in place.

        Statements execute in order; each is elementwise, so whole-range
        application is equivalent to a per-index loop.
        """
        env: Env = dict(self.scalars)
        env.update(arrays)
        for lname, ltype in self.locals_:
            env[lname] = np.zeros(length, dtype=ltype.numpy_dtype)
        for target, fn in self.statements:
            env[target][:] = fn(env)


def evaluate_sequential(kernel: ExecutableKernel,
                        inputs: Mapping[str, np.ndarray],
                        length: int | None = None) -> dict[str, np.ndarray]:
    """Single-pass reference evaluation; returns the output arrays.

    Only `kernel.output_arrays` get fresh buffers (copied inputs, else zeros):
    semantics rejects a body write outside an out or inout clause, so the rest
    are read in place and the caller's arrays are never written. Chunked and
    multi-device runs must match this bitwise.
    """
    if length is None:
        length = len(next(iter(inputs.values())))
    arrays: dict[str, np.ndarray] = {}
    for name in kernel.array_names:
        dtype = kernel.numpy_dtypes[name]
        if name not in inputs:
            arrays[name] = np.zeros(length, dtype=dtype)
        elif name in kernel.output_arrays:
            arrays[name] = np.array(inputs[name], dtype=dtype, copy=True)
        else:
            arrays[name] = np.asarray(inputs[name], dtype=dtype)
    kernel.eval_into(arrays, length)
    return {name: arrays[name] for name in kernel.output_arrays}
