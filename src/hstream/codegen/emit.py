"""Target code emission from checked kernels.

Each generator builds one compilable-shaped source fragment of its target
directly, as lines of C text; a multi-line block spliced into a line is
indented to its column by `_indent`. Emission is a pure function of the
kernel, so output is byte-deterministic, and the golden files in
`tests/golden/` pin it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from hstream.ir import (
    AllDevices,
    AutoSchedule,
    KernelSpec,
    UniformSchedule,
    format_expr,
)
from hstream.pdl import PlatformDescription


class TargetKind(Enum):
    OPENMP = "openmp"
    CUDA = "cuda"
    LEO = "leo"

    def __init__(self, value: str):
        # Plain attributes, since an enum's `value` is a Python-level
        # property and every generator reads the prefix.
        self.file_suffix = {"openmp": "_omp.c", "cuda": "_cuda.cu", "leo": "_leo.c"}[value]
        self.symbol_prefix = {"openmp": "CPU_", "cuda": "GPU_", "leo": "MIC_"}[value]


ALL_TARGETS = (TargetKind.OPENMP, TargetKind.CUDA, TargetKind.LEO)


@dataclass(frozen=True)
class EmittedUnit:
    function_name: str
    text: str


def _indent(text: str, column: int) -> str:
    """Indent the continuation lines of a multi-line block to `column`, the
    column at which its first line is spliced in."""
    return text.replace("\n", "\n" + " " * column)


def _body_lines(kernel: KernelSpec, index_symbol: str) -> str:
    """The body's C statements indexed by `index_symbol`, rendered once per
    kernel and symbol: the OpenMP and LEO loops share `i`."""
    text = kernel.body_texts.get(index_symbol)
    if text is None:
        text = kernel.body_texts[index_symbol] = _render_body(kernel, index_symbol)
    return text


def _render_body(kernel: KernelSpec, index_symbol: str) -> str:
    # A block-local shadows a clause array of the same name.
    indexed = frozenset(v.name for v in kernel.arrays) - kernel.local_names

    def name(n: str) -> str:
        return f"{n}[{index_symbol}]" if n in indexed else n

    lines = [f"{v.element_type.c_name} {v.name};" for v in kernel.locals_]
    for stmt in kernel.body:
        target = stmt.target.name
        if stmt.target.is_elementwise:
            target = f"{target}[{index_symbol}]"
        lines.append(f"{target} = {format_expr(stmt.expr, name)};")
    return "\n".join(lines)


# --- Per-target generators ------------------------------------------------------

def gen_openmp(kernel: KernelSpec) -> EmittedUnit:
    """Parallel host loop over the claimed index range [start, finish) with
    the elementwise body."""
    text = ("#pragma omp parallel for\n"
            "for (int i=start; i<finish; i++)\n"
            "{\n"
            f"    {_indent(_body_lines(kernel, 'i'), 4)}\n"
            "}")
    return EmittedUnit(TargetKind.OPENMP.symbol_prefix + kernel.name, text)


def cuda_params(kernel: KernelSpec) -> list[str]:
    """CUDA parameter list: arrays in in-clause order, then out-only arrays,
    then scalars, then the guard length."""
    return [f"{v.element_type.c_name} *{v.name}" for v in kernel.arrays] \
        + [f"{v.element_type.c_name} {v.name}" for v in kernel.scalar_ins] \
        + ["int len"]


def gen_cuda(kernel: KernelSpec) -> EmittedUnit:
    """Device kernel with pointer parameters, a trailing length, and an
    `idx < len` guard. The kernel never manages memory: the runtime
    scheduler allocates, copies and frees per chunk, through the driver's
    GPU stage, so no memory statement appears in the kernel text."""
    name = TargetKind.CUDA.symbol_prefix + kernel.name
    text = (f"__global__ void {name}( {', '.join(cuda_params(kernel))}) {{\n"
            "    int idx = threadIdx.x + blockIdx.x * blockDim.x;\n"
            "    if (idx < len)\n"
            "    {\n"
            f"        {_indent(_body_lines(kernel, 'idx'), 8)}\n"
            "    }\n"
            "}")
    return EmittedUnit(name, text)


def leo_clauses(kernel: KernelSpec) -> str:
    """Offload transfer clauses derived from the directive's in/out sets: one
    section per array input and output, cut to the claimed range, and one
    bare `in` per scalar input."""
    parts = [f"in({v.name}[my_start:my_finish])" if v.is_elementwise
             else f"in({v.name})" for v in kernel.ins]
    parts += [f"out({v.name}[my_start:my_finish])" for v in kernel.array_outs]
    return " ".join(parts)


def gen_leo(kernel: KernelSpec) -> EmittedUnit:
    """Offload pragma wrapping a parallel loop over [my_start, my_finish)."""
    text = (f"#pragma offload target(mic: cpu_thread_id) {leo_clauses(kernel)}\n"
            "{\n"
            "    #pragma omp parallel for\n"
            "    for (int i = my_start; i < my_finish; i++)\n"
            "    {\n"
            f"        {_indent(_body_lines(kernel, 'i'), 8)}\n"
            "    }\n"
            "}")
    return EmittedUnit(TargetKind.LEO.symbol_prefix + kernel.name, text)


_GENERATORS = {
    TargetKind.OPENMP: gen_openmp,
    TargetKind.CUDA: gen_cuda,
    TargetKind.LEO: gen_leo,
}


def generate(kernel: KernelSpec, target: TargetKind) -> EmittedUnit:
    return _GENERATORS[target](kernel)


# --- Driver -----------------------------------------------------------------------

_TARGET_CONSTANTS = {
    TargetKind.OPENMP: "HSTREAM_OPENMP",
    TargetKind.CUDA: "HSTREAM_CUDA",
    TargetKind.LEO: "HSTREAM_LEO",
}


def _device_text(kernel: KernelSpec) -> str:
    if isinstance(kernel.device, AllDevices):
        return "*"
    return ",".join(str(i) for i in kernel.device.ids)


def _scheduling_text(kernel: KernelSpec) -> str:
    spec = kernel.scheduling
    if isinstance(spec, AutoSchedule):
        return "AUTO"
    if isinstance(spec, UniformSchedule):
        return str(spec.chunk_elements)
    return ",".join(f"{d}:{s}" for d, s in spec.entries)


def _gpu_stage(kernel: KernelSpec) -> str:
    """The explicit allocate / copy-in / launch / copy-out / free sequence
    for one kernel. `start` and `myN` are bound to the claimed chunk's first
    element and length, so every buffer and copy covers that chunk only."""
    arrays = kernel.arrays
    decls = "\n".join(f"{v.element_type.c_name} *d_{v.name};" for v in arrays)
    body = [f"cudaCheckError(cudaMalloc((void **)&d_{v.name}, "
            f"sizeof({v.element_type.c_name})*myN));" for v in arrays]
    body += [f"cudaCheckError(cudaMemcpy(d_{v.name}, {v.name} + start, "
             f"sizeof({v.element_type.c_name})*myN, cudaMemcpyHostToDevice));"
             for v in kernel.array_ins]
    args = [f"d_{v.name}" for v in arrays] \
        + [v.name for v in kernel.scalar_ins] + ["myN"]
    launched = TargetKind.CUDA.symbol_prefix + kernel.name
    body.append(f"{launched}<<<(myN + BLOCK_SIZE - 1) / BLOCK_SIZE, "
                f"BLOCK_SIZE>>>({', '.join(args)});")
    body += [f"cudaCheckError(cudaMemcpy({v.name} + start, d_{v.name}, "
             f"sizeof({v.element_type.c_name})*myN, cudaMemcpyDeviceToHost));"
             for v in kernel.array_outs]
    body += [f"cudaCheckError(cudaFree(d_{v.name}));" for v in arrays]
    body_text = "\n".join(body)
    return (f"static void gpu_stage_{kernel.name}(int start, int finish) {{\n"
            "    int myN = finish - start;\n"
            f"    {_indent(decls, 4)}\n"
            f"    {_indent(body_text, 4)}\n"
            "}")


def gen_driver(kernels: Iterable[KernelSpec], platform: PlatformDescription,
               targets: tuple[TargetKind, ...] = ALL_TARGETS) -> EmittedUnit:
    """Driver source registering each kernel's per-target variants and invoking
    the runtime once per directive with its device and scheduling choices."""
    kernels = list(kernels)
    if not kernels:
        raise ValueError("gen_driver requires at least one kernel")

    helpers = "\n\n".join(_gpu_stage(k) for k in kernels) \
        if TargetKind.CUDA in targets else "/* no gpu kernels requested */"

    main = [f'hstream_platform_load("{platform.name}");']
    main += [f'hstream_register("{k.name}", {_TARGET_CONSTANTS[target]}, '
             f'{target.symbol_prefix}{k.name});'
             for k in kernels for target in targets]
    main += [f'hstream_execute("{k.name}", "{_device_text(k)}", '
             f'"{_scheduling_text(k)}");' for k in kernels]
    main_text = "\n".join(main)

    text = ("/* Generated heterogeneous driver. Do not edit. */\n"
            '#include "hstream_runtime.h"\n'
            "\n"
            "#define BLOCK_SIZE 256\n"
            "\n"
            f"{helpers}\n"
            "\n"
            "int main(void) {\n"
            f"    {_indent(main_text, 4)}\n"
            "    return 0;\n"
            "}")
    return EmittedUnit("main", text)

