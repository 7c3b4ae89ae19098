"""Target code emission from checked kernels.

Each generator renders one compilable-shaped source fragment through the
template group of its target. Emission is a pure function of the kernel and
the template set, so output is byte-deterministic.

Golden comparisons use `normalize_ws`, which collapses horizontal whitespace
runs and trailing blanks but preserves line structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from hstream.codegen.templates import load_group
from hstream.ir import (
    AllDevices,
    AutoSchedule,
    KernelSpec,
    UniformSchedule,
    format_expr,
)
from hstream.pdl import PlatformDescription

DEFAULT_BLOCK_SIZE = 256


class TargetKind(Enum):
    OPENMP = "openmp"
    CUDA = "cuda"
    LEO = "leo"

    @property
    def file_suffix(self) -> str:
        return {"openmp": "_omp.c", "cuda": "_cuda.cu", "leo": "_leo.c"}[self.value]

    @property
    def symbol_prefix(self) -> str:
        return {"openmp": "CPU_", "cuda": "GPU_", "leo": "MIC_"}[self.value]


ALL_TARGETS = (TargetKind.OPENMP, TargetKind.CUDA, TargetKind.LEO)


@dataclass(frozen=True)
class EmittedUnit:
    target: Optional[TargetKind]  # None for the driver
    function_name: str
    text: str
    symbols: dict[str, str]


def _body_lines(kernel: KernelSpec, index_symbol: str) -> str:
    # A block-local shadows a clause array of the same name.
    indexed = frozenset(
        v.name for v in (*kernel.ins, *kernel.outs) if v.is_elementwise
    ) - kernel.local_names

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
    """Parallel host loop over [start, finish) with the elementwise body."""
    text = load_group("openmp").render(
        "parallel_for", start="start", finish="finish",
        body=_body_lines(kernel, "i"),
    )
    return EmittedUnit(
        target=TargetKind.OPENMP,
        function_name=f"CPU_{kernel.name}",
        text=text,
        symbols={"loop_var": "i", "start": "start", "finish": "finish"},
    )


def cuda_params(kernel: KernelSpec) -> list[str]:
    """CUDA parameter list: arrays in in-clause order, then out-only arrays,
    then scalars, then the guard length."""
    return [f"{v.element_type.c_name} *{v.name}" for v in kernel.arrays] \
        + [f"{v.element_type.c_name} {v.name}" for v in kernel.scalar_ins] \
        + ["int len"]


def gen_cuda(kernel: KernelSpec) -> EmittedUnit:
    """Device kernel with pointer parameters, a trailing length, and an
    `idx < len` guard. Memory management is the runtime scheduler's job and
    never appears in the kernel text."""
    name = f"GPU_{kernel.name}"
    text = load_group("cuda").render(
        "kernel", name=name,
        params=", ".join(cuda_params(kernel)),
        body=_body_lines(kernel, "idx"),
    )
    return EmittedUnit(
        target=TargetKind.CUDA,
        function_name=name,
        text=text,
        symbols={"index": "idx", "length": "len"},
    )


def leo_clauses(kernel: KernelSpec) -> str:
    """Offload transfer clauses: one section per array input and output,
    one bare `in` per scalar input."""
    group = load_group("leo")
    parts: list[str] = []
    for v in kernel.ins:
        if v.is_elementwise:
            parts.append(group.render("in_section", var=v.name))
        else:
            parts.append(group.render("in_scalar", var=v.name))
    for v in kernel.array_outs:
        parts.append(group.render("out_section", var=v.name))
    return " ".join(parts)


def gen_leo(kernel: KernelSpec) -> EmittedUnit:
    """Offload pragma wrapping a parallel loop over [my_start, my_finish)."""
    text = load_group("leo").render(
        "offload", clauses=leo_clauses(kernel), body=_body_lines(kernel, "i"),
    )
    return EmittedUnit(
        target=TargetKind.LEO,
        function_name=f"MIC_{kernel.name}",
        text=text,
        symbols={"loop_var": "i", "start": "my_start", "finish": "my_finish",
                 "controller": "cpu_thread_id"},
    )


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
    cuda = load_group("cuda")
    driver = load_group("driver")
    arrays = kernel.arrays

    decls = [driver.render("pointer_decl", type=v.element_type.c_name, var=v.name)
             for v in arrays]
    body: list[str] = []
    body += [cuda.render("malloc", var=v.name, type=v.element_type.c_name)
             for v in arrays]
    body += [cuda.render("memcpy_host_to_device", **{
        "from": v.name, "to": v.name, "type": v.element_type.c_name,
    }) for v in kernel.array_ins]
    args = [f"d_{v.name}" for v in arrays] \
        + [v.name for v in kernel.scalar_ins] + ["myN"]
    body.append(cuda.render("launch", name=f"GPU_{kernel.name}",
                            block_size="BLOCK_SIZE", args=", ".join(args)))
    body += [cuda.render("memcpy_device_to_host", **{
        "from": v.name, "to": v.name, "type": v.element_type.c_name,
    }) for v in kernel.array_outs]
    body += [cuda.render("free", var=v.name) for v in arrays]
    return driver.render("gpu_stage", name=kernel.name,
                         pointer_decls="\n".join(decls),
                         stage_body="\n".join(body))


def gen_driver(kernels: Iterable[KernelSpec], platform: PlatformDescription,
               targets: tuple[TargetKind, ...] = ALL_TARGETS,
               block_size: int = DEFAULT_BLOCK_SIZE) -> EmittedUnit:
    """Driver source registering each kernel's per-target variants and invoking
    the runtime once per directive with its device and scheduling choices."""
    kernels = list(kernels)
    if not kernels:
        raise ValueError("gen_driver requires at least one kernel")
    driver = load_group("driver")

    helpers = "\n\n".join(_gpu_stage(k) for k in kernels) \
        if TargetKind.CUDA in targets else "/* no gpu kernels requested */"

    main_lines = [driver.render("platform_load", name=platform.name)]
    for k in kernels:
        for target in targets:
            main_lines.append(driver.render(
                "register", kernel=k.name,
                target=_TARGET_CONSTANTS[target],
                symbol=f"{target.symbol_prefix}{k.name}",
            ))
    for k in kernels:
        main_lines.append(driver.render(
            "execute", kernel=k.name,
            device=_device_text(k), scheduling=_scheduling_text(k),
        ))

    text = driver.render("file", block_size=block_size,
                         helpers=helpers, main_body="\n".join(main_lines))
    return EmittedUnit(target=None, function_name="main", text=text,
                       symbols={"block_size": str(block_size)})


# --- Output normalization for golden comparison ------------------------------------

def normalize_ws(text: str) -> str:
    """Documented whitespace normalization for golden-file comparison:
    horizontal whitespace runs collapse to one space, trailing whitespace and
    leading/trailing blank lines are dropped. Line breaks are preserved."""
    lines = [re.sub(r"[ \t]+", " ", ln).rstrip() for ln in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
