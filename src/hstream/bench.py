"""Memory-throughput kernel suite and sweep driver.

The six kernels (COPY, SCALE, ADD, TRIAD, FILL, DAXPY) are defined as pragma
source and compiled through the regular frontend, so the sweep exercises the
whole stack. Every run is verified bitwise against the sequential reference
before its throughput is recorded; an unverified run aborts the sweep naming
the cell. A paced run's throughput is modelled: the executor's virtual clock
gives the same figure on every run, whatever else the host is doing.

A sweep generates each group's inputs once, read-only, and every device
configuration of the group streams slices of them. One worker thread builds
the next group's inputs and reference while the current group's cells run.

Bytes-per-element accounting follows the usual memory-benchmark convention:
one element-size per array read plus one per array write (COPY/SCALE move 2
arrays, ADD/TRIAD/DAXPY 3, FILL 1).
"""

from __future__ import annotations

import io
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from hstream.errors import ResolveError, VerificationError
from hstream.frontend import compile_source
from hstream.ir import DeviceIds, ElementType, KernelSpec, UniformSchedule
from hstream.pdl import PlatformDescription, PuKind, resolve_devices
from hstream.pipeline import GeneratedSource, MemorySink, run_pipeline
from hstream.runtime import ExecutableKernel, charge_seconds, evaluate_sequential

MB = 2**20
DOUBLE_BYTES = ElementType.DOUBLE.size_bytes

DEFAULT_SCALAR = 3.0


@dataclass(frozen=True)
class KernelDef:
    name: str
    body: str
    clauses: str
    bytes_per_element: int


_KERNEL_DEFS = (
    KernelDef("COPY", "a = b;", "in(b) out(a)", 16),
    KernelDef("SCALE", "a = scalar*b;", "in(b, scalar) out(a)", 16),
    KernelDef("ADD", "c = a + b;", "in(a, b) out(c)", 24),
    KernelDef("TRIAD", "a = b+scalar*c;", "in(b,c,a,scalar) out(a)", 24),
    KernelDef("FILL", "a = scalar;", "in(scalar) out(a)", 8),
    KernelDef("DAXPY", "y = y + scalar*x;", "in(x, scalar) inout(y)", 24),
)

_DECLS = """\
double a[1024];
double b[1024];
double c[1024];
double x[1024];
double y[1024];
double scalar;
"""


def kernel_catalog() -> list[KernelDef]:
    """The six benchmark kernels with their elementwise bodies."""
    return list(_KERNEL_DEFS)


def kernel_def(name: str) -> KernelDef:
    for k in _KERNEL_DEFS:
        if k.name == name.upper():
            return k
    raise KeyError(f"unknown benchmark kernel '{name}' "
                   f"(have {[k.name for k in _KERNEL_DEFS]})")


def build_kernel(defn: KernelDef, scalar: float = DEFAULT_SCALAR,
                 chunk_elements: int = 4096) -> tuple[KernelSpec, ExecutableKernel]:
    """Compile one benchmark kernel through the frontend and bind its scalar."""
    source = (f"{_DECLS}"
              f"#pragma hstream {defn.clauses} device(*) scheduling({chunk_elements})\n"
              f"{{\n    {defn.body}\n}}\n")
    spec = compile_source(source, defn.name).kernels[0]
    kernel = ExecutableKernel.from_kernel_spec(spec, {"scalar": scalar})
    if kernel.bytes_per_element != defn.bytes_per_element:
        raise VerificationError(
            f"{defn.name}: accounting drifted, {kernel.bytes_per_element} != "
            f"{defn.bytes_per_element} bytes/element")
    return spec, kernel


# --- Device configurations ---------------------------------------------------------

_CONFIG_RE = re.compile(r"^(?P<cpu>CPU)?(?:\+?(?P<n>\d+)GPUs?)?$", re.IGNORECASE)


def resolve_config(platform: PlatformDescription, name: str) -> DeviceIds:
    """Named unit sets: 'CPU', '<k>GPUs', 'CPU+<k>GPUs'."""
    m = _CONFIG_RE.match(name.strip())
    if not m or (not m.group("cpu") and not m.group("n")):
        raise ResolveError(f"cannot parse device configuration '{name}'")
    ids: list[int] = []
    if m.group("cpu"):
        cpus = platform.of_kind(PuKind.CPU)
        ids.extend(pu.id for pu in cpus)
    if m.group("n"):
        want = int(m.group("n"))
        gpus = platform.of_kind(PuKind.GPU)
        if len(gpus) < want:
            raise ResolveError(
                f"configuration '{name}' wants {want} gpus, platform "
                f"'{platform.name}' has {len(gpus)}")
        ids.extend(pu.id for pu in gpus[:want])
    if not ids:
        raise ResolveError(f"configuration '{name}' names no processing units")
    return DeviceIds(tuple(ids))


# --- Experiment plans ----------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    kernels: tuple[str, ...]
    stream_sizes_mb: tuple[float, ...]
    chunk_sizes_mb: tuple[float, ...]
    device_configs: tuple[str, ...]
    repeats: int
    seed: int = 42
    batch_mb: Optional[float] = None  # None = whole stream in one batch

    def __post_init__(self):
        if not (self.kernels and self.stream_sizes_mb and self.chunk_sizes_mb
                and self.device_configs and self.repeats >= 1):
            raise ValueError("experiment plan lists must be non-empty, repeats >= 1")
        for mb in (*self.stream_sizes_mb, *self.chunk_sizes_mb, self.batch_mb):
            if mb is not None and not 0 < mb < math.inf:
                raise ValueError(f"experiment plan sizes must be positive, "
                                 f"finite MB; got {mb}")

    @property
    def cells(self) -> int:
        return (len(self.kernels) * len(self.stream_sizes_mb)
                * len(self.chunk_sizes_mb) * len(self.device_configs))


def desk_plan() -> ExperimentPlan:
    """CI-sized sweep. Every cell keeps >= 256 chunks per stream: with uniform
    chunking, a slow unit holding one of the last chunks stalls the finish, so
    short streams would mask the extra capacity of a wider device set."""
    return ExperimentPlan(
        kernels=tuple(k.name for k in _KERNEL_DEFS),
        stream_sizes_mb=(64,),
        chunk_sizes_mb=(0.125, 0.25),
        device_configs=("CPU", "4GPUs", "CPU+4GPUs"),
        repeats=4,
    )


def paper_plan() -> ExperimentPlan:
    """The full-scale factorial sweep (hours of simulated time; not for CI)."""
    return ExperimentPlan(
        kernels=tuple(k.name for k in _KERNEL_DEFS),
        stream_sizes_mb=(256, 512, 1024, 2048, 4096, 8192),
        chunk_sizes_mb=(1, 2, 4, 8, 16, 32, 64),
        device_configs=("CPU", "4GPUs", "CPU+4GPUs"),
        repeats=10,
    )


@dataclass(frozen=True)
class ResultRow:
    kernel: str
    stream_mb: float
    chunk_mb: float
    device_config: str
    repeat_index: int
    throughput_mb_s: float
    verified: bool


def elements_in(mb: float, element_size: int, what: str = "a size") -> int:
    """Whole elements of `element_size` bytes in `mb` MB, at least one; `what`
    names the size in the ValueError raised unless `mb` is positive and finite."""
    if not 0 < mb < math.inf:
        raise ValueError(f"{what} must be a positive, finite number of MB; got {mb}")
    return max(1, int(mb * MB) // element_size)


def ideal_seconds(kernel: ExecutableKernel, platform: PlatformDescription,
                  device: DeviceIds, total_elements: int) -> float:
    """Lower-bound wall time: every unit serves elements at its modelled rate
    (compute plus, for accelerators, per-element transfer volume)."""
    rate = sum(1.0 / charge_seconds(pu, kernel, 1)
               for pu in resolve_devices(platform, device))
    return total_elements / rate


def _same_bits(produced: np.ndarray, expected: np.ndarray) -> bool:
    """Bitwise equality through integer views of the same bytes: no copies,
    and unlike a float comparison it tells -0.0 from 0.0."""
    bits = np.dtype(f"u{expected.dtype.itemsize}")
    return produced.dtype == expected.dtype \
        and np.array_equal(produced.view(bits), expected.view(bits))


def reference(defn: KernelDef, stream_mb: float, repeat_index: int,
              seed: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The inputs of one (kernel, stream, repeat), made read-only, and the
    sequential oracle's outputs for them. Neither the chunk size nor the
    device set changes either, so every cell of a group shares both."""
    _, kernel = build_kernel(defn)
    total_elements = elements_in(stream_mb, DOUBLE_BYTES)
    inputs = GeneratedSource(kernel.input_arrays, total_elements,
                             seed=seed + 1009 * repeat_index).read_all()
    for array in inputs.values():
        array.flags.writeable = False
    return inputs, evaluate_sequential(kernel, inputs, total_elements)


class _SharedSource:
    """Streams slices of a group's shared inputs: views of the read-only
    arrays, copies of those the kernel writes. A runtime that writes an array
    it should only read fails, instead of changing the next cell's inputs."""

    def __init__(self, inputs: dict[str, np.ndarray], total_elements: int,
                 writes: tuple[str, ...]):
        self.names = tuple(inputs)
        self._inputs, self._total, self._writes = inputs, total_elements, writes
        self._offset = 0

    def read(self, max_elements: int) -> tuple[int, dict[str, np.ndarray]]:
        lo = self._offset
        count = min(self._total - lo, max_elements)
        if count <= 0:
            return 0, {}
        self._offset = hi = lo + count
        return count, {name: array[lo:hi].copy() if name in self._writes
                       else array[lo:hi] for name, array in self._inputs.items()}


def _batches_match(sink: MemorySink, name: str, expected: np.ndarray) -> bool:
    """Whether the sink's `name` outputs, laid end to end, equal `expected`
    bit for bit; a missing output, a short or missing batch fails."""
    offset = 0
    for batch in sink.batches:
        got = batch.outputs.get(name)
        if got is None or not _same_bits(got, expected[offset:offset + batch.length]):
            return False
        offset += batch.length
    return offset == len(expected)


def run_cell(defn: KernelDef, platform: PlatformDescription, stream_mb: float,
             chunk_mb: float, config: str, repeat_index: int,
             batch_mb: Optional[float], inputs: dict[str, np.ndarray],
             expected: dict[str, np.ndarray], pace: bool = True) -> ResultRow:
    """One run over the group's `inputs`, verified bitwise against
    `expected`, both from the group's `reference`; raises VerificationError
    on divergence."""
    chunk_elements = elements_in(chunk_mb, DOUBLE_BYTES)
    total_elements = elements_in(stream_mb, DOUBLE_BYTES)
    batch_elements = total_elements if batch_mb is None \
        else min(total_elements, elements_in(batch_mb, DOUBLE_BYTES))
    _, kernel = build_kernel(defn, chunk_elements=chunk_elements)
    sink = MemorySink()
    stats, _ = run_pipeline(_SharedSource(inputs, total_elements, kernel.output_arrays),
                            kernel, platform, resolve_config(platform, config),
                            UniformSchedule(chunk_elements),
                            batch_elements=batch_elements, sink=sink, pace=pace)
    for name in kernel.output_arrays:
        if not _batches_match(sink, name, expected[name]):
            raise VerificationError(
                f"unverified result in cell kernel={defn.name} "
                f"stream_mb={stream_mb} chunk_mb={chunk_mb} config={config} "
                f"repeat={repeat_index}: output '{name}' diverged from the "
                f"sequential reference")
    return ResultRow(defn.name, stream_mb, chunk_mb, config, repeat_index,
                     stats.throughput_mb_s, verified=True)


def run_experiment(plan: ExperimentPlan, platform: PlatformDescription,
                   pace: bool = True,
                   progress=None) -> list[ResultRow]:
    """Full factorial sweep, cells sequential, every run verified.

    Every kernel name and device configuration is resolved before the first
    group's reference is built, so a bad plan fails at once rather than hours
    in. Device configurations rotate innermost, so one `reference` (inputs
    and oracle) serves every configuration of a (kernel, stream, chunk,
    repeat) group. A worker thread builds the next group's reference while
    the current group's cells run; its error surfaces, with its own type,
    once every earlier group's rows have gone to `progress`. The worker is
    joined before this returns or raises.
    """
    try:
        defns = [kernel_def(name) for name in plan.kernels]
    except KeyError as exc:
        raise ResolveError(exc.args[0]) from None
    for config in plan.device_configs:
        resolve_config(platform, config)
    groups = [(defn, stream_mb, chunk_mb, rep) for defn in defns
              for stream_mb in plan.stream_sizes_mb
              for chunk_mb in plan.chunk_sizes_mb
              for rep in range(plan.repeats)]
    rows: list[ResultRow] = []
    with ThreadPoolExecutor(1, thread_name_prefix="hstream-oracle") as worker:
        oracles = (worker.submit(reference, defn, stream_mb, rep, plan.seed)
                   for defn, stream_mb, _, rep in groups)
        ahead = next(oracles)
        for defn, stream_mb, chunk_mb, rep in groups:
            inputs, expected = ahead.result()
            ahead = next(oracles, None)
            for config in plan.device_configs:
                row = run_cell(defn, platform, stream_mb, chunk_mb, config,
                               rep, plan.batch_mb, inputs, expected, pace=pace)
                rows.append(row)
                if progress:
                    progress(row)
    return rows


def _throughputs_by(rows: Iterable[ResultRow], key) -> dict[tuple, list[float]]:
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row.throughput_mb_s)
    return groups


def config_means(rows: Iterable[ResultRow]) -> dict[tuple[str, str], float]:
    """Mean throughput per (kernel, device_config) across all cells."""
    groups = _throughputs_by(rows, lambda r: (r.kernel, r.device_config))
    return {key: sum(v) / len(v) for key, v in groups.items()}


def summarize(rows: list[ResultRow]) -> str:
    """Per-cell mean throughput as CSV, one line per cell, sorted by the
    (kernel, stream, chunk, config) tuple."""
    if not rows:
        raise ValueError("no result rows to summarize")
    cells = _throughputs_by(
        rows, lambda r: (r.kernel, r.stream_mb, r.chunk_mb, r.device_config))
    out = io.StringIO()
    out.write("kernel,stream_mb,chunk_mb,device_config,mean_throughput_mb_s,repeats\n")
    for (kernel, stream_mb, chunk_mb, config), v in sorted(cells.items()):
        out.write(f"{kernel},{_num(stream_mb)},{_num(chunk_mb)},{config},"
                  f"{sum(v) / len(v):.3f},{len(v)}\n")
    return out.getvalue()


def _num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)
