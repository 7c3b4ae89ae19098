"""Per-kind execution paths with explicit (simulated) device memory management.

Accelerators never touch host memory outside copy-in/copy-out: each chunk is
served by freshly allocated private buffers, the body evaluates against those
buffers only, and results are copied back into the claimed host range.

The cost model is `compute_seconds` (elements divided by speed) plus, on
accelerators, `transfer_seconds` (seconds per MB moved); `charge_seconds`
adds them up for one chunk, and every charge and every analytic floor is
computed from it. `SIM_ELEMENTS_PER_SECOND` anchors speed_factor 1.0
(32 MiB/s at 8-byte elements); against the per-MB transfer costs it sets how
compute and copies weigh in an accelerator's charge. The executor's planner
adds each charge to the unit's virtual clock and never sleeps it, so
modelled seconds do not depend on how fast the host evaluates a chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from hstream.pdl import ProcessingUnit, PuKind
from hstream.runtime.cursor import Chunk
from hstream.runtime.kernel import ExecutableKernel

SIM_ELEMENTS_PER_SECOND = 4_194_304


def compute_seconds(pu: ProcessingUnit, elements: int) -> float:
    """Modelled time for `pu` to evaluate `elements` elements."""
    return elements / (pu.speed_factor * SIM_ELEMENTS_PER_SECOND)


def transfer_seconds(pu: ProcessingUnit, bytes_moved: int) -> float:
    """Modelled time to move `bytes_moved` bytes between host and `pu`."""
    return pu.transfer_cost_per_mb * (bytes_moved / 2**20)


def charge_seconds(pu: ProcessingUnit, kernel: ExecutableKernel,
                   elements: int) -> float:
    """Modelled time for `pu` to serve a chunk of `elements` elements: compute,
    plus on accelerators the copies of the kernel's transfer arrays."""
    seconds = compute_seconds(pu, elements)
    if pu.kind is not PuKind.CPU:
        seconds += transfer_seconds(pu, kernel.transfer_bytes_per_element * elements)
    return seconds


@dataclass(frozen=True)
class SimulatedDevice:
    """An in-process accelerator stand-in; its buffers live for one chunk."""

    pu: ProcessingUnit


def run_on_cpu(kernel: ExecutableKernel, host_data: Mapping[str, np.ndarray],
               chunk: Chunk) -> None:
    """Evaluate a chunk in place on host memory, in one vectorised pass.

    The host path needs no data movement. The configured CPU speed stands for
    the whole unit, so the planner charges the chunk `compute_seconds`.
    """
    views = {name: host_data[name][chunk.start:chunk.finish]
             for name in kernel.array_names}
    kernel.eval_into(views, len(chunk))


def run_on_accelerator(dev: SimulatedDevice, kernel: ExecutableKernel,
                       host_data: Mapping[str, np.ndarray], chunk: Chunk) -> None:
    """Serve one chunk on a simulated accelerator.

    In order: allocate private buffers, copy in the kernel's transfer inputs
    and zero the out-only arrays the body never writes (the sequential
    reference's zeros), evaluate against device buffers only, copy outputs
    back to the claimed host range, free. Host elements outside the chunk are
    never read or written. The chunk is known to fit: `plan` checks every
    accelerator claim against the unit's memory before any chunk is evaluated.
    """
    length = len(chunk)
    buffers = {name: np.empty(length, dtype=kernel.numpy_dtypes[name])
               for name in kernel.array_names}
    for name in kernel.transfer_ins:
        buffers[name][:] = host_data[name][chunk.start:chunk.finish]
    for name in kernel.unwritten_outs:
        buffers[name][:] = 0
    kernel.eval_into(buffers, length)
    for name in kernel.transfer_outs:
        host_data[name][chunk.start:chunk.finish] = buffers[name]
