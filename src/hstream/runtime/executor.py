"""Workload distribution across processing units, on a virtual clock.

`plan` is data-free: one discrete-event loop plays all engaged units. A unit
never waits, so its virtual clock is its accumulated charge
(`PuStats.busy_time`). Each claim goes to the unit that would finish its next
chunk first (clock plus charge), ties to the earlier unit in resolved order:
the earliest-finish-time rule of HEFT (Topcuoglu, Hariri and Wu, IEEE TPDS
2002) and of StarPU's `dmda` scheduler. A slow unit thus declines a chunk it
would still hold after the fast ones run dry; the same inputs give the same
schedule.

`execute` evaluates the schedule's chunks for real, in claim order:
accelerators (gpu/mic) through copy-in/evaluate/copy-out, the cpu in place.
The first chunk error propagates at once. With ``pace=True`` the wall time is
the makespan, so throughput follows the configured speeds, not interpreter
speed; without it, the wall time is the host's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from hstream.errors import ConfigurationError, DeviceMemoryError
from hstream.ir import ALL_DEVICES, AutoSchedule, DeviceSelector, SchedulingSpec
from hstream.pdl import PlatformDescription, ProcessingUnit, PuKind, bind
from hstream.runtime.cursor import Chunk, SharedCursor
from hstream.runtime.device import (
    SimulatedDevice,
    charge_seconds,
    run_on_accelerator,
    run_on_cpu,
)
from hstream.runtime.kernel import ExecutableKernel

@dataclass
class PuStats:
    pu_id: int
    chunks_claimed: int = 0
    elements_processed: int = 0
    busy_time: float = 0.0


@dataclass
class RunStats:
    per_pu: dict[int, PuStats]
    wall_time: float
    bytes_moved: int

    @property
    def total_elements(self) -> int:
        return sum(s.elements_processed for s in self.per_pu.values())

    @property
    def throughput_mb_s(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return (self.bytes_moved / 2**20) / self.wall_time

    @staticmethod
    def aggregate(parts: list["RunStats"], wall_time: float,
                  bytes_moved: int) -> "RunStats":
        """Sum per-unit figures over `parts`; wall and bytes describe the whole."""
        per_pu: dict[int, PuStats] = {}
        for part in parts:
            for pu_id, stats in part.per_pu.items():
                merged = per_pu.setdefault(pu_id, PuStats(pu_id))
                merged.chunks_claimed += stats.chunks_claimed
                merged.elements_processed += stats.elements_processed
                merged.busy_time += stats.busy_time
        return RunStats(per_pu, wall_time, bytes_moved)


def _validate_host_data(kernel: ExecutableKernel,
                        host_data: Mapping[str, np.ndarray]) -> int:
    lengths = set()
    for name in kernel.array_names:
        if name not in host_data:
            raise ConfigurationError(f"kernel '{kernel.name}' needs array '{name}'")
        arr, expected = host_data[name], kernel.numpy_dtypes[name]
        if arr.dtype != expected:
            raise ConfigurationError(
                f"array '{name}' must have dtype {expected}, got {arr.dtype}")
        lengths.add(len(arr))
    if len(lengths) > 1:
        raise ConfigurationError(
            f"kernel '{kernel.name}' arrays differ in length: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


class Claim(NamedTuple):
    """One chunk of a schedule: who serves it, and when on the virtual clock."""

    pu: ProcessingUnit
    chunk: Chunk
    begin: float
    end: float


@dataclass
class Schedule:
    """Engaged units in resolved order, claims in claim order, unit totals."""

    units: list[ProcessingUnit]
    claims: list[Claim]
    per_pu: dict[int, PuStats]

    @property
    def makespan(self) -> float:
        return max(s.busy_time for s in self.per_pu.values())


def earliest_finish(clocks: Sequence[float], charges: Sequence[float]) -> int:
    """Index of the unit whose next chunk would end first; ties to the lowest."""
    best = 0
    for i in range(1, len(clocks)):
        if clocks[i] + charges[i] < clocks[best] + charges[best]:
            best = i
    return best


def plan(kernel: ExecutableKernel, total: int, platform: PlatformDescription,
         device: DeviceSelector = ALL_DEVICES,
         scheduling: SchedulingSpec = AutoSchedule()) -> Schedule:
    """The data-free schedule of `total` elements over the selected units.

    Configuration problems raise here, before any chunk is evaluated,
    among them an accelerator claim whose buffers exceed the unit's memory
    (DeviceMemoryError)."""
    pus, sizes = bind(platform, device, scheduling, total, kernel.max_element_size)
    full = [charge_seconds(pu, kernel, size) for pu, size in zip(pus, sizes)]
    # the host path evaluates in place and allocates no buffers
    capacity = [math.inf if pu.kind is PuKind.CPU else pu.memory_bytes
                for pu in pus]
    largest = max(sizes)
    clocks = [0.0] * len(pus)
    counts = [0] * len(pus)
    elements = [0] * len(pus)
    claims: list[Claim] = []
    cursor = SharedCursor(total)
    while left := cursor.remaining:
        # only a chunk cut short by the end of the stream costs less than full
        charges = full if left >= largest else [
            charge_seconds(pu, kernel, min(size, left)) for pu, size in zip(pus, sizes)]
        i = earliest_finish(clocks, charges)
        chunk = cursor.claim(sizes[i])
        length = chunk.finish - chunk.start
        needed = kernel.buffer_bytes_per_element * length
        if needed > capacity[i]:
            pu = pus[i]
            raise DeviceMemoryError(
                f"pu {pu.id} ({pu.kind.value}) cannot hold chunk "
                f"[{chunk.start}, {chunk.finish}): needs {needed} bytes, "
                f"device memory is {pu.memory_bytes} bytes")
        claims.append(Claim(pus[i], chunk, clocks[i], clocks[i] + charges[i]))
        clocks[i] += charges[i]
        counts[i] += 1
        elements[i] += length
    per_pu = {pu.id: PuStats(pu.id, counts[i], elements[i], clocks[i])
              for i, pu in enumerate(pus)}
    return Schedule(pus, claims, per_pu)


def execute(kernel: ExecutableKernel, host_data: Mapping[str, np.ndarray],
            platform: PlatformDescription,
            device: DeviceSelector = ALL_DEVICES,
            scheduling: SchedulingSpec = AutoSchedule(),
            *, pace: bool = False) -> RunStats:
    """Distribute the kernel's index space across the selected units.

    On return the host arrays equal the sequential reference evaluation, and
    the same inputs always give the same chunk assignment, `plan`'s schedule.
    Configuration problems raise before any chunk is evaluated.
    """
    total = _validate_host_data(kernel, host_data)
    started = time.monotonic()
    schedule = plan(kernel, total, platform, device, scheduling)
    devices = {pu.id: SimulatedDevice(pu) for pu in schedule.units
               if pu.kind is not PuKind.CPU}
    for pu, chunk, _, _ in schedule.claims:
        if pu.kind is PuKind.CPU:
            run_on_cpu(kernel, host_data, chunk)
        else:
            run_on_accelerator(devices[pu.id], kernel, host_data, chunk)
    wall = schedule.makespan if pace else time.monotonic() - started
    return RunStats(per_pu=schedule.per_pu, wall_time=wall,
                    bytes_moved=kernel.bytes_per_element * total)
