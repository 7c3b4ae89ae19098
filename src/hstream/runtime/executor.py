"""Workload distribution across processing units, on a virtual clock.

Each engaged unit claims chunks from the shared cursor and dispatches by unit
kind: accelerators (gpu/mic) go through the explicit copy-in/evaluate/copy-out
path, the cpu evaluates host memory in place. Every chunk is evaluated for
real and charged its modelled cost.

One discrete-event loop plays all units. A unit never waits for another, so
its virtual clock is its accumulated charge (`PuStats.busy_time`); the unit
with the earliest clock claims next, ties going to the earlier unit in
resolved order. This is the order in which per-unit controllers running at
the configured speeds would claim, and it makes chunk assignment
deterministic. The first chunk error propagates at once.

With ``pace=True`` the reported wall time is the makespan, the latest unit's
clock, so measured throughput follows the configured device speeds rather
than interpreter speed; without it, the wall time is the host's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from hstream.errors import ConfigurationError
from hstream.ir import (
    ALL_DEVICES,
    AutoSchedule,
    DeviceSelector,
    PerDeviceSchedule,
    SchedulingSpec,
    UniformSchedule,
)
from hstream.pdl import PlatformDescription, ProcessingUnit, PuKind, resolve_devices
from hstream.runtime.cursor import ClaimRecord, SharedCursor
from hstream.runtime.device import (
    SimulatedDevice,
    compute_seconds,
    run_on_accelerator,
    run_on_cpu,
)
from hstream.runtime.kernel import ExecutableKernel

# AUTO policy: aim for ~16 claims per unit, proportional to configured speed,
# clamped to [1 MB, 64 MB] worth of elements.
AUTO_TARGET_CLAIMS = 16
AUTO_MIN_BYTES = 2**20
AUTO_MAX_BYTES = 64 * 2**20


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
    claim_log: Optional[list[ClaimRecord]] = field(default=None, repr=False)

    @property
    def total_elements(self) -> int:
        return sum(s.elements_processed for s in self.per_pu.values())

    @property
    def total_chunks(self) -> int:
        return sum(s.chunks_claimed for s in self.per_pu.values())

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


def chunk_size_for(pu: ProcessingUnit, spec: SchedulingSpec, total: int,
                   engaged: Optional[list[ProcessingUnit]] = None,
                   element_size: int = 8) -> int:
    """Chunk size in elements for one unit under a scheduling choice.

    Uniform applies one size to every unit; per-device looks the unit up (a
    missing entry is a configuration error, raised before any chunk is claimed);
    AUTO splits the total proportionally to configured speeds, targeting
    AUTO_TARGET_CLAIMS claims per unit, clamped to [1 MB, 64 MB] worth of
    elements.
    """
    if isinstance(spec, UniformSchedule):
        return spec.chunk_elements
    if isinstance(spec, PerDeviceSchedule):
        sizes = spec.as_dict()
        if pu.id not in sizes:
            raise ConfigurationError(
                f"per-device scheduling does not list engaged pu {pu.id}")
        return sizes[pu.id]
    if isinstance(spec, AutoSchedule):
        if not engaged:
            raise ConfigurationError("AUTO scheduling needs the engaged unit list")
        weight_sum = sum(p.speed_factor for p in engaged)
        raw = round(total * pu.speed_factor / (AUTO_TARGET_CLAIMS * weight_sum))
        lo = max(1, AUTO_MIN_BYTES // element_size)
        hi = max(lo, AUTO_MAX_BYTES // element_size)
        return min(max(raw, lo), hi)
    raise TypeError(f"not a scheduling spec: {spec!r}")


def _validate_host_data(kernel: ExecutableKernel,
                        host_data: Mapping[str, np.ndarray]) -> int:
    lengths = set()
    for name in kernel.array_names:
        if name not in host_data:
            raise ConfigurationError(f"kernel '{kernel.name}' needs array '{name}'")
        arr = host_data[name]
        expected = kernel.array_types[name].numpy_dtype
        if arr.dtype != np.dtype(expected):
            raise ConfigurationError(
                f"array '{name}' must have dtype {np.dtype(expected)}, got {arr.dtype}")
        lengths.add(len(arr))
    if len(lengths) > 1:
        raise ConfigurationError(
            f"kernel '{kernel.name}' arrays differ in length: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def execute(kernel: ExecutableKernel, host_data: Mapping[str, np.ndarray],
            platform: PlatformDescription,
            device: DeviceSelector = ALL_DEVICES,
            scheduling: SchedulingSpec = AutoSchedule(),
            *, pace: bool = False, record_claims: bool = False) -> RunStats:
    """Distribute the kernel's index space across the selected units.

    On return the host arrays equal the sequential reference evaluation, and
    the same inputs always give the same chunk assignment. Configuration
    problems (unknown devices, incomplete per-device scheduling) raise before
    any chunk is claimed.
    """
    pus = resolve_devices(platform, device)
    total = _validate_host_data(kernel, host_data)
    chunk_sizes = {
        pu.id: chunk_size_for(pu, scheduling, total, engaged=pus,
                              element_size=kernel.max_element_size)
        for pu in pus
    }
    devices = {pu.id: SimulatedDevice(pu) for pu in pus if pu.kind is not PuKind.CPU}
    per_pu = {pu.id: PuStats(pu.id) for pu in pus}
    cursor = SharedCursor(total, record_claims=record_claims)

    started = time.monotonic()
    while True:
        pu = min(pus, key=lambda p: per_pu[p.id].busy_time)
        chunk = cursor.claim(chunk_sizes[pu.id], tag=pu.id)
        if chunk is None:
            break
        if pu.kind is PuKind.CPU:
            run_on_cpu(kernel, host_data, chunk)
            charged = compute_seconds(pu, len(chunk))
        else:
            charged = run_on_accelerator(devices[pu.id], kernel, host_data, chunk)
        stats = per_pu[pu.id]
        stats.chunks_claimed += 1
        stats.elements_processed += len(chunk)
        stats.busy_time += charged
    host_wall = time.monotonic() - started

    processed = sum(s.elements_processed for s in per_pu.values())
    if processed != total:
        raise RuntimeError(
            f"claim accounting is broken: processed {processed} of {total}")

    wall = max(s.busy_time for s in per_pu.values()) if pace else host_wall

    return RunStats(per_pu=per_pu, wall_time=wall,
                    bytes_moved=kernel.bytes_per_element * total,
                    claim_log=cursor.claim_log)
