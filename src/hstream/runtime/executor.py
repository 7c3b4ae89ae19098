"""Workload distribution across processing units.

One controller thread per engaged unit; each loops claiming chunks from the
shared cursor under mutual exclusion and dispatches by unit kind: accelerators
(gpu/mic) go through the explicit copy-in/evaluate/copy-out path, the cpu
evaluates host memory in place. Controllers run until the cursor is
exhausted; the first controller error cancels the others at their next claim.

Host arrays are partitioned by chunk: disjoint claims mean concurrent writers
never overlap, so element writes need no locking. `execute` returns only
after every controller has been joined; statistics are aggregated after the
join, never concurrently.

With ``pace=True`` each controller sleeps its accumulated simulated charge
(in >= 2 ms quanta), so wall-clock time and therefore measured throughput
follow the configured device speeds rather than interpreter speed.
"""

from __future__ import annotations

import threading
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

# Paced controllers run against a per-controller deadline clock: each chunk
# advances the deadline by its charge, and the controller sleeps only up to
# the deadline. Oversleep therefore self-corrects at the next claim instead of
# compounding over hundreds of chunks, so wall time tracks the summed charges
# and claim rates track the configured speeds. Sleeps below the floor are
# deferred (the deadline carries them) to amortize syscalls for tiny chunks;
# scheduler stalls are caught up within the leash, beyond which the clock
# forgives the debt rather than claim-bursting far past the configured rate.
_PACE_FLOOR_S = 0.0002
_PACE_LEASH_S = 0.040


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
    missing entry is a configuration error, raised before any thread starts);
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


class _Controller:
    def __init__(self, pu: ProcessingUnit, kernel: ExecutableKernel,
                 host_data: Mapping[str, np.ndarray], cursor: SharedCursor,
                 chunk_size: int, pace: bool,
                 cancel: threading.Event):
        self.pu = pu
        self.kernel = kernel
        self.host_data = host_data
        self.cursor = cursor
        self.chunk_size = chunk_size
        self.pace = pace
        self.cancel = cancel
        self.stats = PuStats(pu.id)
        self.error: Optional[BaseException] = None
        self.device = None if pu.kind is PuKind.CPU else SimulatedDevice(pu)

    def run(self) -> None:
        deadline = time.monotonic()
        try:
            while not self.cancel.is_set():
                chunk = self.cursor.claim(self.chunk_size, tag=self.pu.id)
                if chunk is None:
                    break
                if self.device is None:
                    run_on_cpu(self.kernel, self.host_data, chunk)
                    charged = compute_seconds(self.pu, len(chunk))
                else:
                    charged = run_on_accelerator(
                        self.device, self.kernel, self.host_data, chunk)
                self.stats.chunks_claimed += 1
                self.stats.elements_processed += len(chunk)
                self.stats.busy_time += charged
                if self.pace:
                    deadline = max(deadline, time.monotonic() - _PACE_LEASH_S) + charged
                    remaining = deadline - time.monotonic()
                    if remaining >= _PACE_FLOOR_S:
                        time.sleep(remaining)
        except BaseException as exc:  # first error wins, others cancel
            self.error = exc
            self.cancel.set()


def execute(kernel: ExecutableKernel, host_data: Mapping[str, np.ndarray],
            platform: PlatformDescription,
            device: DeviceSelector = ALL_DEVICES,
            scheduling: SchedulingSpec = AutoSchedule(),
            *, pace: bool = False, record_claims: bool = False) -> RunStats:
    """Distribute the kernel's index space across the selected units.

    On return the host arrays equal the sequential reference evaluation;
    chunk assignment varies with thread interleaving but results do not.
    Configuration problems (unknown devices, incomplete per-device scheduling)
    raise before any controller thread starts.
    """
    pus = resolve_devices(platform, device)
    total = _validate_host_data(kernel, host_data)
    chunk_sizes = {
        pu.id: chunk_size_for(pu, scheduling, total, engaged=pus,
                              element_size=kernel.max_element_size)
        for pu in pus
    }

    cursor = SharedCursor(total, record_claims=record_claims)
    cancel = threading.Event()
    controllers = [
        _Controller(pu, kernel, host_data, cursor, chunk_sizes[pu.id],
                    pace=pace, cancel=cancel)
        for pu in pus
    ]

    started = time.monotonic()
    threads = [threading.Thread(target=c.run, name=f"hstream-pu{c.pu.id}")
               for c in controllers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - started

    for c in controllers:
        if c.error is not None:
            raise c.error

    per_pu = {c.pu.id: c.stats for c in controllers}
    processed = sum(s.elements_processed for s in per_pu.values())
    if processed != total:
        raise RuntimeError(
            f"claim accounting is broken: processed {processed} of {total}")

    return RunStats(per_pu=per_pu, wall_time=wall,
                    bytes_moved=kernel.bytes_per_element * total,
                    claim_log=cursor.claim_log)
