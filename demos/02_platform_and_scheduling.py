#!/usr/bin/env python3
"""Platform files, device selection, and chunk scheduling.

Shows how the machine model drives the runtime: resolving device selectors,
how the three scheduling policies pick chunk sizes, mutually exclusive chunk
claiming from the shared cursor, the data-free schedule that gives each chunk
to the unit that would finish it first, and a real multi-unit execution with
per-unit statistics.
"""

from pathlib import Path

import numpy as np

from hstream.bench import build_kernel, kernel_def
from hstream.ir import ALL_DEVICES, AutoSchedule, DeviceIds, PerDeviceSchedule, UniformSchedule
from hstream.pdl import chunk_size_for, parse_pdl_file, resolve_devices
from hstream.runtime import SharedCursor, execute, plan

HERE = Path(__file__).resolve().parent


def banner(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


def main():
    platform = parse_pdl_file(HERE / "platforms" / "disa.pdl")
    banner(f"Platform '{platform.name}'")
    for pu in platform.pus:
        threads = pu.threads if pu.threads is not None else "/"
        print(f"  pu {pu.id}: {pu.kind.value:3s} cores={pu.cores:<5d} "
              f"threads={threads:<4} {pu.frequency_ghz} GHz "
              f"{pu.memory_gb} GB  (sim speed x{pu.speed_factor}, "
              f"{pu.transfer_cost_per_mb} s/MB transfer)")

    banner("Device selection")
    print("  device(*)      ->", [pu.id for pu in resolve_devices(platform, ALL_DEVICES)])
    print("  device(0,1,2)  ->", [pu.id for pu in resolve_devices(platform, DeviceIds((0, 1, 2)))])

    banner("Chunk sizing under the three policies (total = 10,485,760 elements)")
    total = 80 * 2**17
    engaged = list(platform.pus)
    for label, spec in [
        ("scheduling(4096)", UniformSchedule(4096)),
        ("scheduling(0:1000, 1:5000, ...)", PerDeviceSchedule(
            tuple((pu.id, 1000 * (1 + 4 * (pu.kind.value != "cpu"))) for pu in platform.pus))),
        ("scheduling(AUTO)", AutoSchedule()),
    ]:
        sizes = {pu.id: chunk_size_for(pu, spec, total, engaged=engaged)
                 for pu in platform.pus}
        print(f"  {label:34s} -> {sizes}")
    print("  AUTO splits proportionally to simulated speed: each gpu gets 4x")
    print("  the cpu's chunk, clamped to [1 MB, 64 MB] worth of elements.")

    banner("Claiming chunks from the shared cursor (total=10, chunk=4)")
    cursor = SharedCursor(10)
    while (chunk := cursor.claim(4)) is not None:
        print(f"  claimed [{chunk.start}, {chunk.finish})")
    print("  exhausted")

    banner("Planning TRIAD over 2^22 elements: each chunk to the earliest finish")
    _, kernel = build_kernel(kernel_def("TRIAD"))
    n = 2**22
    schedule = plan(kernel, n, platform, scheduling=UniformSchedule(32768))
    for pu, chunk, begin, end in schedule.claims[:6]:
        print(f"  pu {pu.id} ({pu.kind.value}) [{chunk.start:7d}, {chunk.finish:7d})  "
              f"virtual {begin * 1e3:6.2f} -> {end * 1e3:6.2f} ms")
    print(f"  ... {len(schedule.claims)} claims, makespan {schedule.makespan:.3f} s; the")
    print("  cpu claims only once the gpus' clocks pass its slower finish time.")

    banner("Executing TRIAD over 2^22 elements (32 MB) on all five units")
    rng = np.random.default_rng(42)
    host = {"b": rng.random(n), "c": rng.random(n), "a": np.zeros(n)}
    stats = execute(kernel, host, platform, scheduling=UniformSchedule(32768),
                    pace=True)
    print(f"  modelled makespan {stats.wall_time:.3f} s, "
          f"{stats.bytes_moved / 2**20:.0f} MB accounted, "
          f"{stats.throughput_mb_s:.0f} MB/s")
    for pu_id, pu_stats in sorted(stats.per_pu.items()):
        share = pu_stats.elements_processed / n
        print(f"  pu {pu_id}: {pu_stats.chunks_claimed:4d} chunks  "
              f"{share:6.1%} of elements  busy {pu_stats.busy_time:.3f} s")
    expected = host["b"] + 3.0 * host["c"]
    assert host["a"].tobytes() == expected.tobytes()
    print("  result verified against the arithmetic formula")


if __name__ == "__main__":
    main()
