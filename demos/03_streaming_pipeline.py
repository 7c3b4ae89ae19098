#!/usr/bin/env python3
"""The three-stage streaming pipeline and its overlap.

Runs eight batches with an injected 10 ms cost per stage and draws the
recorded stage trace as a small gantt chart: once the pipe fills, reading
batch b+2, processing batch b+1, and writing batch b all happen at the same
time, so the wall clock beats the serialized schedule by roughly 3x. The cost
is injected by a source, a kernel and a sink that each sleep once per batch.
"""

import time
from pathlib import Path

from hstream.bench import build_kernel, kernel_def
from hstream.pdl import parse_pdl_file
from hstream.pipeline import GeneratedSource, MemorySink, run_pipeline
from hstream.runtime import ExecutableKernel, evaluate_sequential

HERE = Path(__file__).resolve().parent
DELAY = 0.010


class SlowSource(GeneratedSource):
    def read(self, max_elements):
        count, arrays = super().read(max_elements)
        if count:
            time.sleep(DELAY)
        return count, arrays


class SlowKernel(ExecutableKernel):
    """Each 4096-element batch here runs as one chunk, so one sleep per batch."""

    def eval_into(self, arrays, length):
        time.sleep(DELAY)
        super().eval_into(arrays, length)


class SlowSink(MemorySink):
    def write(self, batch):
        time.sleep(DELAY)
        super().write(batch)


def banner(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


def gantt(trace, width=60):
    spans = [(seq, stage, *trace.span(seq, stage))
             for seq in trace.seqs for stage in trace.STAGES
             if trace.has(seq, stage)]
    t0 = min(b for *_, b, _ in spans)
    t1 = max(e for *_, _, e in spans)
    scale = width / (t1 - t0)
    glyph = {"read": "r", "process": "P", "write": "w"}
    for seq in trace.seqs:
        line = [" "] * width
        for stage in trace.STAGES:
            if not trace.has(seq, stage):
                continue
            begin, end = trace.span(seq, stage)
            lo = int((begin - t0) * scale)
            hi = max(lo + 1, int((end - t0) * scale))
            for i in range(lo, min(hi, width)):
                line[i] = glyph[stage]
        print(f"  batch {seq}: {''.join(line)}")


def main():
    platform = parse_pdl_file(HERE / "platforms" / "disa.pdl")
    spec, plain = build_kernel(kernel_def("TRIAD"))
    kernel = SlowKernel.from_kernel_spec(spec, plain.scalars)

    batches = 8
    batch_elements = 4096
    source = SlowSource(kernel.input_arrays, batches * batch_elements, seed=7)
    sink = SlowSink()

    banner("Eight batches, 10 ms injected per stage, queues bounded at 2")
    stats, trace = run_pipeline(source, kernel, platform,
                                batch_elements=batch_elements, sink=sink)
    serialized = 3 * DELAY * batches
    print(f"  wall {stats.wall_time * 1000:.0f} ms vs "
          f"{serialized * 1000:.0f} ms fully serialized")
    overlaps = trace.overlapping_write_process_pairs()
    print(f"  write(b) overlapped process(b+1) for {len(overlaps)} pairs")
    print(f"  per-batch ordering (read < process < write): "
          f"{trace.stage_ordering_ok()}")

    banner("Stage trace (r = read, P = process, w = write)")
    gantt(trace)

    banner("Output verified against one sequential pass")
    inputs = GeneratedSource(kernel.input_arrays,
                             batches * batch_elements, seed=7).read_all()
    expected = evaluate_sequential(plain, inputs)
    got = sink.arrays()
    same = got["a"].tobytes() == expected["a"].tobytes()
    print(f"  concatenated sink output bitwise-equal: {same}")
    assert same


if __name__ == "__main__":
    main()
