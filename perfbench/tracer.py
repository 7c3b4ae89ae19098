"""Spans around hstream's public functions, kept in memory, for the traced run.

The tracer replaces a function or method on its module or class with a
wrapper that records one span per call (name, start, end, thread and the span
that caused it) plus a few counts, and puts the original back on `remove()`.
Patches go where the program looks the name up at call time: `compile_source`
finds `lex` in `hstream.frontend`, the pipeline's processor finds `execute`
in `hstream.pipeline`, a unit controller finds `run_on_cpu` in
`hstream.runtime.executor`, and so on. Spans made on a unit controller's
thread have no caller on that thread; their cause is the `execute` call open
at the time, since the benchmark is the only caller.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

MB = 2**20


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: str
    start: float
    end: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._cross_parent: Optional[int] = None
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, on_return=None, on_error=None,
             cross_thread_parent: bool = False) -> None:
        """Record a span named `name` around every call of `owner.attr`.
        `on_return(args, result)` and `on_error(exc)` give the span's counts."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1].id if stack else tracer._cross_parent
            span = Span(next(tracer._ids), name, parent,
                        threading.current_thread().name, time.perf_counter())
            stack.append(span)
            if cross_thread_parent:
                tracer._cross_parent = span.id
            try:
                result = original(*args, **kwargs)
                if on_return is not None:
                    span.args = on_return(args, kwargs, result)
                return result
            except Exception as exc:
                if on_error is not None:
                    span.args = on_error(exc)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if cross_thread_parent:
                    tracer._cross_parent = parent
                tracer.spans.append(span)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON, viewable in Perfetto."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        threads = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(s.thread, len(threads) + 1)
            events.append({"name": s.name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                           "args": {"id": s.id, "parent": s.parent, **_jsonable(s.args)}})
        events += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                    "args": {"name": name}} for name, tid in threads.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


def _jsonable(args: dict) -> dict:
    return {k: v for k, v in args.items() if isinstance(v, (int, float, str, bool))}


# --- Installing spans on hstream's modules --------------------------------------------

def install(tracer: Tracer, hs, floor_seconds) -> None:
    """Wrap each layer's public functions. `hs` is the imported package;
    `floor_seconds(kernel, platform, device, elements)` is the benchmark's
    own analytic floor, used for model fidelity."""
    frontend, codegen, pdl, pipeline, bench = (hs.frontend, hs.codegen, hs.pdl,
                                               hs.pipeline, hs.bench)
    executor = hs.runtime.executor

    def diagnostics(exc):
        return {"diagnostics": len(getattr(exc, "diagnostics", ()))}

    tracer.wrap(frontend, "lex", "frontend.lex",
                on_return=lambda a, k, r: {"tokens": len(r)}, on_error=diagnostics)
    tracer.wrap(frontend, "parse", "frontend.parse", on_error=diagnostics)
    tracer.wrap(frontend, "check", "frontend.check", on_error=diagnostics)
    for target in ("openmp", "cuda", "leo", "driver"):
        tracer.wrap(codegen, f"gen_{target}", f"codegen.{target}",
                    on_return=lambda a, k, r: {"bytes": len(r.text)})
    tracer.wrap(pdl, "parse_pdl", "pdl.parse")
    tracer.wrap(hs.runtime.cursor.SharedCursor, "claim", "cursor.claim")
    tracer.wrap(hs.runtime.kernel.ExecutableKernel, "eval_into", "kernel.eval",
                on_return=lambda a, k, r: {"elements": a[2]})

    def cpu_chunk(args, kwargs, result):
        return {"elements": len(args[2])}

    def accel_chunk(args, kwargs, result):
        dev, kernel, _, chunk = args[:4]
        moved = sum(kernel.element_sizes[n] for n in kernel.transfer_ins) \
            + sum(kernel.element_sizes[n] for n in kernel.transfer_outs)
        return {"elements": len(chunk), "copy_bytes": moved * len(chunk), "pu": dev.pu.id}

    tracer.wrap(executor, "run_on_cpu", "device.cpu_chunk", on_return=cpu_chunk)
    tracer.wrap(executor, "run_on_accelerator", "device.accel_chunk", on_return=accel_chunk)

    def execute_done(args, kwargs, stats):
        platform = args[2]
        cpus = {pu.id for pu in platform.pus if pu.kind.value == "cpu"}
        cpu = sum(s.elements_processed for i, s in stats.per_pu.items() if i in cpus)
        return {"elements": stats.total_elements, "cpu_elements": cpu}

    tracer.wrap(pipeline, "execute", "executor.execute", on_return=execute_done,
                cross_thread_parent=True)

    signature = inspect.signature(pipeline.run_pipeline)

    def pipeline_done(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        p = bound.arguments
        stats, trace = result
        out = _stage_figures(trace)
        out["wall_s"] = stats.wall_time
        if p["pace"]:
            out["floor_s"] = floor_seconds(p["kernel"], p["platform"], p["device"],
                                           stats.total_elements)
        return out

    for module in (hs, pipeline, bench):  # each imported the name itself
        tracer.wrap(module, "run_pipeline", "pipeline.run", on_return=pipeline_done,
                    cross_thread_parent=True)

    tracer.wrap(bench, "run_cell", "bench.cell",
                on_return=lambda a, k, r: {"config": r.device_config, "kernel": r.kernel})
    tracer.wrap(bench, "build_kernel", "bench.build_kernel")
    tracer.wrap(pipeline.GeneratedSource, "read_all", "bench.synth")
    tracer.wrap(bench, "evaluate_sequential", "bench.reference")


def _stage_figures(trace) -> dict:
    seqs = [s for s in trace.seqs if trace.has(s, "write")]
    if not seqs:
        return {"batches": 0}
    spans = {stage: [trace.span(s, stage) for s in seqs if trace.has(s, stage)]
             for stage in trace.STAGES}
    busy = {stage: sum(e - b for b, e in spans[stage]) for stage in spans}
    reads, writes = spans["read"], spans["write"]
    blocked = sum(reads[i + 1][0] - reads[i][1] for i in range(len(reads) - 1))
    idle = sum(writes[i + 1][0] - writes[i][1] for i in range(len(writes) - 1))
    if reads:
        idle += writes[0][0] - reads[0][0]
    return {"batches": len(seqs), "read_s": busy["read"], "process_s": busy["process"],
            "write_s": busy["write"], "reader_blocked_s": blocked, "writer_idle_s": idle}


# --- Per-layer figures ------------------------------------------------------------------

def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total_ms(name):
        return sum(s.ms for s in named(name))

    m = {}
    lexes = named("frontend.lex")
    m["frontend.lex_ms"] = total_ms("frontend.lex")
    m["frontend.parse_ms"] = total_ms("frontend.parse")
    m["frontend.check_ms"] = total_ms("frontend.check")
    m["frontend.tokens"] = sum(s.args.get("tokens", 0) for s in lexes)
    m["frontend.diagnostics"] = sum(
        s.args.get("diagnostics", 0)
        for n in ("frontend.lex", "frontend.parse", "frontend.check") for s in named(n))
    for target in ("openmp", "cuda", "leo", "driver"):
        m[f"codegen.{target}_ms"] = total_ms(f"codegen.{target}")
    m["codegen.emitted_kb"] = sum(s.args.get("bytes", 0) for t in ("openmp", "cuda", "leo", "driver")
                                  for s in named(f"codegen.{t}")) / 1024
    m["pdl.parse_ms"] = total_ms("pdl.parse")

    claims = named("cursor.claim")
    m["cursor.claims"] = len(claims)
    m["cursor.claim_us_p50"] = _p50([s.ms * 1e3 for s in claims])
    evals = named("kernel.eval")
    m["kernel.eval_calls"] = len(evals)
    m["kernel.eval_us_p50"] = _p50([s.ms * 1e3 for s in evals])
    m["kernel.eval_ms"] = total_ms("kernel.eval")

    def self_ms(s):
        return s.ms - sum(c.ms for c in children.get(s.id, ()) if c.name == "kernel.eval")

    cpu_chunks, accel_chunks = named("device.cpu_chunk"), named("device.accel_chunk")
    m["device.cpu_chunk_us_p50"] = _p50([s.ms * 1e3 for s in cpu_chunks])
    m["device.accel_chunk_us_p50"] = _p50([self_ms(s) * 1e3 for s in accel_chunks])
    m["device.copy_mb"] = sum(s.args.get("copy_bytes", 0) for s in accel_chunks) / MB
    executes = named("executor.execute")
    elements = sum(s.args.get("elements", 0) for s in executes)
    m["device.cpu_share"] = (sum(s.args.get("cpu_elements", 0) for s in executes) / elements
                             if elements else 0.0)

    m["executor.calls"] = len(executes)
    m["executor.execute_ms_p50"] = _p50([s.ms for s in executes])
    overheads, tails = [], []
    for ex in executes:
        per_unit: dict[str, list[Span]] = {}
        for c in children.get(ex.id, ()):
            if c.name in ("device.cpu_chunk", "device.accel_chunk"):
                per_unit.setdefault(c.thread, []).append(c)
        if not per_unit:
            continue
        busiest = max(sum(c.ms for c in cs) for cs in per_unit.values())
        overheads.append((ex.ms - busiest) * 1e3)
        tails.append(max((ex.end - max(c.end for c in cs)) * 1e3 for cs in per_unit.values()))
    m["executor.overhead_us_p50"] = _p50(overheads)
    m["executor.idle_tail_ms"] = _p50(tails)

    runs = named("pipeline.run")
    m["pipeline.batches"] = sum(s.args.get("batches", 0) for s in runs)
    for key in ("read", "process", "write", "reader_blocked", "writer_idle"):
        m[f"pipeline.{key}_ms"] = sum(s.args.get(f"{key}_s", 0.0) for s in runs) * 1e3
    fidelity = [s.args["wall_s"] / s.args["floor_s"] for s in runs if "floor_s" in s.args]
    m["pipeline.model_fidelity"] = _p50(fidelity)

    cells = named("bench.cell")
    m["bench.cells"] = len(cells)
    attempts = [c for cell in cells for c in children.get(cell.id, ()) if c.name == "pipeline.run"]
    m["bench.attempts_per_cell"] = len(attempts) / len(cells) if cells else 0.0
    m["bench.build_kernel_ms"] = total_ms("bench.build_kernel")
    m["bench.synth_ms"] = total_ms("bench.synth")
    m["bench.reference_ms"] = total_ms("bench.reference")
    m["bench.pipeline_ms"] = sum(s.ms for s in attempts)
    verify = 0.0
    by_config: dict[str, list[float]] = {}
    for cell in cells:
        kids = children.get(cell.id, ())
        refs = [c for c in kids if c.name == "bench.reference"]
        if refs:
            verify += (cell.end - max(r.end for r in refs)) * 1e3
        tries = [c.args["wall_s"] / c.args["floor_s"] for c in kids
                 if c.name == "pipeline.run" and "floor_s" in c.args]
        if tries:
            by_config.setdefault(cell.args.get("config", "?"), []).append(min(tries))
    m["bench.verify_ms"] = verify
    for config, key in (("CPU", "cpu"), ("4GPUs", "4gpus"), ("CPU+4GPUs", "cpu-4gpus")):
        m[f"bench.fidelity.{key}"] = _p50(by_config.get(config, []))
    return m
