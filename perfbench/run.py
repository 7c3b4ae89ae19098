#!/usr/bin/env python3
"""End-to-end benchmark of hstream, driven from outside through its public API.

    python3 perfbench/run.py --workload compile|stream|sweep --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --steady RUNS [--workload W] [--seconds S]

Run from the root of a checkout. One process, one caller, closed loop; the
benchmark starts no threads (hstream starts its own). The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones, from traced rounds alternating with
untraced ones; the tracing overhead is printed above them.

Every run reports all end-to-end metrics. The named workload runs for
`--seconds` and gives the metrics that belong to it. The other two run beside
it as companions, a fixed number of rounds each, and give the rest: compile
and stream interleaved with the named workload, the sweep after it.
`attempted` and `failed` count only the named workload's operations. See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PDL = ROOT / "demos" / "platforms" / "disa.pdl"
TRIAD = ROOT / "demos" / "programs" / "triad.hs.c"
NEEDED = (ROOT / "src" / "hstream" / "__init__.py", PDL, TRIAD,
          ROOT / "tests" / "corpus" / "invalid")

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import cexpr  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import tracer as tracing  # noqa: E402

MB = 2**20
WORKLOADS = ("compile", "stream", "sweep")
SETUP_START = 8     # timed set-ups before the run
SETUP_DURING = 40   # and about this many spread over it
# The stream file: triad's uniform 4096-element chunks on five units give the
# default batch of 4096 * 5 * 4 elements; a pass streams this many batches.
STREAM_BATCH = 4096 * 5 * 4
STREAM_BATCHES = 32
TRIAD_STREAM_BYTES = 24
# The reduced desk plan: six kernels, 256 chunks per stream, three configs.
SWEEP_STREAM_MB = 16
SWEEP_CHUNK_MB = SWEEP_STREAM_MB / 256
SWEEP_CONFIGS = ("CPU", "4GPUs", "CPU+4GPUs")
SWEEP_ALLOWANCE = 0.02
# Round lengths at this commit. The sweep runs a fixed number of plans (a
# plan's memory is not all given back, so peak RSS follows the plan count);
# traced runs use these to size their fixed work.
NOMINAL_ROUND_S = {"compile": 0.05, "stream": 0.15, "sweep": 4.8}
COMPANION = {"compile": 40, "stream": 24, "sweep": 2}   # rounds per companion


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# --- Set-up ---------------------------------------------------------------------------

def _hstream_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "hstream" or k.startswith("hstream.")}


def fresh_import():
    for name in _hstream_modules():
        del sys.modules[name]
    return importlib.import_module("hstream")


@dataclass
class Program:
    """hstream as the benchmark drives it, after set-up."""
    hs: object
    platform: object
    triad: tuple = None            # (spec, kernel)
    sweep_kernels: dict = None     # name -> ExecutableKernel

    def prepare(self, workload: str) -> None:
        hs = self.hs
        if workload == "stream" and self.triad is None:
            spec = hs.compile_file(TRIAD).kernels[0]
            text = TRIAD.read_text(encoding="utf-8")
            scalars = cexpr.run_statements(corpus.scalar_assignments(text),
                                           _scalar_names(text), 1)
            self.triad = (spec, hs.ExecutableKernel.from_kernel_spec(spec, scalars))
        if workload == "sweep" and self.sweep_kernels is None:
            chunk = max(1, int(SWEEP_CHUNK_MB * MB) // 8)
            self.sweep_kernels = {d.name: hs.bench.build_kernel(d, chunk_elements=chunk)[1]
                                  for d in hs.bench.kernel_catalog()}


def _scalar_names(text: str) -> dict:
    return {name: 0.0 for name, (_, elementwise) in corpus.declarations(text).items()
            if not elementwise}


class Setups:
    """Timed set-ups: import, PDL parse and the workload's kernel compile.

    A few are taken at the start and the rest spread over the named
    workload's run, since a shared host's speed can change over tens of
    seconds; `seconds` is the median of the fastest quarter."""

    def __init__(self, workload: str):
        self.workload, self.times = workload, []

    def take(self, keep: bool = True) -> Program:
        """One timed set-up. Unless kept, the modules in use before it are
        put back, since hstream imports some names at call time. The
        benchmark's own garbage is collected first, so that it is not billed
        to the set-up."""
        in_use = _hstream_modules()
        gc.collect()
        started = time.perf_counter()
        hs = fresh_import()
        program = Program(hs, hs.parse_pdl_file(PDL))
        program.prepare(self.workload)
        self.times.append(time.perf_counter() - started)
        if not keep:
            for name in _hstream_modules():
                del sys.modules[name]
            sys.modules.update(in_use)
        return program

    @property
    def seconds(self) -> float:
        return statistics.median(sorted(self.times)[:max(1, len(self.times) // 4)])


# --- Results ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations of the named workload, and what every round measured."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    compile_passes: list = field(default_factory=list)  # [busy s, [s per program]]
    stream_passes: list = field(default_factory=list)   # [wall s, [s per batch]]
    sweep_s: list = field(default_factory=list)
    modelled: list = field(default_factory=list)
    hetero: list = field(default_factory=list)

    def wrong(self, where: str, problems) -> None:
        self.problems += [f"{where}: {p}" for p in problems]


class Counter:
    """Adds to the tally's operation counts only while the named workload runs."""

    def __init__(self, tally: Tally):
        self.tally, self.on = tally, False

    def ops(self, attempted: int, failed: int = 0) -> None:
        if self.on:
            self.tally.attempted += attempted
            self.tally.failed += failed


# --- compile ---------------------------------------------------------------------------

class CompileWorkload:
    def __init__(self, program: Program, seed: int):
        self.program = program
        self.corpus = corpus.build_corpus(ROOT, seed)
        self.verdicts: dict = {}   # emitted text -> problems, checked once
        self.kb = sum(len(p.text) for p in self.corpus) / 1024

    def round(self, tally: Tally, counter: Counter) -> None:
        hs = self.program.hs
        codegen = hs.codegen
        times = []
        for prog in self.corpus:
            codes, texts = None, []
            started = time.perf_counter()
            try:
                result = hs.compile_source(prog.text, prog.unit)
                for k in result.kernels:
                    texts.append({"openmp": codegen.gen_openmp(k).text,
                                  "cuda": codegen.gen_cuda(k).text,
                                  "leo": codegen.gen_leo(k).text})
                codegen.gen_driver(result.kernels, self.program.platform)
            except hs.CompileError as exc:
                codes = exc.codes
            times.append(time.perf_counter() - started)

            if prog.expect:
                problems = checks.invalid_problems(prog.expect, codes)
            elif codes is not None:
                problems = [f"valid program rejected with {codes}"]
            else:
                key = (prog.name, json.dumps(texts))
                if key not in self.verdicts:
                    self.verdicts[key] = checks.emitted_problems(prog.text, texts)
                problems = self.verdicts[key]
            # A program with wrong output fails. Only a known emit fault may
            # fail and leave the run correct.
            counter.ops(1, 1 if problems else 0)
            if not prog.fault:
                tally.wrong(prog.name, problems)
        tally.compile_passes.append([sum(times), times])


# --- stream ----------------------------------------------------------------------------

class StreamWorkload:
    """The calls `hstreamc run` makes: FileSource, FileSink, paced pipeline."""

    def __init__(self, program: Program, seed: int):
        program.prepare("stream")
        self.program = program
        n = STREAM_BATCH * STREAM_BATCHES
        records = np.random.default_rng([seed, 7]).random((n, 2))
        self.in_path = OUT / f"stream-{os.getpid()}.in"
        self.out_path = OUT / f"stream-{os.getpid()}.out"
        records.astype("<f8").tofile(self.in_path)
        self.expected = checks.triad_expected(records)
        self.mb = n * TRIAD_STREAM_BYTES / MB   # STREAM bytes of one pass

    def round(self, tally: Tally, counter: Counter, pace: bool = True) -> None:
        hs = self.program.hs
        spec, kernel = self.program.triad
        reads, writes = [], []

        class Source(hs.FileSource):
            def read(self, max_elements):
                out = super().read(max_elements)
                if out[0]:
                    reads.append(time.perf_counter())
                return out

        class Sink(hs.FileSink):
            def write(self, batch):
                writes.append(time.perf_counter())
                super().write(batch)

        started = time.perf_counter()
        source = Source(self.in_path, kernel.input_arrays,
                        kernel.array_types[kernel.input_arrays[0]])
        sink = Sink(self.out_path, kernel.output_arrays)
        try:
            hs.run_pipeline(source, kernel, self.program.platform, spec.device,
                            spec.scheduling, None, sink, pace=pace)
        except hs.PipelineError as exc:
            counter.ops(STREAM_BATCHES, STREAM_BATCHES)
            tally.wrong("stream", [f"pipeline failed: {exc}"])
            return
        finally:
            source.close()
            sink.close()
        wall = time.perf_counter() - started

        tally.stream_passes.append([wall, [w - r for r, w in zip(reads, writes)]])
        bad = checks.stream_mismatches(self.expected, self.out_path.read_bytes(),
                                       STREAM_BATCH)
        counter.ops(STREAM_BATCHES, len(bad))
        tally.wrong("stream", [f"batch {b} differs from b + 3.0*c" for b in bad])

    def close(self) -> None:
        for path in (self.in_path, self.out_path):
            path.unlink(missing_ok=True)


# --- sweep -----------------------------------------------------------------------------

class SweepWorkload:
    """`run_experiment`, paced, over the reduced desk plan."""

    def __init__(self, program: Program, seed: int):
        program.prepare("sweep")
        self.program, self.seed = program, seed
        hs, platform = program.hs, program.platform
        self.plan = hs.bench.ExperimentPlan(
            kernels=tuple(d.name for d in hs.bench.kernel_catalog()),
            stream_sizes_mb=(SWEEP_STREAM_MB,), chunk_sizes_mb=(SWEEP_CHUNK_MB,),
            device_configs=SWEEP_CONFIGS, repeats=1, seed=seed)
        self.cells = [(k, c) for k in self.plan.kernels for c in SWEEP_CONFIGS]
        self.ceilings = {}
        for k, c in self.cells:
            units = [platform.by_id(i) for i in hs.bench.resolve_config(platform, c).ids]
            self.ceilings[(k, c)] = checks.ideal_mb_s(
                k, [(u.kind.value, u.speed_factor, u.transfer_cost_per_mb) for u in units])

    def warm_up(self) -> None:
        plan = self.program.hs.bench.ExperimentPlan(
            kernels=("TRIAD",), stream_sizes_mb=self.plan.stream_sizes_mb,
            chunk_sizes_mb=self.plan.chunk_sizes_mb, device_configs=SWEEP_CONFIGS,
            repeats=1, seed=self.seed)
        self.program.hs.bench.run_experiment(plan, self.program.platform, pace=True)

    def round(self, tally: Tally, counter: Counter) -> None:
        hs = self.program.hs
        started = time.perf_counter()
        try:
            rows = hs.bench.run_experiment(self.plan, self.program.platform, pace=True)
        except (hs.VerificationError, hs.PipelineError) as exc:
            counter.ops(len(self.cells), len(self.cells))
            tally.wrong("sweep", [f"plan failed: {exc}"])
            return
        tally.sweep_s.append(time.perf_counter() - started)
        problems = checks.sweep_row_problems(rows, self.cells, self.ceilings, SWEEP_ALLOWANCE)
        counter.ops(len(self.cells), min(len(problems), len(self.cells)))
        tally.wrong("sweep", [p for ps in problems.values() for p in ps])
        if problems:
            return
        mb_s = {(r.kernel, r.device_config): r.throughput_mb_s for r in rows}
        tally.modelled.append(statistics.mean(mb_s[(k, "CPU+4GPUs")] for k in self.plan.kernels))
        tally.hetero.append(statistics.mean(
            mb_s[(k, "CPU+4GPUs")] / max(mb_s[(k, "CPU")], mb_s[(k, "4GPUs")])
            for k in self.plan.kernels))

    def check_formulas(self, tally: Tally) -> None:
        """One unpaced run per kernel on all units, against numpy formulas."""
        hs = self.program.hs
        n = int(SWEEP_STREAM_MB * MB) // 8
        rng = np.random.default_rng([self.seed, 11])
        for name, kernel in self.program.sweep_kernels.items():
            inputs = {a: rng.random(n) for a in kernel.input_arrays}
            sink = hs.MemorySink()
            hs.run_pipeline(_ArraySource(inputs, n), kernel, self.program.platform,
                            hs.ALL_DEVICES, hs.UniformSchedule(int(SWEEP_CHUNK_MB * MB) // 8),
                            None, sink, pace=False)
            tally.wrong("sweep formula",
                        checks.formula_problems(name, inputs, sink.arrays(), n))


class _ArraySource:
    def __init__(self, arrays: dict, total: int):
        self.names, self.arrays, self.total, self.pos = tuple(arrays), arrays, total, 0

    def read(self, max_elements: int):
        count = min(max_elements, self.total - self.pos)
        if count <= 0:
            return 0, {}
        lo, self.pos = self.pos, self.pos + count
        return count, {k: v[lo:self.pos].copy() for k, v in self.arrays.items()}


# --- Running ---------------------------------------------------------------------------

def floor_seconds(hs, kernel, platform, device, elements: int) -> float:
    """The model's shortest wall for `elements` on the selected units."""
    moved = sum(kernel.element_sizes[n] for n in kernel.transfer_ins) \
        + sum(kernel.element_sizes[n] for n in kernel.transfer_outs)
    units = [(u.kind.value, u.speed_factor, u.transfer_cost_per_mb)
             for u in hs.pdl.resolve_devices(platform, device)]
    return elements / checks.elements_per_second(units, moved)


def make_workloads(program: Program, seed: int) -> dict:
    return {"compile": CompileWorkload(program, seed),
            "stream": StreamWorkload(program, seed),
            "sweep": SweepWorkload(program, seed)}


def warm_up(name: str, work, tally: Tally, counter: Counter) -> None:
    if name == "sweep":
        work.warm_up()
    else:
        work.round(tally, counter)


def run_main(name: str, work, seconds: float, tally: Tally, counter: Counter,
             rounds: int = 0, between=None) -> float:
    """The named workload: whole rounds for `seconds`, or exactly `rounds`.
    `between()` runs after each round, outside the round's own timing."""
    counter.on = True
    if name == "sweep" and not rounds:
        rounds = max(1, round(seconds / NOMINAL_ROUND_S["sweep"]))
    started = time.perf_counter()
    done = 0
    while (done < rounds) if rounds else (time.perf_counter() - started < seconds):
        work.round(tally, counter)
        done += 1
        if between:
            between()
    counter.on = False
    return time.perf_counter() - started


def run_companions(names, works: dict, tally: Tally, counter: Counter) -> None:
    for name in names:
        work = works[name]
        warm_up(name, work, Tally(), counter)
        for _ in range(COMPANION[name]):
            work.round(tally, counter)


def companions(workload: str) -> tuple[list, list]:
    """The other workloads: those interleaved with the named one, and the
    sweep, whose plan is too long to interleave, run after it."""
    others = [w for w in WORKLOADS if w != workload]
    return [w for w in others if w != "sweep"], [w for w in others if w == "sweep"]


class Interleave:
    """Side work spread evenly over the named workload's run: each task runs
    `count` times in all, one more each time its share of the run passes.
    A shared host's speed can change over tens of seconds, so every figure
    is sampled across the whole run."""

    def __init__(self, seconds: float):
        self.seconds, self.tasks, self.started = seconds, [], time.perf_counter()

    def add(self, count: int, action) -> None:
        self.tasks.append([count, 0, action])

    def __call__(self, finish: bool = False) -> None:
        elapsed = time.perf_counter() - self.started
        for task in self.tasks:
            count, done, action = task
            due = count if finish else min(count, int(elapsed / self.seconds * count))
            for _ in range(due - done):
                action()
            task[1] = max(done, due)


def fastest_quarter(passes: list) -> list:
    """The quarter of the passes with the shortest time. Other tenants of a
    shared host only ever slow a pass, by amounts that change from second to
    second; the fastest passes show what the program itself costs."""
    return sorted(passes, key=lambda p: p[0])[:max(1, len(passes) // 4)]


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float, corpus_kb: float,
               stream_mb: float) -> dict:
    p50 = statistics.median
    # A program's compile is deterministic work, so its cost is its fastest
    # time in the run (interference only adds time); streaming has threads
    # and pacing, so a whole pass is the unit.
    best = [min(times) for times in zip(*(ts for _, ts in tally.compile_passes))]
    streams = fastest_quarter(tally.stream_passes)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "compile_ms_p50": p50(best) * 1e3,
        "compile_kb_s": corpus_kb / sum(best),
        "stream_mb_s": p50([stream_mb / wall for wall, _ in streams]),
        "batch_ms_p50": p50([t for _, ts in streams for t in ts]) * 1e3,
        "sweep_s": p50(tally.sweep_s),
        "modelled_mb_s": p50(tally.modelled),
        "hetero_speedup": p50(tally.hetero),
    }
    return {k: {"value": values[k], "unit": u} for k, u in units("end_to_end").items()}


def tails(tally: Tally) -> str:
    """Tail percentiles over every pass: the highest percentile with at least
    ten samples beyond it, with the sample count."""
    out = []
    for name, passes in (("compile_ms", tally.compile_passes),
                         ("batch_ms", tally.stream_passes)):
        samples = sorted(t * 1e3 for _, ts in passes for t in ts)
        for pct in (99.9, 99, 90):
            if len(samples) * (100 - pct) / 100 >= 10:
                out.append(f"{name} p{pct:g} {samples[int(len(samples) * pct / 100)]:.3f} "
                           f"(n={len(samples)})")
                break
    return "; ".join(out)


def units(kind: str) -> dict:
    """Metric name -> unit, as `BENCHMARK.json` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    setups = Setups(workload)
    program = setups.take()
    for _ in range(SETUP_START - 1):
        setups.take(keep=False)
    works = make_workloads(program, seed)
    tally = Tally()
    counter = Counter(tally)
    work = works[workload]
    try:
        interleaved, after = companions(workload)
        for name in (*interleaved, workload):
            warm_up(name, works[name], Tally(), counter)
        if not trace:
            side = Interleave(seconds)
            side.add(SETUP_DURING, lambda: setups.take(keep=False))
            for name in interleaved:   # counts no operations: its counter stays off
                side.add(COMPANION[name],
                         lambda w=works[name], c=Counter(tally): w.round(tally, c))
            run_main(workload, work, seconds, tally, counter, between=side)
            side(finish=True)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            run_companions(after, works, tally, counter)
            metrics = end_to_end(tally, setups.seconds, peak_rss_mb, works["compile"].kb,
                                 works["stream"].mb)
            print(f"tails: {tails(tally) or 'none'}")
        else:
            metrics = traced(workload, works, program, seed, seconds, tally, counter,
                             interleaved + after)
        works["sweep"].check_formulas(tally)
    finally:
        works["stream"].close()
    samples = {k: v for k, v in vars(tally).items() if k != "problems"}
    samples["setup_s"] = setups.times
    (OUT / f"samples-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(samples))
    for problem in tally.problems[:20]:
        print(f"WRONG {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.4f} {m['unit']}")
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced(workload, works, program, seed, seconds, tally, counter, others) -> dict:
    """Rounds of the named workload, untraced and traced in turn so that both
    see the same host; then a set-up step and the companions, traced, so
    every layer is reached."""
    rounds = max(1, round(seconds / 2 / NOMINAL_ROUND_S[workload]))
    hs = program.hs
    tr = tracing.Tracer()
    ratios, plain, with_spans = [], 0.0, 0.0
    for _ in range(rounds):
        untraced = run_main(workload, works[workload], 0, tally, counter, 1)
        tracing.install(tr, hs, lambda *a: floor_seconds(hs, *a))
        try:
            spanned = run_main(workload, works[workload], 0, tally, counter, 1)
        finally:
            tr.remove()
        ratios.append(spanned / untraced)
        plain, with_spans = plain + untraced, with_spans + spanned
    tracing.install(tr, hs, lambda *a: floor_seconds(hs, *a))
    try:
        hs.parse_pdl_file(PDL)
        hs.compile_file(TRIAD)
        run_companions(others, works, Tally(), counter)
    finally:
        tr.remove()
    unpaced = Tally()
    for _ in range(5):
        works["stream"].round(unpaced, counter, pace=False)
    unpaced_mb_s = statistics.median(works["stream"].mb / wall
                                     for wall, _ in unpaced.stream_passes)
    print(f"unpaced stream: {unpaced_mb_s:.1f} MB/s (median of 5 passes, untraced)")
    print(f"tails: {tails(tally) or 'none'}")
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tr.write_chrome_trace(path)
    print(f"tracing overhead: {(statistics.median(ratios) - 1) * 100:+.1f}% "
          f"(median over {rounds} pairs of one untraced and one traced {workload} round; "
          f"{plain:.3f} s untraced, {with_spans:.3f} s traced in all); "
          f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}")
    values = tracing.layer_metrics(tr.spans)
    return {k: {"value": float(values[k]), "unit": u} for k, u in units("per_layer").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="run two sets of RUNS runs per workload and compare them")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.exists()]
    if missing:
        fail_setup(f"run from the root of an hstream checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.steady:
        import steady
        return steady.main(args.steady, [args.workload] if args.workload else list(WORKLOADS),
                           args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
