"""Streaming pipeline: batching, ordering, overlap, back-pressure, errors."""

import gc
import itertools
import random
import threading
import time
import weakref

import numpy as np
import pytest

from hstream.bench import resolve_config
from hstream.errors import ConfigurationError, PipelineError, ResolveError
from hstream.frontend import compile_file, compile_source
from hstream.ir import (
    ALL_DEVICES,
    AutoSchedule,
    DeviceIds,
    ElementType,
    PerDeviceSchedule,
    UniformSchedule,
)
from hstream.pdl import parse_pdl, parse_pdl_file
from hstream.pipeline import (
    QUEUE_CAPACITY,
    Batch,
    DiscardSink,
    FileSink,
    FileSource,
    GeneratedSource,
    MemorySink,
    ProcessedBatch,
    default_batch_elements,
    process,
    produce,
    run_pipeline,
    store,
)
from hstream.runtime import ExecutableKernel, RunStats, evaluate_sequential
from tests.conftest import (
    DISA_PDL,
    PLATFORMS,
    PROGRAMS,
    TRIAD_SOURCE,
    UNSERVABLE_CLAUSES,
    SlowKernel,
    SlowSink,
    triad_with_clauses,
)

SMALL_PLATFORM = """<platform name="small">
  <pu id="0" type="cpu" cores="2" threads="4" frequency_ghz="2" memory_gb="16"/>
  <pu id="1" type="gpu" cores="64" frequency_ghz="1" memory_gb="8"/>
</platform>"""


def triad_kernel():
    spec = compile_source(TRIAD_SOURCE, "Triad").kernels[0]
    return ExecutableKernel.from_kernel_spec(spec, {"scalar": 3.0})


def copy_kernel(kind=ExecutableKernel):
    src = "double a[8];\ndouble b[8];\n#pragma hstream in(b) out(a)\n{\n    a = b;\n}\n"
    spec = compile_source(src, "Copy").kernels[0]
    return kind.from_kernel_spec(spec)


class ListSource:
    """Deterministic in-memory source for small structural tests; each batch
    read first sleeps `delay` seconds."""

    def __init__(self, names, total, fill=1.0, delay=0.0):
        self.names = tuple(names)
        self.remaining = total
        self.fill = fill
        self.delay = delay

    def read(self, max_elements):
        count = min(self.remaining, max_elements)
        if count == 0:
            return 0, {}
        time.sleep(self.delay)
        self.remaining -= count
        return count, {n: np.full(count, self.fill) for n in self.names}


def fake_processed(seq, length=2):
    stats = RunStats(per_pu={}, wall_time=0.0, bytes_moved=0)
    return ProcessedBatch(seq=seq, outputs={"a": np.full(length, float(seq))},
                          length=length, stats=stats)


# --- produce -----------------------------------------------------------------

def test_produce_partitions_with_short_tail():
    batches = list(produce(ListSource(("b",), 10), 4))
    assert [(b.seq, b.length) for b in batches] == [(0, 4), (1, 4), (2, 2)]


def test_produce_empty_source():
    assert list(produce(ListSource(("b",), 0), 4)) == []


def test_produce_large_division():
    # 2**20 elements in 2**18 batches -> exactly 4 (arithmetic)
    batches = list(produce(ListSource(("b",), 2**20), 2**18))
    assert len(batches) == 4
    assert all(b.length == 2**18 for b in batches)


def test_produce_requires_positive_batch():
    with pytest.raises(ValueError):
        list(produce(ListSource(("b",), 4), 0))


# --- process -----------------------------------------------------------------

def test_process_triad_batch():
    platform = parse_pdl(SMALL_PLATFORM)
    batch = Batch(0, {"b": np.ones(4), "c": np.ones(4)}, 4)
    kern = ExecutableKernel.from_kernel_spec(
        compile_source(TRIAD_SOURCE, "Triad").kernels[0], {"scalar": 2.0})
    done = process(batch, kern, platform, scheduling=UniformSchedule(2))
    assert done.outputs["a"].tolist() == [3.0, 3.0, 3.0, 3.0]
    assert done.seq == 0
    assert done.stats.total_elements == 4


def test_process_single_element():
    platform = parse_pdl(SMALL_PLATFORM)
    batch = Batch(5, {"b": np.array([4.0]), "c": np.array([1.0])}, 1)
    done = process(batch, triad_kernel(), platform)
    assert done.outputs["a"].tolist() == [7.0]
    assert done.seq == 5


def test_process_copy_is_identity():
    platform = parse_pdl(SMALL_PLATFORM)
    values = np.arange(6, dtype=float)
    batch = Batch(0, {"b": values}, 6)
    done = process(batch, copy_kernel(), platform)
    assert done.outputs["a"].tolist() == values.tolist()


# --- store -------------------------------------------------------------------

def test_store_reorders_by_seq():
    sink = MemorySink()
    store([fake_processed(1), fake_processed(0), fake_processed(2)], sink)
    assert [b.seq for b in sink.batches] == [0, 1, 2]


def test_store_order_preserved_for_random_schedules():
    # oracle: sorting by seq; 100 seeded shuffles
    rng = random.Random(1234)
    for _ in range(100):
        n = rng.randint(1, 12)
        items = [fake_processed(i) for i in range(n)]
        rng.shuffle(items)
        sink = MemorySink()
        store(items, sink)
        assert [b.seq for b in sink.batches] == list(range(n))


def test_store_detects_missing_batch():
    with pytest.raises(PipelineError, match="batch 1"):
        store([fake_processed(0), fake_processed(2)], MemorySink())


def test_store_zero_batches():
    sink = MemorySink()
    assert store([], sink) == 0
    assert sink.batches == []


def test_discard_sink_drops_everything():
    sink = DiscardSink()
    store([fake_processed(0)], sink)  # no error, nothing retained


# --- run_pipeline ----------------------------------------------------------------

def test_pipeline_end_to_end_equals_sequential():
    platform = parse_pdl(SMALL_PLATFORM)
    kern = triad_kernel()
    n = 2**16
    sink = MemorySink()
    stats, trace = run_pipeline(
        GeneratedSource(kern.input_arrays, n, seed=5), kern, platform,
        scheduling=UniformSchedule(4096), batch_elements=2**14, sink=sink)
    inputs = GeneratedSource(kern.input_arrays, n, seed=5).read_all()
    expected = evaluate_sequential(kern, inputs)
    got = sink.arrays()
    assert got["a"].tobytes() == expected["a"].tobytes()
    assert stats.total_elements == n
    assert stats.bytes_moved == kern.bytes_per_element * n
    assert trace.stage_ordering_ok()


def test_paced_pipeline_wall_sums_batch_makespans():
    platform = parse_pdl(SMALL_PLATFORM)
    kern = triad_kernel()
    sink = MemorySink()
    stats, _ = run_pipeline(
        GeneratedSource(kern.input_arrays, 10_000, seed=2), kern, platform,
        scheduling=UniformSchedule(500), batch_elements=3000, sink=sink,
        pace=True)
    makespans = [max(s.busy_time for s in b.stats.per_pu.values())
                 for b in sink.batches]
    assert len(makespans) == 4
    assert stats.wall_time == pytest.approx(sum(makespans))


def test_shipped_triad_stream_models_cpu_and_gpus_at_least_gpus_alone():
    # the demo program, paced with each configuration's default batch: the
    # CPU joining four GPUs must not lower the modelled throughput
    spec = compile_file(PROGRAMS / "triad.hs.c").kernels[0]
    kern = ExecutableKernel.from_kernel_spec(spec, {"scalar": 3.0})
    platform = parse_pdl_file(PLATFORMS / "disa.pdl")
    total = 1048576  # the program's declared array length

    def mb_s(config):
        stats, _ = run_pipeline(GeneratedSource(kern.input_arrays, total, seed=4),
                                kern, platform, resolve_config(platform, config),
                                spec.scheduling, pace=True)
        assert stats.total_elements == total
        return stats.throughput_mb_s

    assert mb_s("CPU+4GPUs") >= mb_s("4GPUs")


def test_pipeline_frees_its_sink_and_source_on_return():
    # with the cyclic collector off, only reference counting can free them:
    # the stages must leave no reference cycle holding the caller's objects
    platform = parse_pdl(SMALL_PLATFORM)
    kern = triad_kernel()
    gc.collect()
    gc.disable()
    try:
        sink = MemorySink()
        source = GeneratedSource(kern.input_arrays, 2**16, seed=1)
        probes = [weakref.ref(sink), weakref.ref(source)]
        run_pipeline(source, kern, platform, scheduling=UniformSchedule(4096),
                     batch_elements=2**14, sink=sink)
        del sink, source
        assert [probe() for probe in probes] == [None, None]
    finally:
        gc.enable()


def test_failed_pipeline_frees_its_source():
    # the recorded stage error's traceback holds the failed stage's frame;
    # with the cyclic collector off, the source is freed only if nothing in
    # that frame leads back to the error
    class ThirdReadFails(ListSource):
        reads = 0

        def read(self, max_elements):
            self.reads += 1
            if self.reads == 3:
                raise RuntimeError("third read broke")
            return super().read(max_elements)

    platform = parse_pdl(SMALL_PLATFORM)
    source = ThirdReadFails(("b",), 10 * 16)
    probe = weakref.ref(source)
    gc.collect()
    gc.disable()
    try:
        try:
            run_pipeline(source, copy_kernel(), platform, batch_elements=16,
                         sink=MemorySink())
        except PipelineError:
            pass
        else:
            pytest.fail("the failing read did not fail the pipeline")
        del source
        assert probe() is None
    finally:
        gc.enable()


def test_pipeline_overlaps_write_with_next_process():
    platform = parse_pdl(SMALL_PLATFORM)
    kern = copy_kernel(SlowKernel)
    kern.delay = 0.02  # each 64-element batch is one chunk: one sleep per batch
    stats, trace = run_pipeline(
        ListSource(("b",), 3 * 64, delay=0.02), kern, platform,
        scheduling=UniformSchedule(64), batch_elements=64, sink=SlowSink(0.02))
    assert trace.stage_ordering_ok()
    assert trace.overlapping_write_process_pairs()  # at least one (b, b+1)


def test_pipeline_single_batch_degenerate():
    platform = parse_pdl(SMALL_PLATFORM)
    kern = copy_kernel()
    stats, trace = run_pipeline(ListSource(("b",), 64), kern, platform,
                                batch_elements=256, sink=MemorySink())
    assert trace.seqs == [0]
    assert trace.stage_ordering_ok()


def test_pipeline_zero_batches_creates_empty_output(tmp_path):
    platform = parse_pdl(SMALL_PLATFORM)
    kern = copy_kernel()
    out = tmp_path / "empty.bin"
    sink = FileSink(out, kern.output_arrays)
    stats, _ = run_pipeline(ListSource(("b",), 0), kern, platform,
                            batch_elements=16, sink=sink)
    sink.close()
    assert out.exists() and out.stat().st_size == 0
    assert stats.total_elements == 0


def test_pipeline_back_pressure_bounds_read_ahead():
    platform = parse_pdl(SMALL_PLATFORM)
    kern = copy_kernel()
    _, trace = run_pipeline(
        ListSource(("b",), 12 * 16), kern, platform,
        batch_elements=16, sink=SlowSink(0.03))
    # queue occupancy bound: reads finished can lead writes started by at most
    # 2 queues + 3 in-flight batches; 12 batches leave seqs 7..11 to check
    bound = 2 * QUEUE_CAPACITY + 3
    for seq in trace.seqs:
        if seq - bound >= 0:
            read_end = trace.span(seq, "read")[1]
            write_begin = trace.span(seq - bound, "write")[0]
            assert read_end >= write_begin


def test_pipeline_error_in_processor_propagates():
    platform = parse_pdl(SMALL_PLATFORM)
    kern = copy_kernel()
    boom = RuntimeError("bad statement")

    def exploding(env):
        raise boom

    kern.statements = ((kern.statements[0][0], exploding),)
    with pytest.raises(PipelineError, match="bad statement"):
        run_pipeline(ListSource(("b",), 64), kern, platform,
                     batch_elements=16, sink=MemorySink())


@pytest.mark.parametrize("batch_elements", [0, -5])
def test_pipeline_rejects_bad_batch_size_before_starting(batch_elements):
    platform = parse_pdl(SMALL_PLATFORM)
    source = ListSource(("b",), 1000)
    sink = MemorySink()
    with pytest.raises(ValueError, match="batch_elements"):
        run_pipeline(source, copy_kernel(), platform,
                     batch_elements=batch_elements, sink=sink)
    assert source.remaining == 1000  # nothing was read
    assert sink.batches == []


def test_pipeline_error_in_source_propagates():
    platform = parse_pdl(SMALL_PLATFORM)

    class FailingSource:
        names = ("b",)

        def read(self, max_elements):
            raise OSError("stream vanished")

    with pytest.raises(PipelineError, match="stream vanished"):
        run_pipeline(FailingSource(), copy_kernel(), platform,
                     batch_elements=16, sink=MemorySink())


def failing_on_call(k, method, message):
    """`method`, except that its call number k (from 0) raises instead."""
    calls = itertools.count()

    def wrapped(*args):
        if next(calls) == k:
            raise RuntimeError(message)
        return method(*args)
    return wrapped


@pytest.mark.parametrize("k", [0, 9, 19])
@pytest.mark.parametrize("stage", ["reader", "processor", "writer"])
def test_pipeline_stage_failure_at_batch_k_stops_every_stage(stage, k):
    # 20 batches are more than the queues and stages hold, so a stage that
    # kept going, or one left waiting for an end marker, would show here
    platform = parse_pdl(SMALL_PLATFORM)
    batches = 20
    source, kern, sink = ListSource(("b",), batches * 16), copy_kernel(), MemorySink()
    # each 16-element batch is one chunk: one read, evaluation and write each
    target, method = {"reader": (source, "read"), "processor": (kern, "eval_into"),
                      "writer": (sink, "write")}[stage]
    setattr(target, method,
            failing_on_call(k, getattr(target, method), f"{stage} broke"))
    raised = []

    def run():
        try:
            run_pipeline(source, kern, platform, batch_elements=16, sink=sink)
        except PipelineError as exc:
            raised.append(exc)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(timeout=60)
    assert not helper.is_alive(), "the pipeline hung after a stage failed"
    assert [str(e) for e in raised] == [f"pipeline failed in flight: {stage} broke"]
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("hstream-")]
    written = [b.seq for b in sink.batches]
    assert written == list(range(len(written))) and len(written) <= k
    # the reader stops no further past the failing batch than the two queues
    # and the three stages can hold
    read = batches - source.remaining // 16
    assert read <= k + 2 * QUEUE_CAPACITY + 3


def test_pipeline_stops_processing_once_the_writer_failed():
    # The writer fails at batch 0 after 50 ms, while reads are instant and
    # each evaluation takes 10 ms, so the processor runs ahead of the writer
    # and the reader ahead of the processor. Until the failure is recorded,
    # the processor can have evaluated batch 0, a full queue to the writer
    # and the batch it holds; after it, no further batch. That bound holds
    # whatever the timing; the timing makes a processor that ignores the
    # failure evaluate well past it.
    platform = parse_pdl(SMALL_PLATFORM)
    kern = copy_kernel(SlowKernel)
    kern.delay = 0.01  # each 16-element batch is one chunk: one sleep per batch
    evaluations = itertools.count()
    evaluate = kern.eval_into

    def counted(*args):
        next(evaluations)
        return evaluate(*args)

    kern.eval_into = counted

    class BrokenSink(MemorySink):
        def write(self, batch):
            time.sleep(0.05)
            raise RuntimeError("writer broke")

    with pytest.raises(PipelineError, match="writer broke"):
        run_pipeline(ListSource(("b",), 40 * 16), kern, platform, batch_elements=16,
                     sink=BrokenSink())
    assert next(evaluations) <= 1 + QUEUE_CAPACITY + 1


# --- sources and sinks --------------------------------------------------------------

def test_generated_source_batch_invariant():
    names = ("b", "c")
    whole = GeneratedSource(names, 1000, seed=7).read_all()
    chunked = GeneratedSource(names, 1000, seed=7)
    parts = {n: [] for n in names}
    while True:
        count, arrays = chunked.read(64)
        if count == 0:
            break
        for n in names:
            parts[n].append(arrays[n])
    for n in names:
        assert np.concatenate(parts[n]).tobytes() == whole[n].tobytes()


def test_file_source_round_trips_file_sink(tmp_path):
    # interleaved little-endian records
    path = tmp_path / "stream.bin"
    b = np.arange(10, dtype="<f8")
    c = np.arange(10, dtype="<f8") * 2
    np.stack([b, c], axis=1).ravel().tofile(path)
    src = FileSource(path, ("b", "c"))
    count, arrays = src.read(100)
    src.close()
    assert count == 10
    assert arrays["b"].tolist() == b.tolist()
    assert arrays["c"].tolist() == c.tolist()


def test_file_source_truncated_record_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 20)  # not a whole number of 16-byte records
    src = FileSource(path, ("b", "c"))
    with pytest.raises(PipelineError, match="truncated"):
        src.read(8)
    src.close()


def test_file_sink_writes_seq_order_content(tmp_path):
    out = tmp_path / "out.bin"
    sink = FileSink(out, ("a",))
    store([fake_processed(1, 3), fake_processed(0, 3)], sink)
    sink.close()
    data = np.fromfile(out, dtype="<f8")
    assert data.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


def test_file_sink_writes_each_column_in_its_own_type(tmp_path):
    out = tmp_path / "mixed.bin"
    sink = FileSink(out, ("n", "d"))
    stats = RunStats(per_pu={}, wall_time=0.0, bytes_moved=0)
    sink.write(ProcessedBatch(0, {"n": np.array([1, 2], dtype=np.int32),
                                  "d": np.array([0.5, 2.75])}, 2, stats))
    sink.close()
    records = np.fromfile(out, dtype=[("n", "<i4"), ("d", "<f8")])
    assert out.stat().st_size == 2 * (4 + 8)
    assert records["n"].tolist() == [1, 2]
    assert records["d"].tolist() == [0.5, 2.75]


def test_generated_source_types_each_array():
    arrays = GeneratedSource(("n", "b"), 10, seed=3,
                             element_types={"n": ElementType.INT}).read_all()
    assert arrays["n"].dtype == np.int32
    assert arrays["b"].dtype == np.float64


def test_int_stream_file_source(tmp_path):
    path = tmp_path / "ints.bin"
    values = np.arange(6, dtype="<i4")
    values.tofile(path)
    src = FileSource(path, ("z",), ElementType.INT)
    count, arrays = src.read(100)
    src.close()
    assert count == 6
    assert arrays["z"].dtype == np.dtype("<i4")


def test_default_batch_rule():
    """Largest chunk x engaged units x 4; AUTO's chunk is its 1 MB floor."""
    platform = parse_pdl(DISA_PDL)
    kern = triad_kernel()
    per_device = PerDeviceSchedule(((0, 100), (1, 300), (2, 200), (3, 50), (4, 10)))
    for device, scheduling, expected in [
            (ALL_DEVICES, UniformSchedule(4096), 4096 * 5 * 4),
            (ALL_DEVICES, AutoSchedule(), (2**20 // 8) * 5 * 4),
            (DeviceIds((4, 1)), AutoSchedule(), (2**20 // 8) * 2 * 4),
            (ALL_DEVICES, per_device, 300 * 5 * 4),
            (DeviceIds((3, 1)), PerDeviceSchedule(((1, 20), (3, 700))), 700 * 2 * 4)]:
        assert default_batch_elements(kern, platform, device, scheduling) == expected


@pytest.mark.parametrize("clauses, message", UNSERVABLE_CLAUSES,
                         ids=[c for c, _ in UNSERVABLE_CLAUSES])
def test_unservable_directive_raises_before_any_stage(monkeypatch, clauses,
                                                      message):
    """With the batch size given or left to the default rule alike."""
    spec = compile_source(triad_with_clauses(clauses), "Triad").kernels[0]
    kern = ExecutableKernel.from_kernel_spec(spec, {"scalar": 3.0})
    reads, started = [], []
    source = ListSource(kern.input_arrays, 256)
    monkeypatch.setattr(source, "read", lambda n: reads.append(n) or (0, {}))
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or start(self))
    for batch_elements in (None, 64):
        with pytest.raises((ResolveError, ConfigurationError)) as caught:
            run_pipeline(source, kern, parse_pdl(DISA_PDL), spec.device,
                         spec.scheduling, batch_elements)
        assert str(caught.value) == message
        assert reads == []
        assert not [name for name in started if name.startswith("hstream-")]
