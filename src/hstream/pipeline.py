"""Three-stage streaming execution: data producer, data processor, data store.

Exactly three stage workers connected by bounded blocking queues realize the
model: the producer reads batches from a source and notifies the processor;
the processor distributes each batch's index space across the engaged units;
the store writes finished batches out strictly in sequence order. Bounded
queues give back-pressure, so at most `QUEUE_CAPACITY` batches sit between
any two stages and a slow consumer stalls the producer instead of growing
memory. Stages overlap across batches: while batch b is being written,
batch b+1 may be processing and batch b+2 may be being read. The first error
in any stage stops every stage at its next batch.

Stream files are raw little-endian element records; a record holds one element
per named array, in array order, so multi-input kernels stream as interleaved
tuples.
"""

from __future__ import annotations

import functools
import itertools
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Protocol, Union

import numpy as np

from hstream.errors import PipelineError
from hstream.ir import (
    ALL_DEVICES,
    AutoSchedule,
    DeviceSelector,
    ElementType,
    SchedulingSpec,
)
from hstream.pdl import PlatformDescription, bind
from hstream.runtime import ExecutableKernel, RunStats, execute

QUEUE_CAPACITY = 2


# --- Batches -------------------------------------------------------------------

@dataclass
class Batch:
    seq: int
    arrays: dict[str, np.ndarray]
    length: int


@dataclass
class ProcessedBatch:
    seq: int
    outputs: dict[str, np.ndarray]
    length: int
    stats: RunStats


class StageTrace:
    """Begin/end timestamps per (batch, stage), recorded with a monotonic clock."""

    STAGES = ("read", "process", "write")

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: dict[tuple[int, str], tuple[float, float]] = {}

    def record(self, seq: int, stage: str, begin: float, end: float) -> None:
        with self._lock:
            self._spans[(seq, stage)] = (begin, end)

    def span(self, seq: int, stage: str) -> tuple[float, float]:
        return self._spans[(seq, stage)]

    def has(self, seq: int, stage: str) -> bool:
        return (seq, stage) in self._spans

    @property
    def seqs(self) -> list[int]:
        return sorted({seq for seq, _ in self._spans})

    def stage_ordering_ok(self) -> bool:
        """read(b) ends before process(b) begins; process(b) before write(b)."""
        for seq in self.seqs:
            read = self._spans.get((seq, "read"))
            proc = self._spans.get((seq, "process"))
            write = self._spans.get((seq, "write"))
            if read and proc and read[1] > proc[0]:
                return False
            if proc and write and proc[1] > write[0]:
                return False
        return True

    def overlapping_write_process_pairs(self) -> list[tuple[int, int]]:
        """Batches b where write(b) overlaps process(b+1) in time."""
        pairs = []
        for seq in self.seqs:
            write = self._spans.get((seq, "write"))
            nxt = self._spans.get((seq + 1, "process"))
            if write and nxt and write[0] < nxt[1] and nxt[0] < write[1]:
                pairs.append((seq, seq + 1))
        return pairs


# --- Sources ---------------------------------------------------------------------

class StreamSource(Protocol):
    names: tuple[str, ...]

    def read(self, max_elements: int) -> tuple[int, dict[str, np.ndarray]]:
        """Return up to max_elements per array; count 0 signals end of stream."""
        ...


class GeneratedSource:
    """Deterministic pseudo-random source: each named array draws from its own
    seed stream, so content depends only on (seed, name, position), not on
    batch boundaries. `element_types` gives each array's type; arrays it does
    not name are double."""

    def __init__(self, names: Iterable[str], total_elements: int, seed: int = 42,
                 element_types: Optional[Mapping[str, ElementType]] = None):
        self.names = tuple(names)
        self.total_elements = int(total_elements)
        types = element_types or {}
        self.element_types = {n: types.get(n, ElementType.DOUBLE)
                              for n in self.names}
        self._remaining = self.total_elements
        self._rngs = {
            name: np.random.default_rng([seed, i])
            for i, name in enumerate(self.names)
        }

    def read(self, max_elements: int) -> tuple[int, dict[str, np.ndarray]]:
        count = min(self._remaining, max_elements)
        if count <= 0:
            return 0, {}
        self._remaining -= count
        arrays = {n: rng.integers(-1000, 1000, count, dtype=np.int32)
                  if self.element_types[n] is ElementType.INT else rng.random(count)
                  for n, rng in self._rngs.items()}
        return count, arrays

    def read_all(self) -> dict[str, np.ndarray]:
        _, arrays = self.read(self.total_elements)
        return arrays


class FileSource:
    """Raw little-endian stream file of interleaved per-array records."""

    def __init__(self, path: Union[str, Path], names: Iterable[str],
                 element_type: ElementType = ElementType.DOUBLE):
        self.names = tuple(names)
        if not self.names:
            raise ValueError("a file source needs at least one named array")
        self.element_type = element_type
        self._dtype = np.dtype(element_type.numpy_dtype).newbyteorder("<")
        self._record_bytes = self._dtype.itemsize * len(self.names)
        self._fh = open(path, "rb")

    def read(self, max_elements: int) -> tuple[int, dict[str, np.ndarray]]:
        raw = self._fh.read(self._record_bytes * max_elements)
        if not raw:
            return 0, {}
        if len(raw) % self._record_bytes:
            raise PipelineError(
                f"truncated stream: {len(raw)} bytes is not a whole number of "
                f"{self._record_bytes}-byte records")
        records = np.frombuffer(raw, dtype=self._dtype).reshape(-1, len(self.names))
        count = records.shape[0]
        # column copies: frombuffer views are read-only, inout arrays need writes
        arrays = {name: records[:, i].copy() for i, name in enumerate(self.names)}
        return count, arrays

    def close(self) -> None:
        self._fh.close()


# --- Sinks ----------------------------------------------------------------------

class FileSink:
    """Writes output arrays as interleaved little-endian records, each array's
    elements in that array's own type."""

    def __init__(self, path: Union[str, Path], names: Iterable[str]):
        self.names = tuple(names)
        self._fh = open(path, "wb")

    def write(self, batch: ProcessedBatch) -> None:
        if not self.names:
            return
        columns = [np.asarray(batch.outputs[name]) for name in self.names]
        records = np.empty(len(columns[0]), dtype=[
            (name, col.dtype.newbyteorder("<"))
            for name, col in zip(self.names, columns)])
        for name, col in zip(self.names, columns):
            records[name] = col
        self._fh.write(records.data)  # the buffer itself; tobytes() would copy

    def close(self) -> None:
        self._fh.close()


class DiscardSink:
    def write(self, batch: ProcessedBatch) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Keeps written batches; `arrays()` concatenates them in write order."""

    def __init__(self):
        self.batches: list[ProcessedBatch] = []

    def write(self, batch: ProcessedBatch) -> None:
        self.batches.append(batch)

    def close(self) -> None:
        pass

    def arrays(self) -> dict[str, np.ndarray]:
        if not self.batches:
            return {}
        names = self.batches[0].outputs.keys()
        return {n: np.concatenate([b.outputs[n] for b in self.batches])
                for n in names}


# --- Stage operations -------------------------------------------------------------

def produce(source: StreamSource, batch_elements: int) -> Iterator[Batch]:
    """Carve the source into consecutively numbered batches; the last one may
    be shorter. A batch size below 1 raises ValueError at the call, before
    anything is read."""
    if batch_elements < 1:
        raise ValueError("batch_elements must be >= 1")
    return _batches(source, batch_elements)


def _batches(source: StreamSource, batch_elements: int) -> Iterator[Batch]:
    for seq in itertools.count():
        count, arrays = source.read(batch_elements)
        if count == 0:
            return
        yield Batch(seq=seq, arrays=arrays, length=count)


def process(batch: Batch, kernel: ExecutableKernel,
            platform: PlatformDescription,
            device: DeviceSelector = ALL_DEVICES,
            scheduling: SchedulingSpec = AutoSchedule(),
            *, pace: bool = False) -> ProcessedBatch:
    """Run one batch's index space through the multi-unit executor."""
    host = {name: np.asarray(batch.arrays[name]) if name in kernel.input_arrays
            else np.zeros(batch.length, dtype=kernel.numpy_dtypes[name])
            for name in kernel.array_names}
    stats = execute(kernel, host, platform, device, scheduling, pace=pace)
    outputs = {name: host[name] for name in kernel.output_arrays}
    return ProcessedBatch(seq=batch.seq, outputs=outputs,
                          length=batch.length, stats=stats)


def store(processed: Iterable[ProcessedBatch], sink) -> int:
    """Write batches to the sink strictly in sequence order, whatever order
    they arrive in. Returns the number of batches written."""
    pending: dict[int, ProcessedBatch] = {}
    expected = 0
    for item in processed:
        pending[item.seq] = item
        while expected in pending:
            sink.write(pending.pop(expected))
            expected += 1
    if pending:
        missing = expected
        raise PipelineError(f"stream ended but batch {missing} never arrived "
                            f"(have {sorted(pending)})")
    return expected


def default_batch_elements(kernel: ExecutableKernel,
                           platform: PlatformDescription,
                           device: DeviceSelector,
                           scheduling: SchedulingSpec) -> int:
    """Batch sizing rule: largest chunk size x engaged units x 4, bound for a
    stream of no known length (so AUTO's chunk is its 1 MB policy floor).
    A directive the platform cannot serve raises, as `bind` does."""
    units, sizes = bind(platform, device, scheduling, 0, kernel.max_element_size)
    return max(1, max(sizes) * len(units) * 4)


# --- The pipeline ------------------------------------------------------------------

_DONE = object()


def _received(inbox: queue.Queue, errors: list[BaseException]) -> Iterator:
    """Items from `inbox` up to the end marker. Once any stage has failed, the
    rest are taken but not handed on, so the stage that fills `inbox` never
    blocks on a full queue."""
    for item in iter(inbox.get, _DONE):
        if not errors:
            yield item


def _run_stage(body, inbox: Iterable, outbox: Optional[queue.Queue],
               errors: list[BaseException], errors_lock: threading.Lock) -> None:
    """Thread target for one stage: `body()`, whose exception is recorded for
    run_pipeline to raise. A failed stage still drains `inbox` (a `_received`
    iterator, or nothing for the reader), and `outbox` always ends with the end
    marker, so every other stage runs to its end too."""
    try:
        body()
    except BaseException as exc:
        with errors_lock:
            errors.append(exc)
        for _ in inbox:
            pass
    finally:
        if outbox is not None:
            outbox.put(_DONE)


def _read_stage(batches: Iterator[Batch], to_process: queue.Queue,
                trace: StageTrace, errors: list[BaseException]) -> None:
    while not errors:
        begin = time.monotonic()
        batch = next(batches, None)
        if batch is None:
            return
        trace.record(batch.seq, "read", begin, time.monotonic())
        to_process.put(batch)


def _process_stage(step, batches: Iterator[Batch], to_store: queue.Queue,
                   trace: StageTrace) -> None:
    for batch in batches:
        begin = time.monotonic()
        result = step(batch)
        trace.record(batch.seq, "process", begin, time.monotonic())
        to_store.put(result)


class _RecordingSink:
    """Times each write into the trace and keeps only (stats, length) per
    batch, never the batch arrays."""

    def __init__(self, sink, trace: StageTrace,
                 written: list[tuple[RunStats, int]]):
        self.sink, self.trace, self.written = sink, trace, written

    def write(self, batch: ProcessedBatch) -> None:
        begin = time.monotonic()
        self.sink.write(batch)
        self.trace.record(batch.seq, "write", begin, time.monotonic())
        self.written.append((batch.stats, batch.length))


def run_pipeline(source: StreamSource, kernel: ExecutableKernel,
                 platform: PlatformDescription,
                 device: DeviceSelector = ALL_DEVICES,
                 scheduling: SchedulingSpec = AutoSchedule(),
                 batch_elements: Optional[int] = None,
                 sink=None,
                 *,
                 pace: bool = False) -> tuple[RunStats, StageTrace]:
    """Run the full producer/processor/store pipeline over a stream.

    Returns aggregate run statistics (bytes follow the kernel's accounting
    convention) and the stage trace. Unpaced, the wall time spans the whole
    pipeline on the host; paced, it is the sum of the batches' modelled
    makespans, since the processor runs one batch at a time.
    A directive the platform cannot serve (ResolveError, ConfigurationError)
    and a batch size below 1 (ValueError) raise before any stage starts. The
    first stage error stops every stage at its next batch and re-raises as
    PipelineError, except that running out of memory, a fault of the host
    rather than of the stream, stays a MemoryError.
    """
    if sink is None:
        sink = DiscardSink()
    default = default_batch_elements(kernel, platform, device, scheduling)
    batches = produce(source, default if batch_elements is None else batch_elements)
    trace = StageTrace()
    to_process: queue.Queue = queue.Queue(maxsize=QUEUE_CAPACITY)
    to_store: queue.Queue = queue.Queue(maxsize=QUEUE_CAPACITY)
    errors: list[BaseException] = []
    errors_lock = threading.Lock()
    written: list[tuple[RunStats, int]] = []
    step = functools.partial(process, kernel=kernel, platform=platform,
                             device=device, scheduling=scheduling, pace=pace)
    processing = _received(to_process, errors)
    storing = _received(to_store, errors)

    stages = [
        ("reader", functools.partial(_read_stage, batches, to_process, trace,
                                     errors), (), to_process),
        ("processor", functools.partial(_process_stage, step, processing,
                                        to_store, trace), processing, to_store),
        ("writer", functools.partial(store, storing,
                                     _RecordingSink(sink, trace, written)),
         storing, None),
    ]
    threads = [threading.Thread(target=_run_stage, name=f"hstream-{name}",
                                args=(body, inbox, outbox, errors, errors_lock),
                                daemon=True)
               for name, body, inbox, outbox in stages]
    started = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    host_wall = time.monotonic() - started

    if errors:
        first = errors[0]
        # Each recorded error's traceback holds its stage's frame, which
        # holds this list: emptied, no cycle keeps the source alive.
        errors.clear()
        if isinstance(first, MemoryError):
            raise first
        raise PipelineError(f"pipeline failed in flight: {first}") from first

    wall = sum(stats.wall_time for stats, _ in written) if pace else host_wall
    bytes_moved = kernel.bytes_per_element * sum(n for _, n in written)
    return RunStats.aggregate([s for s, _ in written], wall, bytes_moved), trace
