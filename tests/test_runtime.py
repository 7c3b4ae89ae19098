"""Chunk claiming, scheduling policy, device paths, and multi-unit execution."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstream.bench import resolve_config
from hstream.errors import ConfigurationError, DeviceMemoryError, ResolveError
from hstream.frontend import compile_source
from hstream.ir import (
    ALL_DEVICES,
    AutoSchedule,
    DeviceIds,
    PerDeviceSchedule,
    UniformSchedule,
)
from hstream.pdl import (
    AUTO_MAX_BYTES,
    AUTO_MIN_BYTES,
    bind,
    chunk_size_for,
    parse_pdl,
)
from hstream.pipeline import GeneratedSource, MemorySink, run_pipeline
from hstream.runtime import (
    Chunk,
    ExecutableKernel,
    SharedCursor,
    SimulatedDevice,
    charge_seconds,
    compute_seconds,
    evaluate_sequential,
    execute,
    plan,
    run_on_accelerator,
    run_on_cpu,
    transfer_seconds,
)
from tests.conftest import DISA_PDL, TRIAD_SOURCE
from tests.test_pipeline import ListSource


def triad():
    spec = compile_source(TRIAD_SOURCE, "Triad").kernels[0]
    return ExecutableKernel.from_kernel_spec(spec, {"scalar": 3.0})


def kernel_of(src, scalars=None, name="K"):
    spec = compile_source(src, name).kernels[0]
    return ExecutableKernel.from_kernel_spec(spec, scalars or {})


FILL = """double a[64];
double scalar;
#pragma hstream in(scalar) out(a)
{
    a = scalar;
}
"""

COPY = """double a[64];
double b[64];
#pragma hstream in(b) out(a)
{
    a = b;
}
"""


# --- claiming ----------------------------------------------------------------

def test_sequential_claims_partition_total():
    # hand enumeration: 10 in steps of 4 -> [0,4) [4,8) [8,10), then exhausted
    cursor = SharedCursor(10)
    claims = [cursor.claim(4) for _ in range(4)]
    assert claims[0] == Chunk(0, 4)
    assert claims[1] == Chunk(4, 8)
    assert claims[2] == Chunk(8, 10)
    assert claims[3] is None


def test_empty_total_exhausts_immediately():
    assert SharedCursor(0).claim(8) is None


def test_chunk_clamped_at_total():
    cursor = SharedCursor(5)
    assert cursor.claim(8) == Chunk(0, 5)
    assert cursor.claim(8) is None


def test_claim_requires_positive_chunk():
    with pytest.raises(ValueError):
        SharedCursor(5).claim(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10_000), st.integers(1, 10_000), st.integers(1, 8))
def test_concurrent_claims_disjoint_cover(total, chunk, n_threads):
    chunk = min(chunk, total)
    cursor = SharedCursor(total)
    per_thread = {i: [] for i in range(n_threads)}

    def worker(tid):
        while True:
            claimed = cursor.claim(chunk)
            if claimed is None:
                return
            per_thread[tid].append(claimed)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for claims in per_thread.values():  # each thread sees starts increase
        assert [c.start for c in claims] == sorted(c.start for c in claims)
    covered = 0
    for claimed in sorted((c for cs in per_thread.values() for c in cs),
                          key=lambda c: c.start):
        assert claimed.start == covered  # disjoint, gap-free
        covered = claimed.finish
    assert covered == total
    assert sum(len(c) for cs in per_thread.values() for c in cs) == total
    assert cursor.remaining == 0


# --- chunk sizing ---------------------------------------------------------------

def make_platform():
    return parse_pdl(DISA_PDL)


def test_uniform_chunk_for_any_unit():
    platform = make_platform()
    for pu in platform.pus:
        assert chunk_size_for(pu, UniformSchedule(4096), 10**7, platform.pus) == 4096


def test_per_device_lookup():
    platform = make_platform()
    spec = PerDeviceSchedule(((1, 1000), (2, 5000)))
    assert chunk_size_for(platform.by_id(2), spec, 10**6, platform.pus) == 5000


def test_per_device_missing_engaged_unit_is_config_error():
    platform = make_platform()
    spec = PerDeviceSchedule(((1, 1000),))
    with pytest.raises(ConfigurationError):
        chunk_size_for(platform.by_id(2), spec, 10**6, platform.pus)


def test_auto_proportional_to_speed():
    # clamp-free total divisible by 16 * (1 + 4): direct formula evaluation
    # gives cpu 131072 and gpu 524288, exactly 4x.
    platform = make_platform()
    cpu, gpu = platform.by_id(0), platform.by_id(1)
    engaged = [cpu, gpu]
    total = 80 * 2**17
    cpu_chunk = chunk_size_for(cpu, AutoSchedule(), total, engaged=engaged)
    gpu_chunk = chunk_size_for(gpu, AutoSchedule(), total, engaged=engaged)
    assert cpu_chunk == 131072
    assert gpu_chunk == 524288
    assert gpu_chunk == 4 * cpu_chunk


def test_auto_clamps_to_floor_and_ceiling():
    platform = make_platform()
    cpu, gpu = platform.by_id(0), platform.by_id(1)
    engaged = [cpu, gpu]
    floor = AUTO_MIN_BYTES // 8
    ceiling = AUTO_MAX_BYTES // 8
    assert chunk_size_for(cpu, AutoSchedule(), 2**20, engaged=engaged) == floor
    assert chunk_size_for(gpu, AutoSchedule(), 2**34, engaged=engaged) == ceiling


# --- cpu path --------------------------------------------------------------------

def test_run_on_cpu_triad_values():
    # arithmetic oracle: 1+3*10=31, 2+3*20=62
    kern = triad()
    host = {"a": np.zeros(2), "b": np.array([1.0, 2.0]),
            "c": np.array([10.0, 20.0])}
    run_on_cpu(kern, host, Chunk(0, 2))
    assert host["a"].tolist() == [31.0, 62.0]


def test_run_on_cpu_fill_constant():
    kern = kernel_of(FILL, {"scalar": 7.0})
    host = {"a": np.zeros(3)}
    run_on_cpu(kern, host, Chunk(0, 3))
    assert host["a"].tolist() == [7.0, 7.0, 7.0]


# --- accelerator path ----------------------------------------------------------------

def test_accelerator_touches_only_its_chunk():
    kern = triad()
    platform = make_platform()
    dev = SimulatedDevice(platform.by_id(1))
    n = 12
    b = np.arange(n, dtype=float)
    c = np.ones(n)
    a = np.full(n, -1.0)
    host = {"a": a, "b": b, "c": c}
    run_on_accelerator(dev, kern, host, Chunk(4, 8))
    # oracle: sequential evaluation restricted to the chunk
    assert a[4:8].tolist() == [float(i) + 3.0 for i in range(4, 8)]
    assert np.all(a[:4] == -1.0) and np.all(a[8:] == -1.0)


def test_accelerator_never_reads_host_after_copy_in():
    kern = triad()
    platform = make_platform()
    dev = SimulatedDevice(platform.by_id(1))
    n = 8
    host = {"a": np.zeros(n), "b": np.ones(n), "c": np.ones(n)}
    expected = evaluate_sequential(kern, {"b": host["b"], "c": host["c"]})
    evaluate = kern.eval_into

    def poison_then_evaluate(arrays, length):
        # copy-in is done: from here on the host inputs must not be read
        host["b"][:] = np.nan
        host["c"][:] = np.nan
        evaluate(arrays, length)

    kern.eval_into = poison_then_evaluate
    run_on_accelerator(dev, kern, host, Chunk(0, n))
    assert host["a"].tobytes() == expected["a"].tobytes()


UNWRITTEN_OUT = """double a[128];
double b[128];
double d[128];
#pragma hstream in(b) out(a, d) device(1) scheduling(16)
{
    a = b;
}
"""


@pytest.mark.parametrize("config", ["CPU", "1GPU", "CPU+4GPUs"])
@pytest.mark.parametrize("path", ["execute", "run_pipeline"])
def test_out_array_the_body_never_writes_comes_back_as_zeros(config, path):
    # 16-element buffers come from numpy's small-block cache, so without
    # zeroing, d would return the 7.5s of a buffer freed by an earlier chunk
    spec = compile_source(UNWRITTEN_OUT, "K").kernels[0]
    kern = ExecutableKernel.from_kernel_spec(spec)
    platform = parse_pdl(DISA_PDL)
    device = resolve_config(platform, config)
    n = 128
    expected = evaluate_sequential(kern, {"b": np.full(n, 7.5)})
    assert expected["d"].tolist() == [0.0] * n
    for _ in range(3):
        if path == "execute":
            host = {"a": np.zeros(n), "b": np.full(n, 7.5), "d": np.zeros(n)}
            execute(kern, host, platform, device, spec.scheduling)
            got = {name: host[name] for name in kern.output_arrays}
        else:
            sink = MemorySink()
            run_pipeline(ListSource(kern.input_arrays, n, fill=7.5), kern, platform,
                         device, spec.scheduling, 64, sink)
            got = sink.arrays()
        for name in kern.output_arrays:
            assert got[name].tobytes() == expected[name].tobytes(), name


def test_accelerator_charge_counts_transfers_and_compute():
    kern = triad()  # moves b, c, a in and a out: 4 slices
    platform = make_platform()
    dev = SimulatedDevice(platform.by_id(1))
    n = 2**17  # 1 MB per slice
    charged = charge_seconds(dev.pu, kern, n)
    expected = transfer_seconds(dev.pu, 4 * n * 8) + compute_seconds(dev.pu, n)
    assert charged == pytest.approx(expected)
    assert charge_seconds(platform.by_id(0), kern, n) == compute_seconds(platform.by_id(0), n)


def test_fill_has_zero_copy_in_volume():
    kern = kernel_of(FILL, {"scalar": 2.0})
    platform = make_platform()
    dev = SimulatedDevice(platform.by_id(1))
    n = 2**17
    charged = charge_seconds(dev.pu, kern, n)
    expected = transfer_seconds(dev.pu, n * 8) + compute_seconds(dev.pu, n)  # out only
    assert charged == pytest.approx(expected)


def test_simulated_out_of_memory_names_unit():
    kern = triad()
    platform = make_platform()
    big = 2**30  # 3 buffers x 8 bytes x 2**30 elements against 8 GB
    with pytest.raises(DeviceMemoryError,
                       match=r"^pu 1 \(gpu\) cannot hold chunk \[0, 1073741824\): "
                             r"needs 25769803776 bytes, device memory is "
                             r"8589934592 bytes$"):
        plan(kern, big, platform, DeviceIds((1,)), UniformSchedule(big))


def test_out_of_memory_raises_before_any_chunk_is_evaluated():
    # the slow gpu's first claim comes after the cpu's first ones; 1024
    # elements x 2 buffers x 8 bytes exceed its 10,737 bytes
    platform = parse_pdl("""<platform name="p">
      <pu id="0" type="cpu" cores="2" threads="4" frequency_ghz="1" memory_gb="64"/>
      <pu id="1" type="gpu" cores="64" frequency_ghz="1" memory_gb="0.00001">
        <sim speed_factor="0.5"/></pu>
    </platform>""")
    kern = kernel_of(COPY)
    n = 2**14
    host = {"a": np.zeros(n), "b": np.arange(n, dtype=np.float64)}
    before = {name: arr.copy() for name, arr in host.items()}
    with pytest.raises(DeviceMemoryError, match="needs 16384 bytes, device "
                                                "memory is 10737 bytes"):
        execute(kern, host, platform, scheduling=UniformSchedule(1024))
    for name, arr in host.items():
        assert arr.tobytes() == before[name].tobytes(), name


# --- execute ----------------------------------------------------------------------

def test_execute_triad_two_units_matches_oracle():
    platform = parse_pdl("""<platform name="p">
      <pu id="0" type="cpu" cores="4" threads="8" frequency_ghz="2" memory_gb="16"/>
      <pu id="1" type="gpu" cores="128" frequency_ghz="1" memory_gb="8"/>
    </platform>""")
    kern = triad()
    n = 2**16
    rng = np.random.default_rng(3)
    b, c = rng.random(n), rng.random(n)
    host = {"a": np.zeros(n), "b": b, "c": c}
    stats = execute(kern, host, platform, scheduling=UniformSchedule(4096))
    assert sum(s.chunks_claimed for s in stats.per_pu.values()) == 16  # 2**16 / 4096
    assert stats.total_elements == n
    expected = evaluate_sequential(kern, {"b": b, "c": c})
    assert host["a"].tobytes() == expected["a"].tobytes()


def test_execute_single_device_takes_all_chunks():
    platform = make_platform()
    kern = triad()
    n = 4096 * 4
    host = {"a": np.zeros(n), "b": np.ones(n), "c": np.ones(n)}
    stats = execute(kern, host, platform, DeviceIds((1,)),
                    UniformSchedule(4096))
    assert set(stats.per_pu) == {1}
    assert stats.per_pu[1].chunks_claimed == 4


def test_execute_single_element():
    platform = make_platform()
    kern = triad()
    host = {"a": np.zeros(1), "b": np.array([2.0]), "c": np.array([4.0])}
    stats = execute(kern, host, platform, scheduling=UniformSchedule(100))
    assert sum(s.chunks_claimed for s in stats.per_pu.values()) == 1
    assert host["a"][0] == 2.0 + 3.0 * 4.0


def test_execute_empty_arrays():
    platform = make_platform()
    kern = triad()
    host = {"a": np.zeros(0), "b": np.zeros(0), "c": np.zeros(0)}
    stats = execute(kern, host, platform, scheduling=UniformSchedule(10))
    assert stats.total_elements == 0
    assert stats.bytes_moved == 0


def test_execute_results_identical_across_runs():
    platform = make_platform()
    kern = triad()
    n = 50_000
    rng = np.random.default_rng(11)
    b, c = rng.random(n), rng.random(n)
    images = []
    for _ in range(3):
        host = {"a": np.zeros(n), "b": b.copy(), "c": c.copy()}
        execute(kern, host, platform, scheduling=UniformSchedule(997))
        images.append(host["a"].tobytes())
    assert images[0] == images[1] == images[2]


def test_execute_claim_log_monotone_and_disjoint():
    platform = make_platform()
    kern = triad()
    n = 40_000
    schedule = plan(kern, n, platform, scheduling=UniformSchedule(1024))
    covered = 0
    for claim in schedule.claims:
        assert claim.chunk.start == covered
        covered = claim.chunk.finish
    assert covered == n


def test_execute_mismatched_lengths_rejected():
    platform = make_platform()
    kern = triad()
    host = {"a": np.zeros(4), "b": np.zeros(4), "c": np.zeros(5)}
    with pytest.raises(ConfigurationError, match="differ in length"):
        execute(kern, host, platform)


def test_execute_missing_array_rejected():
    platform = make_platform()
    kern = triad()
    with pytest.raises(ConfigurationError, match="needs array 'c'"):
        execute(kern, {"a": np.zeros(4), "b": np.zeros(4)}, platform)


def test_execute_per_device_gap_detected_before_start():
    platform = make_platform()
    kern = triad()
    host = {"a": np.zeros(8), "b": np.zeros(8), "c": np.zeros(8)}
    with pytest.raises(ConfigurationError):
        execute(kern, host, platform, DeviceIds((0, 1)),
                PerDeviceSchedule(((0, 4),)))


def test_execute_oom_propagates():
    platform = parse_pdl("""<platform name="p">
      <pu id="0" type="cpu" cores="2" threads="4" frequency_ghz="1" memory_gb="64"/>
      <pu id="1" type="gpu" cores="64" frequency_ghz="1" memory_gb="0.0001"/>
    </platform>""")
    kern = triad()
    n = 2**16
    host = {"a": np.zeros(n), "b": np.ones(n), "c": np.ones(n)}
    with pytest.raises(DeviceMemoryError, match="pu 1"):
        execute(kern, host, platform, DeviceIds((1,)),
                scheduling=UniformSchedule(n))


def test_first_chunk_error_propagates():
    platform = make_platform()
    kern = triad()
    boom = RuntimeError("injected failure")
    original = kern.statements
    calls = []

    def exploding(env):
        calls.append(1)
        raise boom

    kern.statements = ((original[0][0], exploding),)
    n = 8192
    host = {"a": np.zeros(n), "b": np.ones(n), "c": np.ones(n)}
    with pytest.raises(RuntimeError, match="injected failure"):
        execute(kern, host, platform, scheduling=UniformSchedule(64))
    assert len(calls) == 1  # no chunk is evaluated after the failing one


def test_paced_execute_is_deterministic_and_reports_the_makespan():
    # the virtual clock orders claims, so two runs agree claim for claim
    platform = make_platform()
    kern = triad()
    n = 100_000
    rng = np.random.default_rng(5)
    b, c = rng.random(n), rng.random(n)
    runs = []
    for _ in range(2):
        host = {"a": np.zeros(n), "b": b.copy(), "c": c.copy()}
        runs.append(execute(kern, host, platform, scheduling=UniformSchedule(1000),
                            pace=True))
    first, second = runs
    schedules = [plan(kern, n, platform, scheduling=UniformSchedule(1000))
                 for _ in range(2)]
    assert schedules[0].claims == schedules[1].claims
    assert first.per_pu == second.per_pu == schedules[0].per_pu
    assert first.wall_time == second.wall_time == schedules[0].makespan
    assert first.wall_time == max(s.busy_time for s in first.per_pu.values())
    assert len({c.pu.id for c in schedules[0].claims}) == 5  # every unit took part


@st.composite
def platforms(draw):
    """The DISA platform, or a made-up one: a cpu and up to three
    accelerators of random kind, speed and transfer cost."""
    if draw(st.booleans()):
        return make_platform()
    units = ['<pu id="0" type="cpu" cores="2" threads="4" frequency_ghz="1" '
             f'memory_gb="64"><sim speed_factor="{draw(st.sampled_from([0.5, 1, 3]))}"/></pu>']
    for pu_id in range(1, draw(st.integers(0, 3)) + 1):
        kind = draw(st.sampled_from(["gpu", "mic"]))
        speed = draw(st.sampled_from([0.25, 1, 2, 4, 7.5]))
        cost = draw(st.sampled_from([0, 0.001, 0.004, 0.05]))
        units.append(f'<pu id="{pu_id}" type="{kind}" cores="64" frequency_ghz="1" '
                     f'memory_gb="8"><sim speed_factor="{speed}" '
                     f'transfer_cost_per_mb="{cost}"/></pu>')
    return parse_pdl(f'<platform name="p">{"".join(units)}</platform>')


@settings(max_examples=150, deadline=None)
@given(platforms(), st.data(), st.integers(0, 3000))
def test_plan_is_the_paced_execution(platform, data, total):
    ids = [pu.id for pu in platform.pus]
    device = DeviceIds(tuple(data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                                unique=True))))
    chunk = st.one_of(st.just(1), st.integers(1, 700))
    if data.draw(st.booleans()):
        scheduling = UniformSchedule(data.draw(chunk))
    else:
        scheduling = PerDeviceSchedule(tuple((i, data.draw(chunk)) for i in device.ids))
    kern = triad()
    rng = np.random.default_rng(total)
    b, c = rng.random(total), rng.random(total)
    host = {"a": np.zeros(total), "b": b, "c": c}

    schedule = plan(kern, total, platform, device, scheduling)
    stats = execute(kern, host, platform, device, scheduling, pace=True)

    assert stats.wall_time == schedule.makespan
    assert stats.per_pu == schedule.per_pu
    assert [pu.id for pu in schedule.units] == list(device.ids)
    covered = 0
    clocks = {pu_id: 0.0 for pu_id in device.ids}
    counts = {pu_id: 0 for pu_id in device.ids}
    elements = {pu_id: 0 for pu_id in device.ids}
    for pu, chunk_claimed, begin, end in schedule.claims:
        assert chunk_claimed.start == covered  # contiguous from 0
        covered = chunk_claimed.finish
        assert begin == clocks[pu.id] and end > begin  # a unit never waits
        clocks[pu.id] = end
        counts[pu.id] += 1
        elements[pu.id] += len(chunk_claimed)
    assert covered == total
    for pu_id, unit in stats.per_pu.items():
        assert (unit.chunks_claimed, unit.elements_processed, unit.busy_time) == \
            (counts[pu_id], elements[pu_id], clocks[pu_id])
    assert schedule.makespan == max(clocks.values())
    assert host["a"].tobytes() == evaluate_sequential(kern, {"b": b, "c": c})["a"].tobytes()


def _raised(call):
    """(type, message) of what `call()` raises, or None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=50, deadline=None)
@given(platforms(), st.data(), st.integers(1, 2000))
def test_no_configuration_error_is_raised_in_flight(platform, data, total):
    """Whatever the clauses, the planner fails exactly when binding does, and
    a pipeline fails as binding does, before any stage, or not at all."""
    ids = [pu.id for pu in platform.pus]
    known_or_not = ids + [max(ids) + 1, 9]
    device = data.draw(st.one_of(
        st.just(ALL_DEVICES),  # or lists that may repeat ids or name unknown ones
        st.lists(st.sampled_from(known_or_not), max_size=4).map(
            lambda l: DeviceIds(tuple(l)))))
    chunk = st.integers(1, 700)
    kind = data.draw(st.sampled_from(["uniform", "auto", "per-device"]))
    if kind == "uniform":
        scheduling = UniformSchedule(data.draw(chunk))
    elif kind == "auto":
        scheduling = AutoSchedule()
    else:
        # the listed units, with at most one entry dropped and one added
        listed = ids if device == ALL_DEVICES else list(dict.fromkeys(device.ids))
        others = [i for i in known_or_not if i not in listed]

        def at_most_one(values):
            return st.sets(st.sampled_from(values), max_size=1) if values else st.just(set())

        drop, add = data.draw(at_most_one(listed)), data.draw(at_most_one(others))
        scheduling = PerDeviceSchedule(tuple(
            (i, data.draw(chunk)) for i in [*listed, *add] if i not in drop))
    kern = triad()

    bound = _raised(lambda: bind(platform, device, scheduling, total,
                                 kern.max_element_size))
    assert _raised(lambda: plan(kern, total, platform, device, scheduling)) == bound
    source = GeneratedSource(kern.input_arrays, total)
    ran = _raised(lambda: run_pipeline(source, kern, platform, device,
                                       scheduling, batch_elements=total))
    assert ran == bound
    assert bound is None or bound[0] in (ResolveError, ConfigurationError)


def test_int_kernel_c_division_semantics():
    src = """int a[8];
int b[8];
int s;
s = -7;
#pragma hstream in(b, s) out(a)
{
    a = b / s;
}
"""
    kern = kernel_of(src, {"s": -7})
    b = np.array([21, -21, 20, -20, 1, -1, 0, 6], dtype=np.int32)
    host = {"a": np.zeros(8, dtype=np.int32), "b": b}
    run_on_cpu(kern, host, Chunk(0, 8))
    # C truncation toward zero
    assert host["a"].tolist() == [-3, 3, -2, 2, 0, 0, 0, 0]


INT_MIN = np.iinfo(np.int32).min


@pytest.mark.parametrize("divisor", ["c", "s"])
def test_int_division_by_zero_gives_zero_and_int_min_by_minus_one_wraps(divisor):
    # x / 0 is 0 whatever the sign of x, and INT_MIN / -1 wraps to INT_MIN,
    # with no numpy warning; the divisor is an array or a scalar
    src = f"""int a[4];
int b[4];
int c[4];
int s;
#pragma hstream in(b, c, s) out(a)
{{
    a = b / {divisor};
}}
"""
    b = np.array([-5, 5, 0, INT_MIN], dtype=np.int32)
    for divisor_value, expected in ((0, [0, 0, 0, 0]), (-1, [5, -5, 0, INT_MIN])):
        kern = kernel_of(src, {"s": divisor_value})
        host = {"a": np.zeros(4, dtype=np.int32), "b": b,
                "c": np.full(4, divisor_value, dtype=np.int32)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_on_cpu(kern, host, Chunk(0, 4))
        assert host["a"].tolist() == expected
