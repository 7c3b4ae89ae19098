"""Benchmark harness: kernel catalog, verified sweeps, summaries, LOC counting.

Kernel formula oracles here are hand-written numpy expressions, independent of
the compiled expression trees they check.
"""

import threading

import numpy as np
import pytest

from hstream.bench import (
    MB,
    ExperimentPlan,
    build_kernel,
    config_means,
    desk_plan,
    ideal_seconds,
    kernel_catalog,
    kernel_def,
    paper_plan,
    reference,
    resolve_config,
    run_cell,
    run_experiment,
    summarize,
)
from hstream.errors import PipelineError, ResolveError, VerificationError
from hstream.frontend import count_file_loc, count_pragma_loc
from hstream.ir import DeviceIds, PerDeviceSchedule, UniformSchedule
from hstream.pdl import PuKind, parse_pdl
from hstream.runtime import evaluate_sequential, execute, executor
from tests.conftest import DISA_PDL, PROGRAMS

SCALAR = 3.0

# independent formula oracles, one per kernel
_FORMULAS = {
    "COPY": lambda env: env["b"],
    "SCALE": lambda env: SCALAR * env["b"],
    "ADD": lambda env: env["a"] + env["b"],
    "TRIAD": lambda env: env["b"] + SCALAR * env["c"],
    "FILL": lambda env: np.full(env["n"], SCALAR),
    "DAXPY": lambda env: env["y"] + SCALAR * env["x"],
}

_EXPECTED_BYTES = {"COPY": 16, "SCALE": 16, "ADD": 24, "TRIAD": 24,
                   "FILL": 8, "DAXPY": 24}


def small_platform():
    return parse_pdl(DISA_PDL)


# --- catalog -------------------------------------------------------------------

def test_catalog_has_exactly_six_kernels():
    names = [k.name for k in kernel_catalog()]
    assert names == ["COPY", "SCALE", "ADD", "TRIAD", "FILL", "DAXPY"]


def test_catalog_triad_body():
    assert kernel_def("TRIAD").body == "a = b+scalar*c;"


def test_catalog_daxpy_present_with_body():
    assert kernel_def("DAXPY").body == "y = y + scalar*x;"


def test_bytes_per_element_follows_convention():
    for defn in kernel_catalog():
        _, kernel = build_kernel(defn)
        assert kernel.bytes_per_element == _EXPECTED_BYTES[defn.name]


@pytest.mark.parametrize("name", sorted(_FORMULAS))
def test_kernel_formulas_match_hand_oracles(name):
    defn = kernel_def(name)
    _, kernel = build_kernel(defn, scalar=SCALAR)
    n = 257
    rng = np.random.default_rng(99)
    env = {arr: rng.random(n) for arr in kernel.input_arrays}
    env["n"] = n
    outputs = evaluate_sequential(kernel, {k: v for k, v in env.items() if k != "n"}, n)
    (out_name,) = kernel.output_arrays
    expected = _FORMULAS[name](env)
    assert outputs[out_name].tobytes() == np.asarray(expected, dtype=float).tobytes()


@pytest.mark.parametrize("name", [k.name for k in kernel_catalog()])
def test_evaluate_sequential_never_writes_or_aliases_its_inputs(name):
    # every clause array is supplied, outputs too (DAXPY's y is inout)
    _, kernel = build_kernel(kernel_def(name))
    rng = np.random.default_rng(7)
    inputs = {arr: rng.random(101) for arr in kernel.array_names}
    before = {arr: v.copy() for arr, v in inputs.items()}
    outputs = evaluate_sequential(kernel, inputs)
    for arr, v in inputs.items():
        assert v.tobytes() == before[arr].tobytes(), arr
        for out_name, out in outputs.items():
            assert not np.shares_memory(out, v), (out_name, arr)


def test_unknown_kernel_name():
    with pytest.raises(KeyError):
        kernel_def("SUMM")


# --- device configurations -----------------------------------------------------

def test_named_configs_resolve():
    platform = small_platform()
    assert resolve_config(platform, "CPU") == DeviceIds((0,))
    assert resolve_config(platform, "4GPUs") == DeviceIds((1, 2, 3, 4))
    assert resolve_config(platform, "CPU+4GPUs") == DeviceIds((0, 1, 2, 3, 4))
    assert resolve_config(platform, "1GPU") == DeviceIds((1,))
    assert resolve_config(platform, "CPU+2GPUs") == DeviceIds((0, 1, 2))


def test_config_wanting_too_many_gpus():
    with pytest.raises(ResolveError, match="wants 9 gpus"):
        resolve_config(small_platform(), "9GPUs")


def test_config_gibberish_rejected():
    for name in ("TPU", "0GPUs"):
        with pytest.raises(ResolveError):
            resolve_config(small_platform(), name)


# --- plans and sweeps ------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(kernels=(), stream_sizes_mb=(1,), chunk_sizes_mb=(1,),
                       device_configs=("CPU",), repeats=1)
    with pytest.raises(ValueError):
        ExperimentPlan(kernels=("TRIAD",), stream_sizes_mb=(1,),
                       chunk_sizes_mb=(1,), device_configs=("CPU",), repeats=0)


def test_shipped_plans_shape():
    desk = desk_plan()
    paper = paper_plan()
    assert desk.repeats == 4 and paper.repeats == 10
    assert set(desk.kernels) == set(paper.kernels)
    assert paper.stream_sizes_mb == (256, 512, 1024, 2048, 4096, 8192)
    assert paper.chunk_sizes_mb == (1, 2, 4, 8, 16, 32, 64)


def test_row_count_is_factorial_product():
    plan = ExperimentPlan(kernels=("TRIAD",), stream_sizes_mb=(1,),
                          chunk_sizes_mb=(0.25,),
                          device_configs=("CPU", "CPU+4GPUs"), repeats=3,
                          seed=5)
    rows = run_experiment(plan, small_platform(), pace=False)
    assert len(rows) == 1 * 1 * 1 * 2 * 3
    assert all(r.verified for r in rows)


def test_chunk_larger_than_stream_still_verifies():
    plan = ExperimentPlan(kernels=("COPY",), stream_sizes_mb=(1,),
                          chunk_sizes_mb=(32,), device_configs=("CPU",),
                          repeats=1)
    (row,) = run_experiment(plan, small_platform(), pace=False)
    assert row.verified


def test_all_kernels_verify_through_pipeline():
    plan = ExperimentPlan(kernels=tuple(k.name for k in kernel_catalog()),
                          stream_sizes_mb=(0.5,), chunk_sizes_mb=(0.05,),
                          device_configs=("CPU+2GPUs",), repeats=1)
    rows = run_experiment(plan, small_platform(), pace=False)
    assert len(rows) == 6
    assert all(r.verified for r in rows)


def test_unverified_run_aborts_with_cell_diagnostic(monkeypatch):
    import hstream.bench as bench_mod

    def corrupted(kernel, inputs, length=None):
        outputs = evaluate_sequential(kernel, inputs, length)
        return {k: v + 1.0 for k, v in outputs.items()}

    monkeypatch.setattr(bench_mod, "evaluate_sequential", corrupted)
    inputs, expected = reference(kernel_def("COPY"), 0.25, 0, seed=1)
    with pytest.raises(VerificationError, match="kernel=COPY.*config=CPU"):
        run_cell(kernel_def("COPY"), small_platform(), 0.25, 0.05, "CPU", 0,
                 batch_mb=None, inputs=inputs, expected=expected, pace=False)


def test_sign_of_zero_fails_verification(monkeypatch):
    # FILL with scalar 0.0 writes +0.0; a reference of -0.0 is equal as floats
    # but not bit for bit
    import hstream.bench as bench_mod

    def zero_fill(defn, scalar=SCALAR, chunk_elements=4096):
        return build_kernel(defn, scalar=0.0, chunk_elements=chunk_elements)

    def negative_zeros(kernel, inputs, length=None):
        return {name: np.full(length, -0.0) for name in kernel.output_arrays}

    monkeypatch.setattr(bench_mod, "build_kernel", zero_fill)
    monkeypatch.setattr(bench_mod, "evaluate_sequential", negative_zeros)
    inputs, expected = reference(kernel_def("FILL"), 0.25, 0, seed=1)
    with pytest.raises(VerificationError, match="kernel=FILL"):
        run_cell(kernel_def("FILL"), small_platform(), 0.25, 0.05, "CPU+1GPU",
                 0, batch_mb=None, inputs=inputs, expected=expected, pace=False)


def test_reference_is_built_once_per_group(monkeypatch):
    # the inputs and the oracle depend on (kernel, stream, repeat) only, so
    # the device configurations of a group share them
    import hstream.bench as bench_mod
    calls, sources = [], []

    def counted(kernel, inputs, length=None):
        calls.append(kernel.name)
        return evaluate_sequential(kernel, inputs, length)

    class CountedSource(bench_mod.GeneratedSource):
        def __init__(self, names, *args, **kwargs):
            sources.append(tuple(names))
            super().__init__(names, *args, **kwargs)

    monkeypatch.setattr(bench_mod, "evaluate_sequential", counted)
    monkeypatch.setattr(bench_mod, "GeneratedSource", CountedSource)
    plan = ExperimentPlan(kernels=("COPY", "DAXPY"), stream_sizes_mb=(0.25,),
                          chunk_sizes_mb=(0.05, 0.1),
                          device_configs=("CPU", "1GPU", "CPU+1GPU"), repeats=2)
    threads = threading.active_count()
    rows = run_experiment(plan, small_platform(), pace=False)
    assert threading.active_count() == threads
    assert len(rows) == 24 and all(r.verified for r in rows)
    assert calls == ["COPY"] * 4 + ["DAXPY"] * 4
    assert sources == [("b",)] * 4 + [("x", "y")] * 4


def test_shared_inputs_are_read_only_to_the_runtime(monkeypatch):
    # a CPU chunk that writes a body-read input after evaluating would change
    # the inputs of every later cell of the group; it must fail at once
    real_run_on_cpu = executor.run_on_cpu

    def scribble(kernel, host_data, chunk):
        real_run_on_cpu(kernel, host_data, chunk)
        host_data["b"][chunk.start] += 1.0

    monkeypatch.setattr(executor, "run_on_cpu", scribble)
    plan = ExperimentPlan(kernels=("COPY",), stream_sizes_mb=(0.25,),
                          chunk_sizes_mb=(0.05,),
                          device_configs=("1GPU", "CPU", "CPU+1GPU"), repeats=1)
    passed = []
    with pytest.raises(PipelineError, match="read-only"):
        run_experiment(plan, small_platform(), pace=False, progress=passed.append)
    assert [r.device_config for r in passed] == ["1GPU"]


def test_prefetched_reference_error_waits_for_earlier_rows(monkeypatch):
    # the worker builds SCALE's reference while COPY's last cells run; its
    # error must surface only after them, with its own type, and leave no
    # thread behind
    import hstream.bench as bench_mod

    class OracleFault(Exception):
        pass

    def fails_for_scale(kernel, inputs, length=None):
        if kernel.name == "SCALE":
            raise OracleFault("no reference for SCALE")
        return evaluate_sequential(kernel, inputs, length)

    monkeypatch.setattr(bench_mod, "evaluate_sequential", fails_for_scale)
    plan = ExperimentPlan(kernels=("COPY", "SCALE"), stream_sizes_mb=(0.25,),
                          chunk_sizes_mb=(0.05, 0.1),
                          device_configs=("CPU", "CPU+1GPU"), repeats=1)
    passed = []
    threads = threading.active_count()
    with pytest.raises(OracleFault, match="SCALE"):
        run_experiment(plan, small_platform(), pace=False, progress=passed.append)
    assert threading.active_count() == threads
    assert [(r.kernel, r.chunk_mb, r.device_config) for r in passed] == [
        ("COPY", 0.05, "CPU"), ("COPY", 0.05, "CPU+1GPU"),
        ("COPY", 0.1, "CPU"), ("COPY", 0.1, "CPU+1GPU")]


def test_shared_reference_still_catches_one_bad_cell(monkeypatch):
    # only the last configuration of the group is corrupted, one bit of it
    import hstream.bench as bench_mod
    platform = small_platform()
    real_run_pipeline = bench_mod.run_pipeline

    def flip_on_gpus(source, kernel, platform, device, *args, sink, **kwargs):
        result = real_run_pipeline(source, kernel, platform, device, *args,
                                   sink=sink, **kwargs)
        if any(platform.by_id(i).kind is PuKind.GPU for i in device.ids):
            (name,) = kernel.output_arrays
            sink.batches[-1].outputs[name].view(np.uint64)[-1] ^= 1
        return result

    monkeypatch.setattr(bench_mod, "run_pipeline", flip_on_gpus)
    plan = ExperimentPlan(kernels=("TRIAD",), stream_sizes_mb=(0.25,),
                          chunk_sizes_mb=(0.05,),
                          device_configs=("CPU", "CPU+1GPU"), repeats=1)
    passed = []
    threads = threading.active_count()
    with pytest.raises(VerificationError, match=r"config=CPU\+1GPU .*output 'a'"):
        run_experiment(plan, platform, pace=False, progress=passed.append)
    assert threading.active_count() == threads
    assert [r.device_config for r in passed] == ["CPU"]


def _drop_second_batch(batches, batch):
    if batch.seq != 1:
        batches.append(batch)


def _shorten_first_batch(batches, batch):
    if batch.seq == 0:
        batch.outputs["a"] = batch.outputs["a"][:-1]
    batches.append(batch)


@pytest.mark.parametrize("damage", [_drop_second_batch, _shorten_first_batch],
                         ids=["dropped", "short"])
def test_missing_output_elements_fail_verification(monkeypatch, damage):
    # FILL writes the same value everywhere, so only the element count can
    # give a lost batch away
    import hstream.bench as bench_mod

    class DamagingSink(bench_mod.MemorySink):
        def write(self, batch):
            damage(self.batches, batch)

    monkeypatch.setattr(bench_mod, "MemorySink", DamagingSink)
    plan = ExperimentPlan(kernels=("FILL",), stream_sizes_mb=(0.25,),
                          chunk_sizes_mb=(0.05,), device_configs=("CPU",),
                          repeats=1, batch_mb=0.1)
    with pytest.raises(VerificationError, match="kernel=FILL.*output 'a'"):
        run_experiment(plan, small_platform(), pace=False)


def test_heterogeneous_beats_cpu_only():
    # simulated service rates are additive, so widening the device set beyond
    # the host CPU raises throughput by construction; the tighter
    # combined-vs-GPUs-only comparison runs at full desk scale in acceptance
    plan = ExperimentPlan(kernels=("TRIAD",), stream_sizes_mb=(4,),
                          chunk_sizes_mb=(0.03125,),
                          device_configs=("CPU", "CPU+4GPUs"), repeats=2)
    rows = run_experiment(plan, small_platform(), pace=True)
    means = config_means(rows)
    assert means[("TRIAD", "CPU+4GPUs")] >= means[("TRIAD", "CPU")]


def test_adding_a_unit_never_hurts_much():
    plan = ExperimentPlan(kernels=("SCALE",), stream_sizes_mb=(4,),
                          chunk_sizes_mb=(0.03125,),
                          device_configs=("CPU", "CPU+1GPU"), repeats=2)
    rows = run_experiment(plan, small_platform(), pace=True)
    means = config_means(rows)
    assert means[("SCALE", "CPU+1GPU")] >= 0.9 * means[("SCALE", "CPU")]


def test_stream_size_does_not_move_throughput():
    # rate-based pacing means throughput is size-invariant up to constant
    # per-run overheads
    plan = ExperimentPlan(kernels=("COPY",), stream_sizes_mb=(4, 8),
                          chunk_sizes_mb=(0.0625,), device_configs=("CPU",),
                          repeats=2)
    rows = run_experiment(plan, small_platform(), pace=True)
    means = config_means(rows)  # pooled over sizes
    by_size = {}
    for row in rows:
        by_size.setdefault(row.stream_mb, []).append(row.throughput_mb_s)
    thr = {size: sum(v) / len(v) for size, v in by_size.items()}
    spread = (max(thr.values()) - min(thr.values())) / max(thr.values())
    assert spread < 0.25, f"stream size moved throughput by {spread:.0%}"
    assert means  # pooled means exist for both sizes


@pytest.mark.parametrize("unit", [1, 0], ids=["gpu", "cpu"])
def test_one_chunk_charge_equals_analytic_floor(unit):
    # the executor's charge and the sweep's floor come from one cost model
    platform = parse_pdl(DISA_PDL)
    _, kernel = build_kernel(kernel_def("TRIAD"))
    n = 4096
    host = {"a": np.zeros(n), "b": np.ones(n), "c": np.ones(n)}
    device = DeviceIds((unit,))
    stats = execute(kernel, host, platform, device, UniformSchedule(n))
    assert stats.per_pu[unit].chunks_claimed == 1
    assert stats.per_pu[unit].busy_time == pytest.approx(
        ideal_seconds(kernel, platform, device, n))


@pytest.mark.parametrize("config", ["CPU", "1GPU", "4GPUs", "CPU+4GPUs"])
@pytest.mark.parametrize("chunk", [1000, 4096, 30_000])
def test_paced_wall_never_below_analytic_floor(config, chunk):
    # the floor has every unit busy to the end; float sums of per-chunk
    # charges may round below it by a few ulps, hence the 1e-9 relative slack
    platform = parse_pdl(DISA_PDL)
    _, kernel = build_kernel(kernel_def("TRIAD"))
    n = 100_000
    host = {"a": np.zeros(n), "b": np.ones(n), "c": np.ones(n)}
    device = resolve_config(platform, config)
    stats = execute(kernel, host, platform, device, UniformSchedule(chunk),
                    pace=True)
    assert stats.wall_time >= ideal_seconds(kernel, platform, device, n) * (1 - 1e-9)


def earliest_clock(clocks, charges):
    """The broken scheduler: the unit with the earliest clock claims next,
    however long it will hold its chunk."""
    return min(range(len(clocks)), key=clocks.__getitem__)


def test_criterion_7_gate_fails_a_bad_policy(monkeypatch):
    # criterion 7 asks CPU+4GPUs for >= 98% of the best single configuration;
    # when the earliest clock claims next and the CPU's chunk is half the
    # stream, the GPUs finish long before it does and the gate must fail
    platform = parse_pdl(DISA_PDL)
    _, kernel = build_kernel(kernel_def("TRIAD"))
    n = 2**20
    chunk = n // 256

    def mb_s(config, scheduling):
        host = {"a": np.zeros(n), "b": np.ones(n), "c": np.ones(n)}
        return execute(kernel, host, platform, resolve_config(platform, config),
                       scheduling, pace=True).throughput_mb_s

    best_single = max(mb_s("CPU", UniformSchedule(chunk)),
                      mb_s("4GPUs", UniformSchedule(chunk)))
    good = mb_s("CPU+4GPUs", UniformSchedule(chunk))
    monkeypatch.setattr(executor, "earliest_finish", earliest_clock)
    bad = mb_s("CPU+4GPUs", PerDeviceSchedule(
        ((0, n // 2), (1, chunk), (2, chunk), (3, chunk), (4, chunk))))
    assert good >= 0.98 * best_single
    assert bad < 0.98 * best_single


def _paper_plan_ratios(platform):
    """CPU+4GPUs over the best of CPU and 4GPUs, per paper_plan() cell,
    modelled from the schedule alone."""
    full = paper_plan()
    ratios = {}
    for name in full.kernels:
        _, kernel = build_kernel(kernel_def(name))
        for stream_mb in full.stream_sizes_mb:
            total = int(stream_mb * MB) // 8
            for chunk_mb in full.chunk_sizes_mb:
                scheduling = UniformSchedule(int(chunk_mb * MB) // 8)
                makespan = {config: executor.plan(kernel, total, platform,
                                                  resolve_config(platform, config),
                                                  scheduling).makespan
                            for config in full.device_configs}
                # equal bytes, so throughput ratios are inverse makespan ratios
                ratios[(name, stream_mb, chunk_mb)] = (
                    min(makespan["CPU"], makespan["4GPUs"]) / makespan["CPU+4GPUs"])
    return ratios


def test_paper_plan_heterogeneous_never_below_best_single(monkeypatch):
    # the paper's headline claim in every full-scale cell, under the model;
    # the old earliest-clock rule must fail the same check
    platform = parse_pdl(DISA_PDL)
    ratios = _paper_plan_ratios(platform)
    assert len(ratios) == 252
    low = {cell: r for cell, r in ratios.items() if r < 0.98}
    assert not low, f"CPU+4GPUs below 0.98x the best single kind: {low}"

    monkeypatch.setattr(executor, "earliest_finish", earliest_clock)
    old = _paper_plan_ratios(platform)
    assert sum(r < 0.98 for r in old.values()) == 43
    assert min(old.values()) < 0.3


# --- summaries ---------------------------------------------------------------------

def _row(kernel="TRIAD", stream=8, chunk=2, config="CPU", rep=0, thr=100.0):
    from hstream.bench import ResultRow
    return ResultRow(kernel, stream, chunk, config, rep, thr, True)


def test_summarize_means_per_cell():
    rows = [_row(rep=0, thr=100.0), _row(rep=1, thr=110.0), _row(rep=2, thr=120.0)]
    text = summarize(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "kernel,stream_mb,chunk_mb,device_config,mean_throughput_mb_s,repeats"
    assert lines[1] == "TRIAD,8,2,CPU,110.000,3"


def test_summarize_single_row_mean_is_row():
    text = summarize([_row(thr=42.5)])
    assert "TRIAD,8,2,CPU,42.500,1" in text


def test_summarize_sorts_cells():
    rows = [_row(kernel="TRIAD"), _row(kernel="ADD"), _row(kernel="COPY")]
    lines = summarize(rows).strip().splitlines()[1:]
    assert [ln.split(",")[0] for ln in lines] == sorted(["TRIAD", "ADD", "COPY"])


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


# --- LOC counting ---------------------------------------------------------------------

def test_stream_benchmark_has_eight_pragma_lines():
    total, pragmas = count_file_loc(PROGRAMS / "stream.hs.c")
    assert pragmas == 8
    assert total > pragmas


def test_file_without_pragmas(tmp_path):
    f = tmp_path / "plain.hs.c"
    f.write_text("double a[4];\na = 1.0;\n")
    assert count_file_loc(f) == (2, 0)


def test_empty_file(tmp_path):
    f = tmp_path / "empty.hs.c"
    f.write_text("")
    assert count_file_loc(f) == (0, 0)


def test_comments_not_counted(tmp_path):
    f = tmp_path / "c.hs.c"
    f.write_text("// line\n/* block\nstill block */\ndouble a[4];\n\n")
    assert count_file_loc(f) == (1, 0)


def test_count_pragma_loc_over_directory():
    counts = count_pragma_loc(PROGRAMS)
    names = {p.split("/")[-1] for p in counts}
    assert "stream.hs.c" in names and "triad.hs.c" in names
    assert counts[str(PROGRAMS / "triad.hs.c")][1] == 1
