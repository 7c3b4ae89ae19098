"""The benchmark's own tests: each output check rejects a corrupted output.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cexpr  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import hstream  # noqa: E402
import tracer as tracing  # noqa: E402
from hstream import codegen  # noqa: E402


def emit(text):
    result = hstream.compile_source(text, "K")
    return [{"openmp": codegen.gen_openmp(k).text, "cuda": codegen.gen_cuda(k).text,
             "leo": codegen.gen_leo(k).text} for k in result.kernels]


# --- stream ------------------------------------------------------------------------

def test_stream_check_rejects_one_flipped_bit_and_a_short_file():
    records = np.random.default_rng(0).random((1000, 2))
    expected = checks.triad_expected(records)
    good = expected.astype("<f8").tobytes()
    assert checks.stream_mismatches(expected, good, 100) == []
    bad = bytearray(good)
    bad[8 * 250] ^= 1
    assert checks.stream_mismatches(expected, bytes(bad), 100) == [2]
    assert checks.stream_mismatches(expected, good[:-8], 100) == list(range(10))


def test_stream_expectation_is_triad():
    records = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert checks.triad_expected(records).tolist() == [7.0, -2.5]


# --- sweep -------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    kernel: str
    device_config: str
    throughput_mb_s: float
    verified: bool = True


def _rows():
    cells = [("TRIAD", "CPU"), ("TRIAD", "CPU+4GPUs")]
    ceilings = {cells[0]: 100.0, cells[1]: 1000.0}
    rows = [Row("TRIAD", "CPU", 99.0), Row("TRIAD", "CPU+4GPUs", 800.0)]
    return rows, cells, ceilings


def test_sweep_rows_pass_when_within_the_model():
    rows, cells, ceilings = _rows()
    assert checks.sweep_row_problems(rows, cells, ceilings, 0.02) == {}


@pytest.mark.parametrize("corrupt, cell", [
    (lambda rows: [replace(rows[0], throughput_mb_s=103.0), rows[1]],   # beats the model
     ("TRIAD", "CPU")),
    (lambda rows: [replace(rows[0], throughput_mb_s=0.0), rows[1]], ("TRIAD", "CPU")),
    (lambda rows: [replace(rows[0], verified=False), rows[1]], ("TRIAD", "CPU")),
    (lambda rows: rows[:1], ("TRIAD", "CPU+4GPUs")),                    # a cell missing
    (lambda rows: rows + rows[:1], ("TRIAD", "CPU")),                   # a cell twice
    (lambda rows: rows + [Row("COPY", "CPU", 10.0)], ("COPY", "CPU")),  # not in the plan
])
def test_sweep_rows_reject_corruption(corrupt, cell):
    # Problems are keyed by cell, so one corrupted cell fails one operation.
    rows, cells, ceilings = _rows()
    assert list(checks.sweep_row_problems(corrupt(rows), cells, ceilings, 0.02)) == [cell]


def test_ideal_rate_matches_the_documented_model():
    # TRIAD on DISA: cpu 4 Mi elements/s; each gpu 16 Mi elements/s plus
    # 32 bytes moved at 1 ms/MB. The model gives about 1117 MB/s.
    units = [("cpu", 1.0, 0.0)] + [("gpu", 4.0, 0.001)] * 4
    assert checks.ideal_mb_s("TRIAD", units) == pytest.approx(1117, rel=0.01)
    assert checks.ideal_mb_s("TRIAD", units[:1]) == pytest.approx(96.0)


@pytest.mark.parametrize("kernel", sorted(checks.SWEEP_KERNELS))
def test_formula_check_rejects_a_changed_element(kernel):
    rng = np.random.default_rng(1)
    inputs = {n: rng.random(50) for n in "abcxy"}
    outputs = checks.SWEEP_KERNELS[kernel][2](inputs, 50)
    assert checks.formula_problems(kernel, inputs, outputs, 50) == []
    name = next(iter(outputs))
    bad = dict(outputs)
    bad[name] = outputs[name].copy()
    bad[name][17] = np.nextafter(bad[name][17], 10.0)
    assert checks.formula_problems(kernel, inputs, bad, 50)
    assert checks.formula_problems(kernel, inputs, {}, 50)


def test_formula_check_passes_hstream_on_every_kernel():
    platform = hstream.parse_pdl_file(ROOT / "demos" / "platforms" / "disa.pdl")
    rng = np.random.default_rng(2)
    n = 20000
    for defn in hstream.bench.kernel_catalog():
        _, kernel = hstream.bench.build_kernel(defn, chunk_elements=1000)
        host = {a: rng.random(n) for a in kernel.array_names}
        inputs = {a: host[a].copy() for a in kernel.input_arrays}
        hstream.execute(kernel, host, platform, scheduling=hstream.UniformSchedule(1000))
        assert checks.formula_problems(defn.name, inputs, host, n) == [], defn.name


# --- compile -----------------------------------------------------------------------

def test_invalid_check_rejects_other_codes_and_a_clean_compile():
    assert checks.invalid_problems(("DUP_DECL",), ["DUP_DECL"]) == []
    assert checks.invalid_problems(("DUP_DECL",), ["UNDECLARED"])
    assert checks.invalid_problems(("DUP_DECL",), ["DUP_DECL", "DUP_DECL"])
    assert checks.invalid_problems(("DUP_DECL",), None)


def test_corpus_passes_except_the_two_emit_faults():
    failing = []
    for prog in corpus.build_corpus(ROOT, seed=5):
        if prog.expect:
            with pytest.raises(hstream.CompileError) as err:
                hstream.compile_source(prog.text, prog.unit)
            assert checks.invalid_problems(prog.expect, err.value.codes) == [], prog.name
        elif checks.emitted_problems(prog.text, emit(prog.text)):
            failing.append(prog.name)
    assert failing == list(corpus.FAULT_PROGRAMS)


@pytest.mark.parametrize("seed", range(40))
def test_generated_programs_avoid_the_emit_faults(seed):
    for n in (1, 4, 16):
        prog = corpus.generated_program(seed, n)
        assert checks.emitted_problems(prog.text, emit(prog.text)) == [], prog.text


TRIAD_SRC = (ROOT / "demos" / "programs" / "triad.hs.c").read_text()


@pytest.mark.parametrize("old, new", [
    ("b[i]+scalar*c[i]", "c[i]+scalar*b[i]"),      # operands swapped
    ("b[i]+scalar*c[i]", "(b[i]+scalar)*c[i]"),    # grouping changed
    ("b[i]+scalar*c[i]", "b[i]--c[i]"),            # a decrement
    ("a[i] =", "c[i] ="),                          # another target
    ("a[i] = b[i]+scalar*c[i];", ""),              # statement dropped
])
def test_emitted_check_rejects_a_changed_statement(old, new):
    texts = emit(TRIAD_SRC)
    assert checks.emitted_problems(TRIAD_SRC, texts) == []
    texts[0]["openmp"] = texts[0]["openmp"].replace(old, new)
    assert checks.emitted_problems(TRIAD_SRC, texts)


def test_emitted_check_counts_one_kernel_per_pragma_line():
    texts = emit(TRIAD_SRC)
    assert checks.emitted_problems(TRIAD_SRC, texts + texts)
    assert checks.emitted_problems(TRIAD_SRC, [])


def test_c_tokens_read_a_double_minus_as_a_decrement():
    assert cexpr.tokens("b[i]--c[i]") == ["b", "[", "i", "]", "--", "c", "[", "i", "]"]
    assert cexpr.tokens("b[i]- -c[i]")[4:6] == ["-", "-"]
    with pytest.raises(cexpr.ReadError):
        cexpr.evaluate(cexpr.strip_subscripts(cexpr.tokens("b[i]--c[i]")),
                       {"b": 1.0, "c": 2.0})


def test_source_reading_counts_pragmas_outside_comments():
    text = "// #pragma hstream in(a)\n/* #pragma hstream\n*/\n" + TRIAD_SRC
    assert corpus.pragma_lines(text) == 1
    assert corpus.directive_bodies(TRIAD_SRC) == [["a = b+scalar*c;"]]


# --- tracer and command ------------------------------------------------------------

def test_tracer_reports_every_per_layer_metric_and_restores_the_program():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    originals = (hstream.frontend.lex, hstream.pipeline.execute,
                 hstream.runtime.cursor.SharedCursor.claim, hstream.run_pipeline)
    tr = tracing.Tracer()
    tracing.install(tr, hstream, lambda *a: 1.0)
    try:
        program = hstream.compile_file(ROOT / "demos" / "programs" / "triad.hs.c")
        kernel = hstream.ExecutableKernel.from_kernel_spec(program.kernels[0], {"scalar": 3.0})
        platform = hstream.parse_pdl_file(ROOT / "demos" / "platforms" / "disa.pdl")
        source = hstream.GeneratedSource(kernel.input_arrays, 50000, seed=1)
        hstream.run_pipeline(source, kernel, platform, batch_elements=20000,
                             scheduling=hstream.UniformSchedule(4096), pace=True)
    finally:
        tr.remove()
    assert (hstream.frontend.lex, hstream.pipeline.execute,
            hstream.runtime.cursor.SharedCursor.claim, hstream.run_pipeline) == originals
    metrics = tracing.layer_metrics(tr.spans)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert metrics["pipeline.batches"] == 3
    assert metrics["cursor.claims"] >= 13
    assert metrics["executor.calls"] == 3


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compile",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
