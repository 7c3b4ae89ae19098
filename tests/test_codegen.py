"""Emission: golden outputs, per-target structure, driver wiring, and the
cross-target agreement property.

Derived expectations were produced by hand-applying the elementwise indexing
rule (array/stream names pick up `[i]`/`[idx]`, scalars broadcast) to each
kernel body; claims about counts come from arithmetic on the inputs.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstream.codegen import (
    ALL_TARGETS,
    gen_cuda,
    gen_driver,
    gen_leo,
    gen_openmp,
    generate,
)
from hstream.frontend import compile_source
from hstream.pdl import parse_pdl
from hstream.runtime import ExecutableKernel
from tests.conftest import DISA_PDL, GOLDEN, TRIAD_SOURCE


def kernel_from(src, name="Kernel"):
    return compile_source(src, name).kernels[0]


FILL_SOURCE = """double a[64];
double scalar;
#pragma hstream in(scalar) out(a)
{
    a = scalar;
}
"""

COPY_SOURCE = """double a[64];
double b[64];
#pragma hstream in(b) out(a)
{
    a = b;
}
"""

DAXPY_SOURCE = """double x[64];
double y[64];
double alpha;
#pragma hstream in(x, alpha) inout(y)
{
    y = y + alpha*x;
}
"""


# --- goldens -------------------------------------------------------------------

@pytest.mark.parametrize("generator,golden", [
    (gen_openmp, "triad_omp.c"),
    (gen_cuda, "triad_cuda.cu"),
    (gen_leo, "triad_leo.c"),
])
def test_triad_matches_golden(generator, golden):
    kernel = kernel_from(TRIAD_SOURCE, "Triad")
    emitted = generator(kernel)
    # hstreamc writes each fragment followed by one newline
    assert emitted.text + "\n" == (GOLDEN / golden).read_text()


def test_openmp_structure():
    text = gen_openmp(kernel_from(TRIAD_SOURCE, "Triad")).text
    assert "#pragma omp parallel for" in text
    assert "for (int i=start; i<finish; i++)" in text
    assert "a[i] = b[i]+scalar*c[i];" in text


def test_cuda_structure_and_signature_order():
    unit = gen_cuda(kernel_from(TRIAD_SOURCE, "Triad"))
    assert unit.function_name == "GPU_Triad"
    assert "threadIdx.x + blockIdx.x * blockDim.x" in unit.text
    assert "if (idx < len)" in unit.text
    # in-clause array order, then scalars, then len
    assert "( double *b, double *c, double *a, double scalar, int len)" in unit.text
    assert "cudaMemcpy" not in unit.text  # memory management lives in the driver


def test_leo_structure():
    text = gen_leo(kernel_from(TRIAD_SOURCE, "Triad")).text
    assert text.startswith("#pragma offload target(mic: cpu_thread_id)")
    assert "for (int i = my_start; i < my_finish; i++)" in text
    assert "a[i] = b[i]+scalar*c[i];" in text


def test_fill_openmp_body():
    # indexing rule applied by hand: scalar broadcasts, array indexes
    text = gen_openmp(kernel_from(FILL_SOURCE, "Fill")).text
    assert "a[i] = scalar;" in text


def test_copy_cuda_body():
    text = gen_cuda(kernel_from(COPY_SOURCE, "Copy")).text
    assert "a[idx] = b[idx];" in text


def test_fill_cuda_signature_has_no_input_arrays():
    text = gen_cuda(kernel_from(FILL_SOURCE, "Fill")).text
    assert "( double *a, double scalar, int len)" in text


def test_kernel_with_no_scalars():
    text = gen_cuda(kernel_from(COPY_SOURCE, "Copy")).text
    assert "( double *b, double *a, int len)" in text


def test_daxpy_leo_clauses():
    # clause derivation rule by hand: ins -> in(...), outs -> out(...)
    text = gen_leo(kernel_from(DAXPY_SOURCE, "Daxpy")).text
    assert "in(x[my_start:my_finish])" in text
    assert "in(alpha)" in text
    assert "in(y[my_start:my_finish])" in text
    assert "out(y[my_start:my_finish])" in text


def test_leo_inout_appears_once_per_direction():
    text = gen_leo(kernel_from(DAXPY_SOURCE, "Daxpy")).text
    assert text.count("in(y[my_start:my_finish])") == 1
    assert text.count("out(y[my_start:my_finish])") == 1


def test_determinism_byte_identical():
    kernel = kernel_from(TRIAD_SOURCE, "Triad")
    for gen in (gen_openmp, gen_cuda, gen_leo):
        assert gen(kernel).text == gen(kernel).text


def test_local_temporaries_emitted():
    src = """double a[8];
double b[8];
#pragma hstream in(b) out(a)
{
    double t;
    t = b*2.0;
    a = t;
}
"""
    text = gen_openmp(kernel_from(src)).text
    assert "double t;" in text
    assert "t = b[i]*2.0;" in text
    assert "a[i] = t;" in text


# --- driver ---------------------------------------------------------------------

def stream_kernels():
    from tests.conftest import PROGRAMS
    src = (PROGRAMS / "stream.hs.c").read_text()
    return compile_source(src, "Stream").kernels


def test_driver_registers_all_variants():
    platform = parse_pdl(DISA_PDL)
    kernels = stream_kernels()
    assert len(kernels) == 8
    unit = gen_driver(kernels, platform)
    # count = kernels x targets, one execute per directive (arithmetic)
    assert unit.text.count("hstream_register(") == len(kernels) * 3
    assert unit.text.count("hstream_execute(") == len(kernels)
    assert 'hstream_platform_load("DISA");' in unit.text


def test_driver_passes_device_and_scheduling_through():
    src = """double a[8];
double b[8];
#pragma hstream in(b) out(a) device(1) scheduling(64)
{
    a = b;
}
"""
    unit = gen_driver([kernel_from(src, "One")], parse_pdl(DISA_PDL))
    assert 'hstream_execute("One", "1", "64");' in unit.text


def test_driver_gpu_stage_binds_myn():
    unit = gen_driver([kernel_from(TRIAD_SOURCE, "Triad")], parse_pdl(DISA_PDL))
    assert "int myN = finish - start;" in unit.text
    assert "cudaCheckError(cudaMemcpy(d_b, b + start, sizeof(double)*myN, cudaMemcpyHostToDevice));" in unit.text
    assert "cudaCheckError(cudaMemcpy(a + start, d_a, sizeof(double)*myN, cudaMemcpyDeviceToHost));" in unit.text
    assert "#define BLOCK_SIZE 256" in unit.text
    assert "GPU_Triad<<<(myN + BLOCK_SIZE - 1) / BLOCK_SIZE, BLOCK_SIZE>>>(d_b, d_c, d_a, scalar, myN);" in unit.text


@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.value)
def test_each_target_symbol_is_the_one_the_driver_registers(target):
    kernel = kernel_from(TRIAD_SOURCE, "Triad")
    symbol = generate(kernel, target).function_name
    assert symbol == target.symbol_prefix + kernel.name
    driver = gen_driver([kernel], parse_pdl(DISA_PDL), targets=(target,)).text
    assert re.findall(r'hstream_register\("Triad", \w+, (\w+)\);', driver) == [symbol]


def test_driver_requires_kernels():
    with pytest.raises(ValueError):
        gen_driver([], parse_pdl(DISA_PDL))


# --- cross-target agreement -------------------------------------------------------

_ARRAYS = ("a", "b", "c")
_SCALARS = ("s", "t")


def _random_body(draw_ops, draw_terms, statements):
    lines = []
    for target, terms, ops in statements:
        expr = terms[0]
        for term, op in zip(terms[1:], ops):
            expr = f"{expr} {op} {term}"
        lines.append(f"    {target} = {expr};")
    return "\n".join(lines)


@st.composite
def random_kernel_source(draw):
    n_statements = draw(st.integers(1, 3))
    statements = []
    written = set()
    for _ in range(n_statements):
        target = draw(st.sampled_from(_ARRAYS))
        written.add(target)
        n_terms = draw(st.integers(2, 4))
        terms = [
            draw(st.one_of(
                st.sampled_from(_ARRAYS + _SCALARS),
                st.floats(min_value=-4, max_value=4,
                          allow_nan=False).map(lambda v: repr(round(v, 3))),
            ))
            for _ in range(n_terms)
        ]
        ops = [draw(st.sampled_from("+-*/")) for _ in range(n_terms - 1)]
        statements.append((target, terms, ops))
    decls = "".join(f"double {n}[16];\n" for n in _ARRAYS)
    decls += "".join(f"double {n};\n" for n in _SCALARS)
    ins = ", ".join(_ARRAYS + _SCALARS)
    outs = ", ".join(sorted(written))
    body = _random_body(None, None, statements)
    return (f"{decls}#pragma hstream in({ins}) out({outs})\n"
            f"{{\n{body}\n}}\n")


_BODY_LINE = re.compile(r"^\s*(\w+)\[(?:i|idx)\] = (.+);$")


def _reinterpret_emitted(text, kernel_spec, env):
    """Parse the emitted body back out of the target text and evaluate it."""
    arrays = {n: v.copy() for n, v in env.items() if isinstance(v, np.ndarray)}
    scalars = {n: v for n, v in env.items() if not isinstance(v, np.ndarray)}
    statements = []
    for line in text.splitlines():
        m = _BODY_LINE.match(line)
        if m:
            statements.append((m.group(1), m.group(2)))
    assert len(statements) == len(kernel_spec.body)
    names = "".join(f"double {n}[16];\n" for n in arrays)
    names += "".join(f"double {n};\n" for n in scalars)
    stripped = [
        (target, re.sub(r"\[(?:i|idx)\]", "", expr)) for target, expr in statements
    ]
    body = "\n".join(f"    {t} = {e};" for t, e in stripped)
    src = (f"{names}#pragma hstream in({', '.join((*arrays, *scalars))}) "
           f"out({', '.join(dict.fromkeys(t for t, _ in stripped))})\n"
           f"{{\n{body}\n}}\n")
    spec = compile_source(src, "Round").kernels[0]
    kern = ExecutableKernel.from_kernel_spec(spec, scalars)
    kern.eval_into(arrays, len(next(iter(arrays.values()))))
    return {t: arrays[t] for t, _ in stripped}


@settings(max_examples=60, deadline=None)
@given(random_kernel_source(), st.integers(0, 2**32 - 1))
def test_cross_target_semantic_agreement(src, seed):
    """The three emitted bodies compute identical values at every index."""
    spec = compile_source(src, "Rand").kernels[0]
    rng = np.random.default_rng(seed)
    base_env = {n: rng.uniform(-8, 8, 16) for n in _ARRAYS}
    base_env.update({n: float(rng.uniform(-4, 4)) for n in _SCALARS})

    results = []
    for gen in (gen_openmp, gen_cuda, gen_leo):
        outputs = _reinterpret_emitted(gen(spec).text, spec, base_env)
        results.append(outputs)
    first = results[0]
    for other in results[1:]:
        assert first.keys() == other.keys()
        for name in first:
            assert first[name].tobytes() == other[name].tobytes()
