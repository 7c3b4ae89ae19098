"""The emitted OpenMP fragment, compiled with gcc and run, equals the oracle.

A differential check in the style of Csmith: each kernel's `gen_openmp`
fragment is wrapped in a C function taking the kernel's arrays, its scalars,
`start` and `finish`, built serially into a shared library and called through
ctypes over 10,007 elements. Every output must equal `evaluate_sequential`
bitwise, and every other array must be left as it was.
"""

import ctypes
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstream.bench import build_kernel, kernel_catalog
from hstream.codegen import gen_openmp
from hstream.frontend import compile_source
from hstream.ir import ElementType
from hstream.runtime import ExecutableKernel, evaluate_sequential
from tests.test_codegen import random_kernel_source
from tests.test_parser import PRECEDENCE_CASES

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None,
                                reason="no C compiler")

N = 10_007
_C_TYPES = {ElementType.INT: ctypes.c_int, ElementType.DOUBLE: ctypes.c_double}


def _inputs(spec, rng):
    arrays = {}
    for v in spec.arrays:
        dtype = v.element_type.numpy_dtype
        if v not in spec.array_ins:
            arrays[v.name] = np.zeros(N, dtype=dtype)
        elif v.element_type is ElementType.INT:
            arrays[v.name] = rng.integers(-100, 100, N, dtype=dtype)
        else:
            # Full mantissas over many binades, so sums round and a changed
            # evaluation order shows in the bits.
            arrays[v.name] = rng.standard_normal(N) * np.exp2(rng.integers(-16, 17, N))
    return arrays


def assert_compiled_matches_oracle(spec, kernel, workdir, seed=0):
    unit = gen_openmp(spec)
    params = [f"{v.element_type.c_name} *{v.name}" for v in spec.arrays] \
        + [f"{v.element_type.c_name} {v.name}" for v in spec.scalar_ins] \
        + ["int start", "int finish"]
    c_path = workdir / f"{spec.name}.c"
    lib_path = workdir / f"lib{spec.name}.so"
    c_path.write_text(
        f"void {unit.function_name}({', '.join(params)})\n{{\n{unit.text}\n}}\n")
    built = subprocess.run(
        ["gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
         "-o", str(lib_path), str(c_path)],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr

    arrays = _inputs(spec, np.random.default_rng(seed))
    originals = {n: a.copy() for n, a in arrays.items()}
    with np.errstate(all="ignore"):  # inf and nan are compared too
        expected = evaluate_sequential(
            kernel, {v.name: arrays[v.name] for v in spec.array_ins}, N)

    fn = getattr(ctypes.CDLL(str(lib_path)), unit.function_name)
    fn.argtypes = [ctypes.POINTER(_C_TYPES[v.element_type]) for v in spec.arrays] \
        + [_C_TYPES[v.element_type] for v in spec.scalar_ins] \
        + [ctypes.c_int, ctypes.c_int]
    fn.restype = None
    fn(*(arrays[v.name].ctypes.data_as(fn.argtypes[k])
         for k, v in enumerate(spec.arrays)),
       *(kernel.scalars[v.name] for v in spec.scalar_ins), 0, N)

    for name, array in arrays.items():
        want = expected.get(name, originals[name])
        assert array.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("defn", kernel_catalog(), ids=lambda d: d.name)
def test_bench_kernels_compile_and_match_oracle(defn, tmp_path):
    spec, kernel = build_kernel(defn)
    assert_compiled_matches_oracle(spec, kernel, tmp_path)


@pytest.mark.parametrize("source", [s for s, _ in PRECEDENCE_CASES.values()],
                         ids=PRECEDENCE_CASES.keys())
def test_pinned_statements_compile_and_match_oracle(source, tmp_path):
    src = ("double a[16];\ndouble b[16];\ndouble c[16];\ndouble d[16];\n"
           "double t;\n#pragma hstream in(a, b, c, d, t) out(a)\n"
           f"{{\n    a = {source};\n}}\n")
    spec = compile_source(src, "Pinned").kernels[0]
    kernel = ExecutableKernel.from_kernel_spec(spec, {"t": 2.5})
    assert_compiled_matches_oracle(spec, kernel, tmp_path)


def test_block_local_shadowing_an_array_compiles_and_matches_oracle(tmp_path):
    src = ("double a[16];\ndouble b[16];\n#pragma hstream in(b) out(a)\n"
           "{\n    double b;\n    b = 2.5;\n    a = b*b;\n}\n")
    spec = compile_source(src, "Shadow").kernels[0]
    kernel = ExecutableKernel.from_kernel_spec(spec)
    assert_compiled_matches_oracle(spec, kernel, tmp_path)


@settings(max_examples=20, deadline=None)
@given(random_kernel_source(), st.integers(0, 2**32 - 1))
def test_random_kernels_compile_and_match_oracle(tmp_path_factory, src, seed):
    spec = compile_source(src, "Rand").kernels[0]
    rng = np.random.default_rng(seed)
    kernel = ExecutableKernel.from_kernel_spec(
        spec, {"s": float(rng.uniform(-4, 4)), "t": float(rng.uniform(-4, 4))})
    assert_compiled_matches_oracle(spec, kernel, tmp_path_factory.mktemp("rand"),
                                   seed)
