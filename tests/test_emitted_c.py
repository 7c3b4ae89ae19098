"""The emitted OpenMP, CUDA and LEO fragments, compiled with gcc and run,
equal the oracle.

A differential check in the style of Csmith: each kernel's three fragments are
built serially into one shared library, each behind a C function that takes
the kernel's arrays, its scalars, `start` and `finish`, and each is called
through ctypes over 10,007 elements. Every output must equal
`evaluate_sequential` bitwise, and every other array must be left as it was.
Each array holds random canary elements on both sides of that range, which
must be left as they were too, so a fragment that overruns its range fails
its test instead of corrupting the heap.

gcc builds the CUDA kernel as plain C: `__global__` is defined away,
`threadIdx`, `blockIdx` and `blockDim` are host globals, and a host loop runs
every thread of a grid of 256-thread blocks over the claimed range, as the
driver's GPU stage launches it on chunk-offset buffers. The LEO fragment sits
in a function taking `my_start` and `my_finish`; gcc ignores its offload
pragma, and without -fopenmp every `omp` pragma too.
"""

import ctypes
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstream.bench import build_kernel, kernel_catalog
from hstream.codegen import TargetKind, generate
from hstream.frontend import compile_source
from hstream.ir import ElementType
from hstream.runtime import ExecutableKernel, evaluate_sequential
from tests.test_codegen import random_kernel_source
from tests.test_parser import PRECEDENCE_CASES

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None,
                                reason="no C compiler")

N = 10_007
# canaries on each side of the range: the CUDA shim's last block runs up to
# 255 threads past the end
PAD = 256
_C_TYPES = {ElementType.INT: ctypes.c_int, ElementType.DOUBLE: ctypes.c_double}

CUDA_SHIM = """\
#define __global__
static struct { int x; } threadIdx, blockIdx, blockDim;
"""


def _random(element_type, rng, n):
    if element_type is ElementType.INT:
        return rng.integers(-100, 100, n, dtype=element_type.numpy_dtype)
    # Full mantissas over many binades, so sums round and a changed
    # evaluation order shows in the bits.
    return rng.standard_normal(n) * np.exp2(rng.integers(-16, 17, n))


def _inputs(spec, rng):
    return {v.name: _random(v.element_type, rng, N) if v in spec.array_ins
            else np.zeros(N, dtype=v.element_type.numpy_dtype)
            for v in spec.arrays}


def c_source(spec, target):
    """C defining `run_<target>(arrays, scalars, first, end)` around the
    target's fragment, for the element range [first, end)."""
    unit = generate(spec, target)
    params = [f"{v.element_type.c_name} *{v.name}" for v in spec.arrays] \
        + [f"{v.element_type.c_name} {v.name}" for v in spec.scalar_ins]
    bounds = ["int my_start", "int my_finish"] if target is TargetKind.LEO \
        else ["int start", "int finish"]
    head = f"void run_{target.value}({', '.join(params + bounds)})"
    if target is not TargetKind.CUDA:
        return f"{head}\n{{\n{unit.text}\n}}\n"
    args = [f"{v.name} + start" for v in spec.arrays] \
        + [v.name for v in spec.scalar_ins] + ["len"]
    return (f"{CUDA_SHIM}{unit.text}\n\n{head}\n{{\n"
            "    int len = finish - start;\n"
            "    blockDim.x = 256;\n"
            "    for (blockIdx.x = 0; blockIdx.x * blockDim.x < len; blockIdx.x++)\n"
            "        for (threadIdx.x = 0; threadIdx.x < blockDim.x; threadIdx.x++)\n"
            f"            {unit.function_name}({', '.join(args)});\n"
            "}\n")


def assert_compiled_matches_oracle(spec, kernel, workdir, seed=0):
    c_path = workdir / f"{spec.name}.c"
    lib_path = workdir / f"lib{spec.name}.so"
    c_path.write_text("\n".join(c_source(spec, t) for t in TargetKind))
    built = subprocess.run(
        ["gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
         "-o", str(lib_path), str(c_path)],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr

    rng = np.random.default_rng(seed)
    originals = _inputs(spec, rng)
    with np.errstate(all="ignore"):  # inf and nan are compared too
        expected = evaluate_sequential(
            kernel, {v.name: originals[v.name] for v in spec.array_ins}, N)
    padded = {v.name: np.concatenate([_random(v.element_type, rng, PAD),
                                      originals[v.name],
                                      _random(v.element_type, rng, PAD)])
              for v in spec.arrays}
    outside = np.r_[:PAD, PAD + N:N + 2 * PAD]

    lib = ctypes.CDLL(str(lib_path))
    for target in TargetKind:
        arrays = {n: a.copy() for n, a in padded.items()}
        fn = getattr(lib, f"run_{target.value}")
        fn.argtypes = [ctypes.POINTER(_C_TYPES[v.element_type]) for v in spec.arrays] \
            + [_C_TYPES[v.element_type] for v in spec.scalar_ins] \
            + [ctypes.c_int, ctypes.c_int]
        fn.restype = None
        fn(*(arrays[v.name].ctypes.data_as(fn.argtypes[k])
             for k, v in enumerate(spec.arrays)),
           *(kernel.scalars[v.name] for v in spec.scalar_ins), PAD, PAD + N)

        for name, array in arrays.items():
            want = expected.get(name, originals[name])
            assert array[PAD:PAD + N].tobytes() == want.tobytes(), (target.value, name)
            assert array[outside].tobytes() == padded[name][outside].tobytes(), (
                target.value, name, "canary overwritten")


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
