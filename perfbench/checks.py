"""Output checks, computed apart from hstream.

Each check returns a list of problems (empty when the output is right), so
callers can both count failures and report them.
"""

from __future__ import annotations

import numpy as np

import cexpr
import corpus

MB = 2**20
# The cost model as the hstream README states it: speed 1.0 serves
# 4 Mi elements per second; accelerators also pay seconds per MB moved.
ELEMENTS_PER_SECOND_AT_SPEED_1 = 4 * 2**20
TRIAD_SCALAR = 3.0
SWEEP_SCALAR = 3.0

# Per kernel: STREAM-convention bytes per element, bytes an accelerator moves
# per element (its in and out clauses), and the output as a numpy formula.
SWEEP_KERNELS = {
    "COPY": (16, 16, lambda v, n: {"a": v["b"].copy()}),
    "SCALE": (16, 16, lambda v, n: {"a": SWEEP_SCALAR * v["b"]}),
    "ADD": (24, 24, lambda v, n: {"c": v["a"] + v["b"]}),
    "TRIAD": (24, 32, lambda v, n: {"a": v["b"] + SWEEP_SCALAR * v["c"]}),
    "FILL": (8, 8, lambda v, n: {"a": np.full(n, SWEEP_SCALAR)}),
    "DAXPY": (24, 24, lambda v, n: {"y": v["y"] + SWEEP_SCALAR * v["x"]}),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(a.view(np.uint8), b.view(np.uint8))


# --- stream ------------------------------------------------------------------------

def triad_expected(records: np.ndarray) -> np.ndarray:
    """`a = b + 3.0*c` over an (n, 2) array of interleaved (b, c) records."""
    return records[:, 0] + TRIAD_SCALAR * records[:, 1]


def stream_mismatches(expected: np.ndarray, output: bytes,
                      batch_elements: int) -> list[int]:
    """Indices of the batches whose output differs bitwise from `expected`."""
    batches = -(-len(expected) // batch_elements)
    got = np.frombuffer(output, dtype="<f8")
    if len(got) != len(expected):
        return list(range(batches))
    return [b for b in range(batches)
            if not _same_bits(got[b * batch_elements:(b + 1) * batch_elements],
                              expected[b * batch_elements:(b + 1) * batch_elements])]


# --- sweep -------------------------------------------------------------------------

def elements_per_second(units, moved_bytes: int) -> float:
    """The model's aggregate rate: every unit serving elements at its speed,
    accelerators also paying for the bytes they move per element. `units`
    are (kind, speed_factor, transfer_cost_per_mb) triples from the PDL."""
    rate = 0.0
    for kind, speed, transfer in units:
        seconds = 1.0 / (speed * ELEMENTS_PER_SECOND_AT_SPEED_1)
        if kind != "cpu":
            seconds += transfer * moved_bytes / MB
        rate += 1.0 / seconds
    return rate


def ideal_mb_s(kernel: str, units) -> float:
    """The ceiling on one sweep cell's reported MB/s."""
    stream_bytes, moved_bytes, _ = SWEEP_KERNELS[kernel]
    return elements_per_second(units, moved_bytes) * stream_bytes / MB


def sweep_row_problems(rows, cells, ceilings: dict, allowance: float) -> dict:
    """One verified row per (kernel, config) cell, each with
    0 < MB/s <= ceiling * (1 + allowance). Returns the problems by cell."""
    problems: dict = {}
    seen = {}
    for row in rows:
        key = (row.kernel, row.device_config)
        seen[key] = seen.get(key, 0) + 1
        if key not in ceilings:
            problems.setdefault(key, []).append(f"{key}: not in the plan")
            continue
        if not row.verified:
            problems.setdefault(key, []).append(f"{key}: row not verified")
        limit = ceilings[key] * (1.0 + allowance)
        if not 0.0 < row.throughput_mb_s <= limit:
            problems.setdefault(key, []).append(
                f"{key}: {row.throughput_mb_s:.1f} MB/s outside (0, {limit:.1f}]")
    for key in cells:
        if seen.get(key, 0) != 1:
            problems.setdefault(key, []).append(f"{key}: {seen.get(key, 0)} rows, want 1")
    return problems


def formula_problems(kernel: str, inputs: dict, outputs: dict, length: int) -> list[str]:
    expected = SWEEP_KERNELS[kernel][2](inputs, length)
    return [f"{kernel}: output {name} differs from the numpy formula"
            for name, want in expected.items()
            if name not in outputs or not _same_bits(np.asarray(outputs[name]), want)]


# --- compile -----------------------------------------------------------------------

def invalid_problems(expect: tuple[str, ...], codes) -> list[str]:
    if codes is None:
        return [f"compiled, but expected {list(expect)}"]
    if tuple(codes) != tuple(expect):
        return [f"codes {list(codes)}, expected {list(expect)}"]
    return []


def _innermost_block(text: str) -> str:
    """The statements inside the innermost `{ ... }` of an emitted fragment."""
    close = text.index("}")
    open_ = text.rindex("{", 0, close)
    return text[open_ + 1:close]


def _environment(text: str, length: int, rng: np.random.Generator) -> dict:
    env = {}
    for name, (ctype, elementwise) in corpus.declarations(text).items():
        if ctype == "int":
            env[name] = rng.integers(1, 100, length) if elementwise else int(rng.integers(1, 100))
        else:
            env[name] = 1.0 + rng.random(length) if elementwise else float(1.0 + rng.random())
    return cexpr.run_statements(corpus.scalar_assignments(text), env, length)


def emitted_problems(text: str, kernel_texts: list[dict], seed: int = 0,
                     length: int = 64) -> list[str]:
    """A valid program's emission: one kernel per pragma line, and each
    kernel's statements, read as C with subscripts stripped, computing what
    the source statements compute. `kernel_texts` holds, per kernel, the
    emitted text of each target."""
    pragmas = corpus.pragma_lines(text)
    if len(kernel_texts) != pragmas:
        return [f"{len(kernel_texts)} kernels for {pragmas} pragma lines"]
    rng = np.random.default_rng(seed)
    problems = []
    with np.errstate(all="ignore"):
        env = _environment(text, length, rng)
        for k, (body, emitted) in enumerate(zip(corpus.directive_bodies(text), kernel_texts)):
            want = cexpr.run_statements(body, env, length)
            targets = [cexpr.read_statement(s)[1] for s in body
                       if cexpr.read_statement(s)[0] == "assign"]
            for target_kind, fragment in emitted.items():
                statements = [s.strip() + ";" for s in _innermost_block(fragment).split(";")
                              if s.strip()]
                try:
                    got = cexpr.run_statements(statements, env, length)
                except cexpr.ReadError as exc:
                    problems.append(f"kernel {k} {target_kind}: {exc}")
                    continue
                for name in targets:
                    if not _same_bits(np.asarray(got[name]), np.asarray(want[name])):
                        problems.append(f"kernel {k} {target_kind}: {name} differs "
                                        f"from the source statement")
    return problems
