"""Runtime: chunk claiming, simulated devices, and multi-unit execution."""

from hstream.runtime.cursor import Chunk, ClaimRecord, SharedCursor
from hstream.runtime.device import (
    SIM_ELEMENTS_PER_SECOND,
    SimulatedDevice,
    compute_seconds,
    run_on_accelerator,
    run_on_cpu,
    transfer_seconds,
)
from hstream.runtime.executor import (
    AUTO_MAX_BYTES,
    AUTO_MIN_BYTES,
    AUTO_TARGET_CLAIMS,
    PuStats,
    RunStats,
    chunk_size_for,
    execute,
)
from hstream.runtime.kernel import ExecutableKernel, compile_expr, evaluate_sequential

__all__ = [
    "AUTO_MAX_BYTES",
    "AUTO_MIN_BYTES",
    "AUTO_TARGET_CLAIMS",
    "Chunk",
    "ClaimRecord",
    "ExecutableKernel",
    "PuStats",
    "RunStats",
    "SIM_ELEMENTS_PER_SECOND",
    "SharedCursor",
    "SimulatedDevice",
    "chunk_size_for",
    "compile_expr",
    "compute_seconds",
    "evaluate_sequential",
    "execute",
    "run_on_accelerator",
    "run_on_cpu",
    "transfer_seconds",
]
