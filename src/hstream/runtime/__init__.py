"""Runtime: chunk claiming, simulated devices, and multi-unit execution."""

from hstream.runtime.cursor import Chunk, SharedCursor
from hstream.runtime.device import (
    SimulatedDevice,
    charge_seconds,
    compute_seconds,
    run_on_accelerator,
    run_on_cpu,
    transfer_seconds,
)
from hstream.runtime.executor import (
    AUTO_MAX_BYTES,
    AUTO_MIN_BYTES,
    RunStats,
    chunk_size_for,
    execute,
    plan,
)
from hstream.runtime.kernel import ExecutableKernel, compile_expr, evaluate_sequential

__all__ = [
    "AUTO_MAX_BYTES",
    "AUTO_MIN_BYTES",
    "Chunk",
    "ExecutableKernel",
    "RunStats",
    "SharedCursor",
    "SimulatedDevice",
    "charge_seconds",
    "chunk_size_for",
    "compile_expr",
    "compute_seconds",
    "evaluate_sequential",
    "execute",
    "plan",
    "run_on_accelerator",
    "run_on_cpu",
    "transfer_seconds",
]
