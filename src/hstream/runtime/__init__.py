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
from hstream.runtime.executor import RunStats, execute, plan
from hstream.runtime.kernel import ExecutableKernel, compile_expr, evaluate_sequential

__all__ = [
    "Chunk",
    "ExecutableKernel",
    "RunStats",
    "SharedCursor",
    "SimulatedDevice",
    "charge_seconds",
    "compile_expr",
    "compute_seconds",
    "evaluate_sequential",
    "execute",
    "plan",
    "run_on_accelerator",
    "run_on_cpu",
    "transfer_seconds",
]
