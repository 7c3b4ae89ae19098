"""Heterogeneous stream computing toolkit.

A pragma-annotated C-like program compiles (per directive) into host-parallel,
GPU-kernel, and coprocessor-offload source fragments plus a driver; a
simulated heterogeneous runtime distributes chunked index ranges across the
platform's processing units; a three-stage pipeline streams batches through
that runtime; and a benchmark harness measures verified throughput.

The package exports the calls a program makes end to end (compile, load a
platform, build a kernel, execute or stream it) and the errors `hstreamc`
maps to exit codes; everything else is imported from its own module.
"""

from hstream import bench, codegen, frontend, pdl, pipeline, runtime
from hstream.errors import (
    CompileError,
    ConfigurationError,
    PipelineError,
    ResolveError,
    VerificationError,
)
from hstream.frontend import compile_file, compile_source
from hstream.ir import ALL_DEVICES, UniformSchedule
from hstream.pdl import parse_pdl_file
from hstream.pipeline import (
    FileSink,
    FileSource,
    GeneratedSource,
    MemorySink,
    run_pipeline,
)
from hstream.runtime import ExecutableKernel, execute

__version__ = "0.1.0"

__all__ = [
    "ALL_DEVICES",
    "CompileError",
    "ConfigurationError",
    "ExecutableKernel",
    "FileSink",
    "FileSource",
    "GeneratedSource",
    "MemorySink",
    "PipelineError",
    "ResolveError",
    "UniformSchedule",
    "VerificationError",
    "bench",
    "codegen",
    "compile_file",
    "compile_source",
    "execute",
    "frontend",
    "parse_pdl_file",
    "pdl",
    "pipeline",
    "run_pipeline",
    "runtime",
]
