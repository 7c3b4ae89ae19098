"""Heterogeneous stream computing toolkit.

A pragma-annotated C-like program compiles (per directive) into host-parallel,
GPU-kernel, and coprocessor-offload source fragments plus a driver; a
simulated heterogeneous runtime distributes chunked index ranges across the
platform's processing units; a three-stage pipeline streams batches through
that runtime; and a benchmark harness measures verified throughput.

The package exports the calls a program makes end to end (compile, load a
platform, build a kernel, execute or stream it) and the errors `hstreamc`
maps to exit codes; everything else is imported from its own module.

`import hstream` loads no submodule: each exported name imports its home
module on first use (PEP 562) and is then kept in the package namespace, so
compiling never loads numpy or the runtime.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> home module. A name whose home is the package itself is a
# subpackage or module of its own.
_HOMES = {
    "ALL_DEVICES": "hstream.ir",
    "CompileError": "hstream.errors",
    "ConfigurationError": "hstream.errors",
    "ExecutableKernel": "hstream.runtime",
    "FileSink": "hstream.pipeline",
    "FileSource": "hstream.pipeline",
    "GeneratedSource": "hstream.pipeline",
    "MemorySink": "hstream.pipeline",
    "PipelineError": "hstream.errors",
    "ResolveError": "hstream.errors",
    "UniformSchedule": "hstream.ir",
    "VerificationError": "hstream.errors",
    "bench": "hstream",
    "codegen": "hstream",
    "compile_file": "hstream.frontend",
    "compile_source": "hstream.frontend",
    "execute": "hstream.runtime",
    "frontend": "hstream",
    "parse_pdl_file": "hstream.pdl",
    "pdl": "hstream",
    "pipeline": "hstream",
    "run_pipeline": "hstream.pipeline",
    "runtime": "hstream",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'hstream' has no attribute '{name}'")
    if home == __name__:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        value = getattr(importlib.import_module(home), name)
    # Kept, so later lookups skip this hook and patches made with setattr hold.
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
