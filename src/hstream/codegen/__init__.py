"""Target-specific source generation from checked kernels, built directly as C text."""

from hstream.codegen.emit import (
    ALL_TARGETS,
    EmittedUnit,
    TargetKind,
    gen_cuda,
    gen_driver,
    gen_leo,
    gen_openmp,
    generate,
)

__all__ = [
    "ALL_TARGETS",
    "EmittedUnit",
    "TargetKind",
    "gen_cuda",
    "gen_driver",
    "gen_leo",
    "gen_openmp",
    "generate",
]
