"""Target-specific source generation from checked kernels, built directly as C text."""

from hstream.codegen.emit import (
    ALL_TARGETS,
    DEFAULT_BLOCK_SIZE,
    EmittedUnit,
    TargetKind,
    cuda_params,
    gen_cuda,
    gen_driver,
    gen_leo,
    gen_openmp,
    generate,
    leo_clauses,
    normalize_ws,
)

__all__ = [
    "ALL_TARGETS",
    "DEFAULT_BLOCK_SIZE",
    "EmittedUnit",
    "TargetKind",
    "cuda_params",
    "gen_cuda",
    "gen_driver",
    "gen_leo",
    "gen_openmp",
    "generate",
    "leo_clauses",
    "normalize_ws",
]
