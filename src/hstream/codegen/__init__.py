"""Target-specific source generation from checked kernels, via string templates."""

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
from hstream.codegen.templates import TemplateGroup, load_group

__all__ = [
    "ALL_TARGETS",
    "DEFAULT_BLOCK_SIZE",
    "EmittedUnit",
    "TargetKind",
    "TemplateGroup",
    "cuda_params",
    "gen_cuda",
    "gen_driver",
    "gen_leo",
    "gen_openmp",
    "generate",
    "leo_clauses",
    "load_group",
    "normalize_ws",
]
