"""Curated SAM kernels used by the paper's evaluation studies."""

from .elementwise import CONFIGS, VecMulResult, vecmul
from .gamma import GammaResult, gamma_spmm
from .outerspace import OuterSpaceResult, outerspace_spmm
from .sddmm import (
    SDDMMResult,
    sddmm_fused_coiter,
    sddmm_fused_locate,
    sddmm_reference,
    sddmm_unfused,
)
from .spmm import FAMILY, ORDERS, run_spmm, spmm_program
from .spmv import spmv_locate, spmv_program, spmv_scatter

__all__ = [
    "CONFIGS",
    "FAMILY",
    "GammaResult",
    "ORDERS",
    "OuterSpaceResult",
    "SDDMMResult",
    "VecMulResult",
    "gamma_spmm",
    "outerspace_spmm",
    "run_spmm",
    "sddmm_fused_coiter",
    "sddmm_fused_locate",
    "sddmm_reference",
    "sddmm_unfused",
    "spmm_program",
    "spmv_locate",
    "spmv_scatter",
    "spmv_program",
    "vecmul",
]
