"""Simulated GPU SpMV kernels.

Each kernel executes the product *functionally* (bit-exact decode of real
packed streams, vectorized over the threads of a block — legal because the
BRO design gives all threads of a slice identical control flow) and emits a
:class:`repro.gpu.counters.KernelCounters` record of the DRAM transactions,
flops and decode instructions a CUDA profiler would report. The timing
model (:mod:`repro.gpu.timing`) turns those counters into predicted time.
"""

from .backends import (
    COMPUTE_BACKENDS,
    jit_available,
    resolve_backend,
)
from .base import SpMVKernel, SpMVResult
from .dispatch import run_spmm, run_spmv
from .plan import SpMVPlan, has_planner, plannable_formats, prepare
from .plancache import PLAN_CACHE, PlanCache
from .spmv_bellpack import BELLPACKKernel
from .spmv_cmrs import CMRSKernel
from .spmv_coo import COOKernel
from .spmv_csr import CSRVectorKernel
from .spmv_ellpack import ELLPACKKernel
from .spmv_ellpack_r import ELLPACKRKernel
from .spmv_hyb import BROHYBKernel, HYBKernel
from .spmv_sell_c_sigma import SELLCSigmaKernel
from .spmv_sliced_ell import SlicedELLKernel
from .spmv_bro_coo import BROCOOKernel
from .spmv_bro_ell import BROELLKernel, BROELLVCKernel, BROSELLKernel
from .spmv_bro_ell_mt import MultiRowBROELLKernel

__all__ = [
    "SpMVKernel",
    "SpMVResult",
    "run_spmv",
    "run_spmm",
    "SpMVPlan",
    "prepare",
    "has_planner",
    "plannable_formats",
    "PlanCache",
    "PLAN_CACHE",
    "COMPUTE_BACKENDS",
    "jit_available",
    "resolve_backend",
    "BELLPACKKernel",
    "CMRSKernel",
    "COOKernel",
    "CSRVectorKernel",
    "ELLPACKKernel",
    "ELLPACKRKernel",
    "SELLCSigmaKernel",
    "SlicedELLKernel",
    "HYBKernel",
    "BROELLKernel",
    "BROELLVCKernel",
    "MultiRowBROELLKernel",
    "BROCOOKernel",
    "BROHYBKernel",
    "BROSELLKernel",
]
