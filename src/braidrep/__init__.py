"""Representations of braid groups and their commutator subgroups into finite groups."""

import os as _os
import sys as _sys


def _import_numpy_on_one_thread() -> None:
    """Import numpy with OPENBLAS_NUM_THREADS=1, then remove the variable again.

    braidrep does integer table work and calls no BLAS routine, but OpenBLAS
    starts a worker thread per extra core when numpy loads, and each one spins
    for about 0.1 s of CPU.  OpenBLAS reads the variable once, at load, so the
    pool is never started and neither later code nor child processes see the
    variable.  A host that imported numpy first or set a thread count keeps
    its own pool."""
    if "numpy" in _sys.modules or any(
            name in _os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_on_one_thread()


from .errors import ResourceLimitError, UsageError, VerificationError
from .groups import AbelianProduct, CayleyTableGroup, FiniteGroup, SL2, SymmetricGroup, parse_group_spec
from .shift import ShiftDecomposition, decompose
from .extension import TowerLevel, TowerResult, compute_tower, extend_step, extend_to_K4, extend_to_braid
from .analysis import count_braid_subgroups, count_subgroups, pi_representation, transitivity_report
from .oracle import brute_hom_Bn, brute_hom_Kn

# the public surface, as the README's Library section lists it
__all__ = [
    "FiniteGroup", "SymmetricGroup", "SL2", "AbelianProduct", "CayleyTableGroup", "parse_group_spec",
    "decompose", "ShiftDecomposition", "compute_tower", "TowerResult", "TowerLevel",
    "extend_to_K4", "extend_step", "extend_to_braid",
    "pi_representation", "transitivity_report", "count_subgroups", "count_braid_subgroups",
    "brute_hom_Kn", "brute_hom_Bn",
    "UsageError", "ResourceLimitError", "VerificationError",
]

__version__ = "0.1.0"
