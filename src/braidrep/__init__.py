"""Representations of braid groups and their commutator subgroups into finite groups."""

from .errors import ResourceLimitError, UsageError, VerificationError
from .groups import (AbelianProduct, CayleyTableGroup, FiniteGroup, SL2,
                     SymmetricGroup, alternating_group, derived_series,
                     element_order, involution_count, lex_rank, lex_unrank,
                     parse_group_spec)
from .shift import (Cycle, ShiftDecomposition, decompose, order2_cycle_shape,
                    predecessor, successor)
from .extension import (TowerLevel, TowerResult, compute_tower, extend_step,
                        extend_to_K4, extend_to_braid)
from .analysis import (abelian_cycle_length, count_braid_subgroups,
                       count_subgroups, pi_representation,
                       transitivity_report, type_I_census)
from .oracle import (OracleResult, brute_hom_Bn, brute_hom_K3, brute_hom_Kn,
                     engine_census_Bn, engine_census_Kn)

__version__ = "0.1.0"
