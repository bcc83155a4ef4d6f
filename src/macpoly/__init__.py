"""Exact combinatorial formulas for Macdonald polynomials: the modified
family via sorted tableaux, integral forms via nonattacking fillings, and
their quasisymmetric refinement."""

from .mpoly import (ExactDivisionError, MPoly, RationalForm,
                    VariableMismatchError, divided_difference,
                    exact_div_xfree, specialize, swap_vars, t_multinomial,
                    t_pochhammer)
from .nonattacking import (AugmentedFilling, attacks, coinv,
                           coinversion_triples, e_general_q0, e_integral,
                           enumerate_na, is_nonattacking, is_ordered,
                           j_compact, j_hhl, maj_na, p_poly, pr1, pr2,
                           schur_oracle)
from .quasisym import (NotQuasisymmetricError, QSymExpansion, demazure_t_atom,
                       g_integral, g_poly, hecke_T, qs_gamma, qsym_expand)
from .shapes import (arm, beta_perm, canonical_w0_word, composition_stats,
                     conjugate, dec_sort, inc_sort, leg, perm_length,
                     strip_zeros)
from .tableaux import (EQUAL, GREATER, LESS, Filling, block_decomposition,
                       compare_columns, enumerate_fillings, enumerate_sorted,
                       family, family_tree, flip, htilde_brute,
                       htilde_compact, inv, is_packed, is_sorted, maj, pds,
                       perm_t, sort_filling, x_weight)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
