"""Baxter monoids of finite rank with involution.

Canonical forms and congruence testing via evaluation and left/right
precedences, twin binary search tree insertion, faithful representations by
upper triangular tropical matrices, named identity families, and a
polynomial-time checker for (involution) word identities, validated against
brute-force substitution search.
"""

from .words import (AWord, Identity, IVar, ParseError, PivotAbsentError,
                    RangeError, bar, content, flatten, format_iword,
                    initial_part, final_part, ident, iword, occ, occ_after,
                    occ_before, parse_aword, parse_identity, parse_side,
                    parse_term, restrict, reverse, star_word, v)
from .trees import (BST, TwinPair, p_baxt, p_sylv, p_sylv_sharp, to_dot,
                    tree_equal)
from .monoid import (BaxtElement, RankMismatchError, canonical, equivalent,
                     evaluation, identity_element, invariant_key, lpi,
                     multiply, rewrite_neighbors, rpi, sharp, sharp_word)
from .semiring import (NEG_INF, UTMatrix, block_diag, gen_J, gen_K, gen_P,
                       gen_Q, identity_matrix, mat_mul, skew_transpose)
from .represent import (PairElement, TupleElement, materialize, phi1, phi2,
                        phi2_closed, phi3, phi3_closed, phi_ij, phi_n,
                        tuple_equal)
from .checker import (CheckReport, check, check_baxt1, check_baxt2,
                      check_baxt3, check_baxt4plus, check_plain,
                      conditions_baxt2, conditions_baxt3, is_balanced)
from .families import basis2, basis4, basis2_rows, isoterm_search, pk_qk
from .oracle import (BudgetExceededError, OracleResult, brute_force_check,
                     comm_check, comm_eval, enumerate_classes,
                     eval_substitution, sample_check)

__version__ = "0.1.0"
