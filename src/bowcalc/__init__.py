"""Exact equivariant fixed-point calculus for type A bow varieties.

The package computes, in exact rational arithmetic, the combinatorics of
brane and tie diagrams, restrictions of tautological bundles to torus fixed
points, stable envelope equivariant multiplicities, and the multiplication
matrices of tautological first Chern classes in the stable basis, together
with a verification suite that machine-checks the structural identities
(orthogonality, divisibility, congruences, transition invariance).
"""

from .exactalg import (
    Character,
    LinearForm,
    LocalizedScalar,
    MultiPoly,
    NonPolynomialError,
    NotDivisibleError,
    RingMap,
    factor_s_forms,
)
from .permcalc import (
    Composition,
    Permutation,
    ReducedWord,
    beta_sequence,
    bruhat_leq,
    coset_matrix_Z,
    enumerate_coset,
    is_fully_separated,
    matching_F,
    matching_G,
    min_rep_double,
    min_rep_left,
    min_rep_right,
    reduced_word,
    subword_sum,
    subword_sums,
    tilde_w,
    tilde_y,
    w_distinguished,
    young_longest,
)
from .diagrams import (
    BraneDiagram,
    DiagramError,
    TieDiagram,
    bct_key,
    bct_to_tie,
    enumerate_bct,
    enumerate_ties,
    essential,
    flag_diagram,
    flag_tie,
    gale_ryser_feasible,
    hanany_witten,
    render_ascii,
    render_bct,
    resolution,
    resolve_tie,
    separate,
    simple_moves,
    simple_moves_rel,
    sn_act,
    tie_to_bct,
)
from .stabloc import (
    chargeless_euler,
    n_euler,
    opposite_chamber,
    psi_map,
    resolution_normalizer,
    restrict_taut,
    stab_full_flag,
    stab_grid,
    stab_partial_flag,
    stab_restriction,
    stab_tilde_antidominant,
    stack_character,
    tangent_euler,
    taut_chern,
    taut_tables,
)
from .chevalley import (
    CMMatrix,
    cm_matrix,
    cm_matrix_oracle,
    gram_matrix,
    normalized_cm,
    verify,
    virtual_pairing,
)

__version__ = "0.1.0"
