"""The pairing route to the Chevalley-Monk matrix, kept as a test reference.

By orthogonality of the chamber-z and opposite-chamber stable bases, entry
[D'][D] is the virtual pairing of c_1(xi_j) cup Stab_z(D) with Stab_{-z}(D'):
the sum over fixed points T of the reduced summands
Stab(D)|_T * Stab_op(D')|_T / e(T_T), each times c_1(xi_j)|_T.  This is
independent of the triangular solve in ``cm_matrix_oracle``, which never
pairs, never divides by a tangent class and never reads the opposite grid.
The same orthogonality is also checked with every tangent class multiplied
out, with no division at all.
"""

from bowcalc.chevalley import CMMatrix, _pairing_terms
from bowcalc.diagrams import _fixed_points
from bowcalc.exactalg import LocalizedScalar, MultiPoly, sum_of_products
from bowcalc.stabloc import _chern_table, opposite_chamber, stab_grid, tangent_euler


def cm_matrix_pairing(diagram, z, j, pair_terms=None):
    """The matrix of c_1(xi_j) from the pairing summands; each entry is a
    certified polynomial, since ``to_poly`` raises on a surviving denominator.

    ``pair_terms`` defaults to ``_pairing_terms(diagram, z)``; a caller that
    reads several bundles computes it once and passes it.
    """
    if pair_terms is None:
        pair_terms = _pairing_terms(diagram, z)
    basis = list(_fixed_points(diagram))
    chern = _chern_table(diagram, j)
    zero = LocalizedScalar.from_poly(MultiPoly.zero(diagram.N))
    entries = {}
    for dk in basis:
        for dpk in basis:
            # summands that share a nonzero Chern restriction are added
            # before it multiplies them: the same sum, with smaller numerators
            groups = {}
            for tkey, scalar in pair_terms[(dk, dpk)]:
                if not chern[tkey].is_zero():
                    groups[chern[tkey]] = groups.get(chern[tkey], zero) + scalar
            total = zero
            for c, part in groups.items():
                total = total + part * c
            entries[(dpk, dk)] = total.to_poly()
    return CMMatrix(diagram, z, j, basis, entries)


def direct_gram(diagram, z):
    """The Gram matrix of chamber z summed from its own pairing terms, past
    the Gram memo: the reference for ``gram_matrix``, which reads one chamber
    of each opposite pair as the other's transpose."""
    zero = LocalizedScalar.from_poly(MultiPoly.zero(diagram.N))
    out = {}
    for pair, terms in _pairing_terms(diagram, z).items():
        total = zero
        for _, scalar in terms:
            total = total + scalar
        out[pair] = total
    return out


def division_free_orthogonality_failures(diagram, z):
    """The orthogonality of the chamber-z and opposite-chamber bases with
    the tangent classes multiplied out, so that nothing is divided:
    sum over D of Stab_z(D)|_T * Stab_-z(D)|_T' is e(T) when T == T' and 0
    otherwise.  Returns the (T key, T' key) pairs where it fails."""
    points = _fixed_points(diagram)
    keys = list(points)
    grid, grid_op = stab_grid(diagram, z), stab_grid(diagram, opposite_chamber(z))
    failures = []
    for tk in keys:
        for tpk in keys:
            got = sum_of_products(((grid[(tk, dk)], grid_op[(tpk, dk)]) for dk in keys), diagram.N)
            if got != (tangent_euler(diagram, z, points[tk]) if tk == tpk else 0):
                failures.append((tk, tpk))
    return failures
