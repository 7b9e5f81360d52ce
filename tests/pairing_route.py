"""The pairing route to the Chevalley-Monk matrix, kept as a test reference.

By orthogonality of the chamber-z and opposite-chamber stable bases, entry
[D'][D] is the virtual pairing of c_1(xi_j) cup Stab_z(D) with Stab_{-z}(D'):
the sum over fixed points T of the reduced summands
Stab(D)|_T * Stab_op(D')|_T / e(T_T), each times c_1(xi_j)|_T.  The
summands live modulo the diagonal torus and c_1(xi_j)|_T does not, so each
summand is lifted back to the full ring first, exactly.  This is
independent of the triangular solve in ``cm_matrix_oracle``, which never
pairs, never divides by a tangent class and never reads the opposite grid.
The same orthogonality is also checked with every tangent class multiplied
out, with no division at all.

The pairing runs modulo the diagonal torus, which is exact only because
every grid entry is invariant under t_i -> t_i + s for all i at once;
``translation_derivative`` is the tests' check of that.
"""

from bowcalc.chevalley import CMMatrix, _diagonal_quotient, _lift, _pairing_terms
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
    quotient = _diagonal_quotient(diagram.N)
    zero = LocalizedScalar.from_poly(MultiPoly.zero(diagram.N))
    entries = {}
    for dk in basis:
        for dpk in basis:
            # summands that share a nonzero Chern restriction are added
            # before it multiplies them: the same sum, with smaller numerators
            groups = {}
            for tkey, scalar in pair_terms[(dk, dpk)]:
                if not chern[tkey].is_zero():
                    groups[chern[tkey]] = groups.get(chern[tkey], zero) + _lift(scalar, quotient)
            total = zero
            for c, part in groups.items():
                total = total + part * c
            entries[(dpk, dk)] = total.to_poly()
    return CMMatrix(diagram, z, j, basis, entries)


def direct_gram(diagram, z):
    """The Gram matrix of chamber z summed from its own pairing terms, past
    the Gram memo: the reference for ``gram_matrix``, which reads one chamber
    of each opposite pair as the other's transpose and groups the summands by
    denominator modulo the diagonal torus.  Here each summand is lifted back
    to the full ring, and they are added there one by one."""
    quotient = _diagonal_quotient(diagram.N)
    zero = LocalizedScalar.from_poly(MultiPoly.zero(diagram.N))
    out = {}
    for pair, terms in _pairing_terms(diagram, z).items():
        total = zero
        for _, scalar in terms:
            total = total + _lift(scalar, quotient)
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


def translation_derivative(p):
    """The sum over i of dp/dt_i: zero exactly when p is invariant under
    t_i -> t_i + s for all i at once (over Q)."""
    out = {}
    for mono, coef in p.terms.items():
        for i, e in enumerate(mono[:-1]):
            if e:
                lower = mono[:i] + (e - 1,) + mono[i + 1:]
                out[lower] = out.get(lower, 0) + coef * e
    return MultiPoly(p.window, out)
