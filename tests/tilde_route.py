"""The resolved route to the stable-envelope tilde grids, kept as a test
reference.

``stab_tilde_grid`` runs the subword DP of the resolution formula in the
diagram's torus: every beta and every alpha + h goes through the collapse
psi first, and each coset sum S is certified by psi(F) | psi(S) for the
product F of its block forms.  This module keeps the order that came
before: the coset sums are formed in the n resolved variables and certified
by F | S there (``_coset_sums`` through the identity), and only the
quotient and the coset's shared factor are mapped through psi.  psi is a
ring map and maps no block form to 0, so both orders give the same
polynomials; a bug that breaks F | S while keeping psi(F) | psi(S) shows
as a difference from this route.
"""

from bowcalc.diagrams import bct_key, enumerate_bct
from bowcalc.exactalg import MultiPoly, RingMap, poly_product
from bowcalc.permcalc import Composition, tilde_w, w_distinguished
from bowcalc.stabloc import _coset_sums, psi_map, resolution_normalizer


def collapse(comp_c):
    """psi for the composition c: t_{C_{i-1}+k} -> t_i - (k-1) h."""
    N = len(comp_c)
    images = [MultiPoly.linear(N, {i: 1}, 1 - k) for i in range(1, N + 1) for k in range(1, comp_c[i - 1] + 1)]
    return RingMap(comp_c.total, N, images)


def resolved_coset_values(delta, ws, targets, ring):
    """{(index, target): ring(S / F) * ring(common)} over the cosets
    w S_delta of ``ws``, with S / F formed and certified in the n resolved
    variables."""
    out = {}
    for index, common, sums in _coset_sums(delta, ws, targets):
        shared = ring(poly_product(common, delta.total))
        for tgt, value in sums.items():
            out[(index, tgt)] = ring(value) * shared
    return out


def stab_tilde_grid_resolved(diagram):
    """``stab_tilde_grid(diagram)`` in the resolved order: each coset value
    mapped through psi, times the shared factor, divided by the
    normalizer."""
    m = diagram.margins()
    bcts = enumerate_bct(diagram)
    if m.n == 0:
        return {(bct_key(bcts[0]), bct_key(bcts[0])): MultiPoly.one(diagram.N)}
    comp_r, comp_c = Composition(m.r), Composition(m.c)
    targets = {bct_key(A): tilde_w(A, comp_r, comp_c) for A in bcts}
    ws = [w_distinguished(A, comp_r, comp_c) for A in bcts]
    values = resolved_coset_values(comp_r, ws, list(targets.values()), psi_map(diagram))
    norm = resolution_normalizer(diagram)
    return {
        (bct_key(A), akey): values[(index, tgt)].exact_div(norm)
        for index, A in enumerate(bcts)
        for akey, tgt in targets.items()
    }
