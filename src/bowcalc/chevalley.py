"""Chevalley-Monk multiplication matrices in the stable basis, the virtual
pairing, and the theorem verification suite.

The matrix of multiplication by c_1(xi_j) has entry[row D'][col D] equal to
the coefficient of Stab(D') in c_1(xi_j) cup Stab(D).  Two independent routes
compute it: the combinatorial formula (diagonal = tautological Chern
restriction, off-diagonal = signed h on twisted simple moves) and the oracle
(a triangular solve of Stab * C = diag(c_1(xi_j)) * Stab on the stable grid)."""

import operator
import random
from collections import Counter
from fractions import Fraction
from graphlib import TopologicalSorter
from types import MappingProxyType

from .diagrams import (
    _fixed_points,
    hanany_witten,
    move_sign,
    separate,
    simple_moves,
    simple_moves_rel,
)
from .exactalg import (
    LocalizedScalar,
    MultiPoly,
    NonPolynomialError,
    RingMap,
    _cancel_forms,
    factor_s_forms,
    sum_of_products,
)
from .memo import ReadOnly, memo
from .permcalc import Composition, Permutation, tilde_w
from .stabloc import (
    _chern_table,
    opposite_chamber,
    stab_grid,
)

@memo(lambda diagram, z: diagram.key())
def _tangent_factors(diagram, z):
    """Tangent Euler classes, factored into S forms for localized division.

    Each tangent class is the product of the two opposite-chamber diagonal
    stable multiplicities; both are Euler classes, so they factor completely.
    The product e(T_T) does not depend on the chamber z (the normalization
    axiom), and its factorization into sorted S forms is unique, so one
    table per diagram serves every chamber; ``z`` only picks the grids read.
    """
    grid_c = stab_grid(diagram, z)
    grid_op = stab_grid(diagram, opposite_chamber(z))
    out = {}
    for key in _fixed_points(diagram):
        c1, h1, f1 = factor_s_forms(grid_c[(key, key)])
        c2, h2, f2 = factor_s_forms(grid_op[(key, key)])
        out[key] = (c1 * c2, h1 + h2, tuple(sorted(f1 + f2)))
    return out


def _diagonal_quotient(n):
    """The maps (phi, phi^-1) that pair modulo the diagonal torus, or None
    when n < 2.

    phi: Q[t_1..t_n, h] -> Q[t_1..t_{n-1}, h] sends t_n to 0, and phi^-1
    sends t_i to t_i - t_n.  On the subring of polynomials invariant under
    t_i -> t_i + s for all i at once, which holds every grid entry and every
    tangent form, phi is an isomorphism and phi^-1 its inverse.  A form
    t_i - t_j + m*h maps to a nonzero form (``LinearForm.as_poly`` in window
    n - 1), distinct forms to non-associate primes, so a reduced
    ``LocalizedScalar`` maps to a reduced one with the same denominators.
    """
    if n < 2:
        return None
    low = [MultiPoly.t(i, n - 1) for i in range(1, n)]
    t_n = MultiPoly.t(n, n)
    return (
        RingMap(n, n - 1, low + [MultiPoly.zero(n - 1)]),
        RingMap(n - 1, n, [MultiPoly.t(i, n) - t_n for i in range(1, n)]),
    )


def _lift(value, quotient):
    """A reduced ``LocalizedScalar`` of the quotient ring back in the full
    ring, through phi^-1 with the same denominators (``_diagonal_quotient``)."""
    if quotient is None:
        return value
    return LocalizedScalar(quotient[1](value.num), value.denoms, reduce_now=False)


def _tangent_summands(a, rows, tangent):
    """The reduced localized summands a*b / e(T), one per row (q, divided)
    of ``rows``: q is b divided once by each form of e(T) that divides it
    (``_cancel_forms``), and ``divided`` the Counter of the forms divided out.

    ``tangent`` is e(T) factored as (constant, h power, S forms).  ``a`` is
    cancelled against the forms once; each form divided out of both a and b
    more often than e(T) holds it is multiplied back into q, a linear
    product, before q meets a.  The forms are linear, hence prime, so this
    cancels exactly the forms that reducing a*b would, and every division
    runs on a factor instead of on the much larger product.  The h power is
    divided out of each product, and the constant out of a, once.
    """
    const, hpow, forms = tangent
    a, rest = _cancel_forms(a, forms)
    rest = Counter(rest)
    a = a * (Fraction(1) / const)
    out = []
    for b, divided in rows:
        both = rest & divided
        for form in (divided - both).elements():
            b = b * form.as_poly(b.window)
        num = a * b
        if hpow:
            if num.h_valuation() < hpow:
                raise NonPolynomialError("tangent h power does not cancel")
            num = num.exact_div(MultiPoly.h(num.window) ** hpow)
        out.append(LocalizedScalar(num, (rest - both).elements(), reduce_now=False))
    return out


def _pairing_terms(diagram, z):
    """Reduced localized summands Stab(D)|_T * Stab_op(D')|_T / e(T_T).

    Returns {(D key, D' key): ((T key, LocalizedScalar), ...)}: the summands
    ``gram_matrix`` adds up for this diagram and chamber, also read by the
    pairing route in ``tests/pairing_route.py``.  Not memoized: the Gram
    matrix is, so the summands live only while it sums them.  Each nonzero
    Stab_op(D')|_T is divided once by the tangent forms of T that divide it,
    and each nonzero Stab(D)|_T is cancelled once, for all D'.

    For N >= 2 the summands live in window N - 1, modulo the diagonal torus:
    each nonzero entry of both grids is mapped through phi (t_N -> 0, see
    ``_diagonal_quotient``) once per call, as it is read, and ``_lift``
    maps a summand, or a sum of them, back.  That every entry is translation
    invariant is not checked here, at one pass over the terms per entry: the
    tests check it, and the oracle in ``verify`` still reads the full grids,
    so a corruption that phi hides still fails there.
    """
    keys = list(_fixed_points(diagram))
    quotient = _diagonal_quotient(diagram.N)
    phi = quotient[0] if quotient else (lambda p: p)
    grid_c = stab_grid(diagram, z)
    grid_op = stab_grid(diagram, opposite_chamber(z))
    tangent = _tangent_factors(diagram, z)
    out = {(dk, dpk): [] for dk in keys for dpk in keys}
    # T, then D, then D'; each pair's summands still come in T order, and
    # each grid entry is read, and mapped through phi, once
    for tk in keys:
        forms = tangent[tk][2]
        held = Counter(forms)
        ops, rows = [], []
        for dpk in keys:
            b = grid_op[(tk, dpk)]
            if not b.is_zero():
                b, left = _cancel_forms(phi(b), forms)
                ops.append(dpk)
                rows.append((b, held - Counter(left)))
        for dk in keys:
            a = grid_c[(tk, dk)]
            if a.is_zero():
                continue
            for dpk, summand in zip(ops, _tangent_summands(phi(a), rows, tangent[tk])):
                out[(dk, dpk)].append((tk, summand))
    return {pair: tuple(terms) for pair, terms in out.items()}


def virtual_pairing(diagram, z, vec_a, vec_b):
    """sum over fixed points of a_p * b_p / e(T_p), as a LocalizedScalar.

    ``vec_a`` and ``vec_b`` map fixed point keys to polynomials (the
    equivariant multiplicities of the two classes).
    """
    tangent = _tangent_factors(diagram, z)
    total = LocalizedScalar.from_poly(MultiPoly.zero(diagram.N))
    for key in _fixed_points(diagram):
        a, b = vec_a[key], vec_b[key]
        if a.is_zero() or b.is_zero():
            continue
        forms = tangent[key][2]
        b, left = _cancel_forms(b, forms)
        total = total + _tangent_summands(a, [(b, Counter(forms) - Counter(left))], tangent[key])[0]
    return total


class CMMatrix(ReadOnly):
    """Sparse multiplication matrix indexed by tie diagram keys.

    Read-only, so that a memoized matrix can be shared: ``basis`` is a tuple
    and ``entries`` a ``MappingProxyType``; every operation builds a new
    matrix.
    """

    __slots__ = ("diagram", "chamber", "bundle", "basis", "entries")

    def __init__(self, diagram, chamber, bundle, basis, entries):
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "chamber", chamber)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "entries", MappingProxyType({k: v for k, v in entries.items() if v}))

    def entry(self, row_key, col_key):
        zero = MultiPoly.zero(self.diagram.N)
        return self.entries.get((row_key, col_key), zero)

    def __eq__(self, other):
        if not isinstance(other, CMMatrix):
            return NotImplemented
        if self.basis != other.basis:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(self.entry(*k) == other.entry(*k) for k in keys)

    def map_values(self, fn):
        return CMMatrix(
            self.diagram,
            self.chamber,
            self.bundle,
            self.basis,
            {k: fn(v) for k, v in self.entries.items()},
        )

    def add_scalar_diagonal(self, scalar):
        entries = dict(self.entries)
        for key in self.basis:
            entries[(key, key)] = self.entry(key, key) + scalar
        return CMMatrix(self.diagram, self.chamber, self.bundle, self.basis, entries)

    def _entrywise(self, op, other):
        keys = set(self.entries) | set(other.entries)
        return CMMatrix(
            self.diagram,
            self.chamber,
            self.bundle,
            self.basis,
            {k: op(self.entry(*k), other.entry(*k)) for k in keys},
        )

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)

    def compose(self, other):
        """Matrix product (entries are polynomials)."""
        pairs = {}
        for (i, k), a in self.entries.items():
            for (k2, j), b in other.entries.items():
                if k == k2:
                    pairs.setdefault((i, j), []).append((a, b))
        entries = {key: sum_of_products(group, self.diagram.N) for key, group in pairs.items()}
        return CMMatrix(self.diagram, self.chamber, self.bundle, self.basis, entries)

    def to_json(self):
        triplets = [
            {"row": r, "col": c, "value": str(v)}
            for (r, c), v in sorted(self.entries.items())
        ]
        return {
            "diagram": self.diagram.format(),
            "chamber": str(self.chamber),
            "bundle": self.bundle,
            "basis": list(self.basis),
            "entries": triplets,
        }


@memo(lambda diagram, z, j: (diagram.key(), z.one_line, j))
def cm_matrix(diagram, z, j):
    """The Chevalley-Monk matrix of c_1(xi_j) from the combinatorial formula:
    interval-indexed twisted simple moves off the diagonal, tautological Chern
    restrictions on it."""
    i = diagram.interval_index(j)
    points = _fixed_points(diagram)
    chern = _chern_table(diagram, j)
    h = MultiPoly.h(diagram.N)
    entries = {}
    for col, D in points.items():
        entries[(col, col)] = chern[col]
        for D_moved, sgn in simple_moves_rel(D, z, i):
            entries[(D_moved.key(), col)] = h * sgn
    return CMMatrix(diagram, z, j, points, entries)


@memo(lambda diagram, z: (diagram.key(), z.one_line))
def _solve_plan(diagram, z):
    """The oracle's order of solving in chamber z, shared by every bundle:
    a tuple of (T, ((X, Stab(X)|_T), ...), Stab(T)|_T), one per fixed point
    T, with X over the points other than T where Stab(X)|_T != 0, and each T
    after all of its X (the support axiom).  Raises CycleError when the
    support has a cycle and ZeroDivisionError when a diagonal is zero, at
    any T: the grid is then not triangular."""
    keys = list(_fixed_points(diagram))
    grid = stab_grid(diagram, z)
    above = {T: [X for X in keys if X != T and not grid[(T, X)].is_zero()] for T in keys}
    plan = tuple(
        (T, tuple((X, grid[(T, X)]) for X in above[T]), grid[(T, T)])
        for T in TopologicalSorter(above).static_order()
    )
    if any(diagonal.is_zero() for _, _, diagonal in plan):
        raise ZeroDivisionError("division by zero polynomial")
    return plan


@memo(lambda diagram, z, j: (diagram.key(), z.one_line, j))
def cm_matrix_oracle(diagram, z, j):
    """The same matrix by a triangular solve on the stable grid: at a fixed
    point T, sum_X Stab(X)|_T (C[X][D] - [X == D] c_1(xi_j)|_T) = 0.  T is solved
    after every X with Stab(X)|_T != 0 (the support axiom, ``_solve_plan``), by
    one exact division by Stab(T)|_T per column D that has a term; CycleError
    or ZeroDivisionError means the grid is not triangular.

    Row T's terms come only from the entries C[X][D] already solved nonzero,
    plus each X's own column, where the factor is C[X][X] - c_1(xi_j)|_T, so
    the columns left with no term are zero.  The pattern comes from this
    solve alone, never from the formula it is compared with.
    """
    N = diagram.N
    basis = _fixed_points(diagram)
    position = {key: k for k, key in enumerate(basis)}
    chern = _chern_table(diagram, j)
    rows = {}  # T -> {D: C[T][D] != 0}
    for T, above, diagonal in _solve_plan(diagram, z):
        c = chern[T]
        terms = {}
        for X, s in above:
            row = rows[X]
            for D, v in row.items():
                if D != X:
                    terms.setdefault(D, []).append((s, v))
            own = row.get(X, 0) - c
            if own:
                terms.setdefault(X, []).append((s, own))
        row = {}
        # columns in basis order, so that a grid that is not triangular
        # fails at the column the dense solve would
        for D in sorted(terms, key=position.__getitem__):
            v = -sum_of_products(terms[D], N).exact_div(diagonal)
            if v:
                row[D] = v
        v = row.pop(T, 0) + c
        if v:
            row[T] = v
        rows[T] = row
    entries = {(T, D): v for T, row in rows.items() for D, v in row.items()}
    return CMMatrix(diagram, z, j, basis, entries)


def normalized_cm(diagram, j):
    """Conjugate the antidominant matrix by the signs (-1)^(l(tilde_w)); all
    off-diagonal entries become -h."""
    m = diagram.margins()
    comp_r, comp_c = Composition(m.r), Composition(m.c)
    base = cm_matrix(diagram, Permutation.identity(diagram.N), j)
    signs = {}
    for key, D in _fixed_points(diagram).items():
        signs[key] = -1 if tilde_w(D.bct, comp_r, comp_c).length() % 2 else 1
    entries = {
        (r, c): v * (signs[r] * signs[c]) for (r, c), v in base.entries.items()
    }
    return CMMatrix(diagram, base.chamber, j, base.basis, entries)


# -- verification suite ---------------------------------------------------------


@memo(lambda diagram, z: (diagram.key(), z.one_line))
def gram_matrix(diagram, z):
    """Pairings of the chamber-z stable basis against the opposite one.

    The summand of <Stab_z(D), Stab_-z(D')> at T is that of
    <Stab_-z(D'), Stab_z(D)> at T, so of a chamber and its opposite only the
    one with the smaller one-line notation sums its pairing terms; the other
    reads the transpose, in the same key order.  A self-opposite chamber
    (N <= 1) sums its own.

    The summands live modulo the diagonal torus (``_pairing_terms``).  Those
    of one pair that share their denominators are added as numerators, and
    each group's sum is reduced once; the groups are then added as
    ``LocalizedScalar``s, and the total is lifted back to the full ring.
    Every sum is exact and reduced, so no order of addition moves a byte.
    """
    op = opposite_chamber(z)
    if op.one_line < z.one_line:
        other = gram_matrix(diagram, op)
        keys = list(_fixed_points(diagram))
        return {(a, b): other[(b, a)] for a in keys for b in keys}
    quotient = _diagonal_quotient(diagram.N)
    window = diagram.N - 1 if quotient else diagram.N
    one = MultiPoly.one(window)
    zero = LocalizedScalar.from_poly(MultiPoly.zero(diagram.N))
    out = {}
    for pair, terms in _pairing_terms(diagram, z).items():
        groups = {}
        for _, scalar in terms:
            groups.setdefault(scalar.denoms, []).append(scalar)
        total = None
        for denoms, group in groups.items():
            part = group[0]
            if len(group) > 1:
                part = LocalizedScalar(sum_of_products(((s.num, one) for s in group), window), denoms)
            total = part if total is None else total + part
        out[pair] = zero if total is None else _lift(total, quotient)
    return out


def check_orthogonality(diagram, z):
    """Thm: the Gram matrix of (Stab_c, Stab_c_op) is the identity."""
    gram = gram_matrix(diagram, z)
    failures = []
    for (a, b), val in gram.items():
        want = 1 if a == b else 0
        if not val == want:
            failures.append({"row": a, "col": b, "value": str(val)})
    return failures


def check_divisibility(diagram):
    """h^2 divides the antidominant multiplicity at D' of Stab(D) whenever D'
    is neither D nor a simple move of D."""
    z = Permutation.identity(diagram.N)
    points = _fixed_points(diagram)
    grid = stab_grid(diagram, z)
    failures = []
    for key, D in points.items():
        moves = {Dp.key() for Dp, _ in simple_moves(D)}
        for pkey in points:
            if pkey == key or pkey in moves:
                continue
            val = grid[(pkey, key)]
            if val.h_valuation() < 2:
                failures.append({"arg": key, "eval": pkey, "value": str(val)})
    return failures


def check_congruence(diagram):
    """Denominator-cleared h^2 approximation on every simple move pair:
    (t_{j1} - t_{j2}) iota_{D'} Stab(D) = sgn * h * iota_{D'} Stab(D') mod h^2."""
    z = Permutation.identity(diagram.N)
    N = diagram.N
    grid = stab_grid(diagram, z)
    failures = []
    for key, D in _fixed_points(diagram).items():
        for Dp, move in simple_moves(D):
            i1, i2, j1, j2 = move
            pkey = Dp.key()
            sgn = move_sign(D.bct, move)
            move_form = MultiPoly.linear(N, {j1: 1, j2: -1})
            pairs = ((move_form, grid[(pkey, key)]), (MultiPoly.h(N) * -sgn, grid[(pkey, pkey)]))
            delta = sum_of_products(pairs, N)
            if delta.h_valuation() < 2:
                failures.append({"arg": key, "eval": pkey, "move": move, "delta": str(delta)})
    return failures


def check_hw_matrix_transport(diagram, z, bundles=None):
    """One Hanany-Witten step: the multiplication matrices of the transformed
    diagram pull back to those of the original, with the affine correction at
    the transformed bundle."""
    d = diagram
    _, moves = separate(d)
    if not moves:
        return []  # already separated
    k = moves[0][0]
    d2, j0, _ = hanany_witten(d, k)
    phi = RingMap.h_shift(d.N, {j0: 1})
    failures = []
    if bundles is None:
        bundles = range(1, d.num_black + 1)
    for j in bundles:
        ours = cm_matrix_oracle(d, z, j)
        theirs = cm_matrix_oracle(d2, z, j).map_values(phi)
        if j != k:
            ok = ours == theirs
        else:
            combo = (
                cm_matrix_oracle(d, z, k + 1)
                + cm_matrix_oracle(d, z, k - 1)
                - ours
            ).add_scalar_diagonal(MultiPoly.t(j0, d.N) + MultiPoly.h(d.N))
            ok = combo == theirs
        if not ok:
            failures.append({"bundle": j, "move_at": k})
    return failures


def verify(diagram, bundles=None, seed=0):
    """Machine check of the main identities on one diagram, in the identity
    chamber, the longest element's and one chamber drawn by ``seed``.

    Returns a report dict with one entry per check; each entry carries a
    boolean ``ok`` and a list of counterexample payloads.
    """
    N = diagram.N
    ol = list(range(1, N + 1))
    random.Random(seed).shuffle(ol)
    chambers = [Permutation.identity(N), Permutation.longest(N), Permutation(ol)]
    if N <= 1:
        chambers = [Permutation.identity(N)]
    if bundles is None:
        bundles = list(range(1, diagram.num_black + 1))
    for j in bundles:
        diagram.interval_index(j)  # a bad bundle raises before any check runs
    report = {}

    failures = []
    for z in chambers:
        failures.extend(
            dict(chamber=str(z), **f) for f in check_orthogonality(diagram, z)
        )
    report["orthogonality"] = {"ok": not failures, "failures": failures}

    failures = check_divisibility(diagram)
    report["h2_divisibility"] = {"ok": not failures, "failures": failures}

    failures = check_congruence(diagram)
    report["h2_approximation"] = {"ok": not failures, "failures": failures}

    failures = []
    for z in chambers:
        for j in bundles:
            formula = cm_matrix(diagram, z, j)
            oracle = cm_matrix_oracle(diagram, z, j)
            if not formula == oracle:
                failures.append({"chamber": str(z), "bundle": j})
    report["chevalley_monk"] = {"ok": not failures, "failures": failures}

    failures = []
    for z in chambers[:2]:
        failures.extend(check_hw_matrix_transport(diagram, z, bundles=bundles))
    report["hw_transport"] = {"ok": not failures, "failures": failures}

    report["ok"] = all(entry["ok"] for entry in report.values() if isinstance(entry, dict))
    return report
