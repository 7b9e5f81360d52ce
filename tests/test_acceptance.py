"""Acceptance suite: every numbered criterion prints one pass/fail line.

All comparisons are exact; there are no numerical tolerances anywhere.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import random
from collections import Counter
from itertools import permutations

from bowcalc.chevalley import (
    _diagonal_quotient,
    _lift,
    _pairing_terms,
    _tangent_factors,
    _tangent_summands,
    check_congruence,
    check_divisibility,
    check_hw_matrix_transport,
    check_orthogonality,
    cm_matrix,
    cm_matrix_oracle,
    gram_matrix,
)
from bowcalc.diagrams import (
    BraneDiagram,
    TieDiagram,
    _fixed_points,
    bct_to_tie,
    enumerate_bct,
    flag_diagram,
    hanany_witten,
)
from bowcalc.exactalg import MultiPoly, RingMap, _cancel_forms
from bowcalc.permcalc import (
    Composition,
    Permutation,
    beta_poly,
    beta_sequence,
    matrix_inversions,
    reduced_word,
    tilde_w,
    tilde_y,
    young_elements,
)
from bowcalc.stabloc import (
    opposite_chamber,
    resolution_normalizer,
    stab_full_flag,
    stab_grid,
    stab_partial_flag,
    stab_restriction,
    stab_tilde_antidominant,
)
from pairing_route import (
    cm_matrix_dense_solve,
    cm_matrix_pairing,
    direct_gram,
    division_free_orthogonality_failures,
    translation_derivative,
)

W = Permutation.parse


def report(number, name):
    print("\n[acceptance] criterion %d (%s): pass" % (number, name))


# The eight-tie restriction example.  The printed labels of this diagram
# elsewhere read 5\2/3\1 between the blue lines, but the displayed tie
# diagram, its counting tables and the ranks of all seven restrictions force
# the labels 5\4/4\1 used here (see the decision log next to this package).
TABLE_DIAGRAM = "0/2/3/4/5\\4/4\\1/0"
TABLE_TIES = [
    (("V", 6), ("U", 1)),
    (("V", 6), ("U", 2)),
    (("V", 5), ("U", 1)),
    (("V", 4), ("U", 1)),
    (("V", 3), ("U", 2)),
    (("V", 2), ("U", 2)),
    (("U", 1), ("V", 2)),
    (("U", 1), ("V", 1)),
]

RES_DIAGRAM = "0/1/3/5\\3\\2\\0"
RES_EVAL = ((1, 0, 1), (1, 0, 1), (0, 1, 0))
RES_ARG = ((1, 0, 1), (1, 1, 0), (0, 0, 1))

CM_DIAGRAM = "0/1/3/4/5\\4\\3\\1\\0"
CM_TIES = [
    (("V", 4), ("U", 3)),
    (("V", 3), ("U", 2)),
    (("V", 3), ("U", 4)),
    (("V", 2), ("U", 1)),
    (("V", 1), ("U", 3)),
]

NONSEP_DIAGRAM = "0/1/3\\2/3\\2\\0"


def family():
    return [
        flag_diagram([1, 2], 3),
        flag_diagram([2, 3], 4),
        flag_diagram([1, 3], 4),
        BraneDiagram.parse(RES_DIAGRAM),
        BraneDiagram.parse(CM_DIAGRAM),
        BraneDiagram.parse(NONSEP_DIAGRAM),
    ]


def random_chamber(N, seed):
    rng = random.Random(seed)
    ol = list(range(1, N + 1))
    while True:
        rng.shuffle(ol)
        z = Permutation(ol)
        if z != Permutation.identity(N) and z != Permutation.longest(N):
            return z


def test_criterion_1_restriction_tables():
    D = TieDiagram(BraneDiagram.parse(TABLE_DIAGRAM), TABLE_TIES)
    from bowcalc.stabloc import restrict_taut, taut_tables

    d1, c1 = taut_tables(D, 1)
    d2, c2 = taut_tables(D, 2)
    assert [d1[j] for j in range(2, 9)] == [1, 2, 3, 3, 2, 1, 1]
    assert [d2[j] for j in range(2, 9)] == [1, 1, 1, 2, 2, 3, 0]
    assert [c1[j] for j in range(2, 9)] == [-1, -1, -1, 0, 0, 1, 1]
    assert [c2[j] for j in range(2, 9)] == [-2, -1, 0, 0, 0, 0, 0]
    expected = {
        2: [(1, -3), (2, -4)],
        3: [(1, -3), (1, -2), (2, -3)],
        4: [(1, -3), (1, -2), (1, -1), (2, -2)],
        5: [(1, -2), (1, -1), (1, 0), (2, -2), (2, -1)],
        6: [(1, -2), (1, -1), (2, -2), (2, -1)],
        7: [(1, -1), (2, -2), (2, -1), (2, 0)],
        8: [(1, -1)],
    }
    for i, pairs in expected.items():
        got = list(restrict_taut(D, i).weights)
        want = sorted((1 if j == 1 else 0, 1 if j == 2 else 0, m) for j, m in pairs)
        assert got == want, (i, got, want)
    report(1, "restriction d/c tables and all seven restrictions")


def test_criterion_2_localization_goldens():
    # beta table
    word = [4, 2, 1, 3, 2, 4, 3]
    betas = beta_sequence(5, word)
    assert betas == [(4, 5), (2, 3), (1, 3), (2, 5), (1, 5), (2, 4), (1, 4)]
    # full flag value
    h = MultiPoly.h(5)
    t = lambda i: MultiPoly.t(i, 5)
    bp = lambda k: beta_poly(5, betas[k - 1])
    prefac = (t(1) - t(2) + h) * (t(3) - t(4) + h) * (t(3) - t(5) + h)
    assert stab_full_flag(5, W("35412"), W("23415"), word=word) == prefac * (
        h ** 2 * (bp(1) * bp(6) + h ** 2) * bp(3) * bp(5) * bp(7)
    )
    # partial flag value
    val = stab_partial_flag(Composition((2, 2, 1)), W("25143"), W("52314"))
    assert val == (
        (t(1) - t(3) + h) * (t(2) - t(3) + h) * (t(2) - t(4) + h)
        * h * (t(4) - t(5)) * (t(1) - t(2)) * (t(3) - t(5)) * (t(1) - t(5))
    )
    report(2, "beta table, full and partial flag localization values")


def test_criterion_3_coset_representatives():
    r, c = Composition((3, 2, 2, 3)), Composition((2, 3, 2, 1, 2))
    A = ((1, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 1, 0, 0, 0), (0, 1, 1, 1, 0))
    assert tilde_w(A, r, c).one_line == (1, 3, 9, 6, 10, 2, 4, 5, 7, 8)
    r2, c2 = Composition((2, 2, 1)), Composition((1, 2, 2))
    assert tilde_w(((1, 0, 1), (0, 1, 1), (0, 1, 0)), r2, c2) == W("14253")
    assert tilde_w(((1, 0, 1), (0, 2, 0), (0, 0, 1)), r2, c2) == W("14235")
    # length equals the table inversion count on full enumerations
    for text in [RES_DIAGRAM, CM_DIAGRAM, "0\\2/3\\4\\4/3\\2/0"]:
        d = BraneDiagram.parse(text)
        m = d.margins()
        cr, cc = Composition(m.r), Composition(m.c)
        for B in enumerate_bct(d):
            assert tilde_w(B, cr, cc).length() == matrix_inversions(B)
    report(3, "shortest double coset representatives")


def test_criterion_4_resolution_pipeline():
    d = BraneDiagram.parse(RES_DIAGRAM)
    De = bct_to_tie(d, RES_EVAL)
    Da = bct_to_tie(d, RES_ARG)
    assert resolution_normalizer(d) == MultiPoly.h(3) ** 2
    t = lambda i: MultiPoly.t(i, 3)
    h = MultiPoly.h(3)
    val = stab_tilde_antidominant(d, De, Da)
    # The product below is pinned by three independent routes: it is the
    # substitution image of the criterion-2 partial flag value, it is
    # reproduced for every representative choice of the argument coset, and
    # dividing by the normalization Euler class leaves the polynomial
    # h*(t1-t2+h)*(t2-t3+h), as the orthogonality and multiplication checks
    # of criteria 6 and 7 require.  (The last three factors are sometimes
    # printed as (t1-t2+h)(t2-t3)(t1-t3); that variant fails all three
    # cross-checks: see the decision log.)
    assert val == h * (t(1) - t(2) + h) * (t(1) - t(2)) * (t(1) - t(3)) * (t(2) - t(3) + h) * (t(1) - t(3) + h)
    from bowcalc.stabloc import n_euler

    plain = stab_restriction(d, Permutation.identity(3), De, Da)
    assert plain == h * (t(1) - t(2) + h) * (t(2) - t(3) + h)
    assert plain * n_euler(d, Permutation.identity(3)) == val
    # twisted representative of the simple move family
    r, c = Composition((3, 2, 2, 3)), Composition((2, 3, 2, 1, 2))
    A = ((1, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 1, 0, 0, 0), (0, 1, 1, 1, 0))
    assert tilde_y(A, r, c, (2, 3, 1, 5)).one_line == (1, 3, 9, 6, 2, 10, 4, 5, 7, 8)
    report(4, "resolution pipeline golden value, normalizer, twisted representative")


def test_criterion_5_cm_column():
    d = BraneDiagram.parse(CM_DIAGRAM)
    D = TieDiagram(d, CM_TIES)
    C = cm_matrix(d, Permutation.identity(4), 3)
    t = lambda i: MultiPoly.t(i, 4)
    h = MultiPoly.h(4)
    diag = C.entry(D.key(), D.key())
    # the A-weight part of the diagonal is t2 + t3 + t4; each of the three
    # weights carries the exact twist -2h (cross-checked by the oracle in
    # criterion 7 and anchored by the quotient bundle weights of the
    # cotangent line bundle case)
    assert diag - (t(2) + t(3) + t(4)) == -6 * h
    assert (diag - (t(2) + t(3) + t(4))).h_valuation() >= 1
    moves = {
        "D1": frozenset((D.ties | {(("V", 2), ("U", 3)), (("V", 4), ("U", 1))}) - {(("V", 2), ("U", 1)), (("V", 4), ("U", 3))}),
        "D2": frozenset((D.ties | {(("V", 2), ("U", 2)), (("V", 3), ("U", 1))}) - {(("V", 2), ("U", 1)), (("V", 3), ("U", 2))}),
        "D3": frozenset((D.ties | {(("V", 2), ("U", 4)), (("V", 3), ("U", 1))}) - {(("V", 2), ("U", 1)), (("V", 3), ("U", 4))}),
        "D4": frozenset((D.ties | {(("V", 1), ("U", 4)), (("V", 3), ("U", 3))}) - {(("V", 1), ("U", 3)), (("V", 3), ("U", 4))}),
    }
    signs = {"D1": 1, "D2": 1, "D3": -1, "D4": 1}
    expected = {TieDiagram(d, ties).key(): signs[name] * h for name, ties in moves.items()}
    column = {
        row: val
        for (row, col), val in C.entries.items()
        if col == D.key() and row != D.key()
    }
    assert column == expected
    report(5, "multiplication column: diagonal and signed off-diagonal support")


def test_criterion_6_orthogonality():
    for d in family():
        z_random = random_chamber(d.N, seed=1729 + d.N)
        for z in (Permutation.identity(d.N), z_random):
            failures = check_orthogonality(d, z)
            assert not failures, (d.format(), str(z), failures[:3])
    report(6, "orthogonality of opposite-chamber bases on the full family")


def test_division_free_orthogonality():
    # criterion 6 with the tangent classes multiplied out, in the same chambers
    for d in family():
        z_random = random_chamber(d.N, seed=1729 + d.N)
        for z in (Permutation.identity(d.N), z_random):
            failures = division_free_orthogonality_failures(d, z)
            assert not failures, (d.format(), str(z), failures[:3])


def test_criterion_7_cm_equals_oracle():
    for d in family():
        z_random = random_chamber(d.N, seed=1729 + d.N)
        for z in (Permutation.identity(d.N), z_random):
            for j in range(1, d.num_black + 1):
                formula = cm_matrix(d, z, j)
                oracle = cm_matrix_oracle(d, z, j)
                assert formula == oracle, (d.format(), str(z), j)
    report(7, "multiplication formula equals the triangular-solve oracle everywhere")


def test_sparse_oracle_equals_dense_solve_on_family():
    # the oracle solves only the entries its own solved rows make nonzero;
    # the dense solve visits every (T, D) pair and every X above T
    for d in family():
        chambers = (Permutation.identity(d.N), Permutation.longest(d.N), random_chamber(d.N, seed=1729 + d.N))
        for z in chambers:
            for j in range(1, d.num_black + 1):
                want = cm_matrix_dense_solve(d, z, j).to_json()
                assert cm_matrix_oracle(d, z, j).to_json() == want, (d.format(), str(z), j)


def test_pairing_route_equals_oracle():
    # the orthogonality route, kept as a reference: its summands are the ones
    # criterion 6 paired, in the same chambers
    for d in family():
        z_random = random_chamber(d.N, seed=1729 + d.N)
        for z in (Permutation.identity(d.N), z_random):
            terms = _pairing_terms(d, z)
            for j in range(1, d.num_black + 1):
                assert cm_matrix_pairing(d, z, j, terms) == cm_matrix_oracle(d, z, j), (d.format(), str(z), j)


def test_every_chamber_grid_is_translation_invariant_on_family():
    # the pairing runs modulo the diagonal torus (t_N -> 0), which is exact
    # because no entry of any chamber's grid moves under t_i -> t_i + s
    for d in family():
        for ol in permutations(range(1, d.N + 1)):
            grid = stab_grid(d, Permutation(ol))
            for key, value in grid.items():
                assert translation_derivative(value).is_zero(), (d.format(), ol, key)


def test_torus_quotient_summands_equal_full_ring_summands_on_family():
    # the pairing's summands, made modulo the diagonal torus, lift back to
    # those made in the full ring, one call per (T, D)
    for d in family():
        keys = list(_fixed_points(d))
        for z in (Permutation.identity(d.N), random_chamber(d.N, seed=1729 + d.N)):
            grid, grid_op = stab_grid(d, z), stab_grid(d, opposite_chamber(z))
            tangent = _tangent_factors(d, z)
            quotient = _diagonal_quotient(d.N)
            want = {(dk, dpk): [] for dk in keys for dpk in keys}
            for tk in keys:
                forms = tangent[tk][2]
                ops = [dpk for dpk in keys if not grid_op[(tk, dpk)].is_zero()]
                rows = []
                for dpk in ops:
                    b, left = _cancel_forms(grid_op[(tk, dpk)], forms)
                    rows.append((b, Counter(forms) - Counter(left)))
                for dk in keys:
                    if not grid[(tk, dk)].is_zero():
                        for dpk, summand in zip(ops, _tangent_summands(grid[(tk, dk)], rows, tangent[tk])):
                            want[(dk, dpk)].append((tk, summand))
            got = _pairing_terms(d, z)
            assert got.keys() == want.keys()
            for pair, terms in got.items():
                assert [(tk, _lift(s, quotient)) for tk, s in terms] == want[pair], (d.format(), str(z), pair)


def test_cm_matrices_commute_on_family():
    # cohomology is commutative, independently of either oracle
    for d in family():
        z_random = random_chamber(d.N, seed=1729 + d.N)
        for z in (Permutation.identity(d.N), z_random):
            mats = [cm_matrix(d, z, j) for j in range(1, d.num_black + 1)]
            for a in range(len(mats)):
                for b in range(a + 1, len(mats)):
                    assert mats[a].compose(mats[b]) == mats[b].compose(mats[a]), (d.format(), str(z), a + 1, b + 1)


def test_cm_matrix_self_adjoint():
    # multiplication by c_1 is self-adjoint for the pairing, and Stab_-z is the
    # dual basis of Stab_z, so C_-z is the transpose of C_z; no grid is built
    texts = (
        "0/1/2/3\\2\\1\\0",
        "0/1/2/4\\3\\2\\1\\0",
        "0/1/3/4\\3\\2\\1\\0",
        RES_DIAGRAM,
        NONSEP_DIAGRAM,
        "0/1/2\\1\\2/1\\0",
        "0/1/2/3\\2\\1\\1\\0",
    )
    for d in map(BraneDiagram.parse, texts):
        for z in map(Permutation, permutations(range(1, d.N + 1))):
            for j in range(1, d.num_black + 1):
                c = cm_matrix(d, z, j).entries
                c_op = cm_matrix(d, opposite_chamber(z), j).entries
                assert c_op == {(col, row): v for (row, col), v in c.items()}, (d.format(), str(z), j)


def test_opposite_gram_is_the_transpose():
    # of a chamber pair, one Gram matrix is read as the other's transpose; it
    # must be the matrix that summing its own pairing terms gives, entry by
    # entry and in the same key order
    texts = ("0/1/2\\1\\2/1\\0", "0/1/2/3\\2\\1\\1\\0")
    for d in family() + [BraneDiagram.parse(t) for t in texts]:
        for z in (Permutation.identity(d.N), random_chamber(d.N, seed=1729 + d.N)):
            op = opposite_chamber(z)
            want = [(k, str(v)) for k, v in direct_gram(d, op).items()]
            assert [(k, str(v)) for k, v in gram_matrix(d, op).items()] == want, (d.format(), str(z))


def test_criterion_8_divisibility_and_congruence():
    for d in family():
        assert not check_divisibility(d), d.format()
        assert not check_congruence(d), d.format()
    report(8, "square divisibility and the first order congruence")


def test_criterion_9_transition_invariance():
    # multiplication matrices transport along every step of the separating
    # sequence
    for text in (NONSEP_DIAGRAM, "0\\1/1\\1/0"):
        d = BraneDiagram.parse(text)
        z = Permutation.identity(d.N)
        while not d.is_separated():
            assert not check_hw_matrix_transport(d, z), d.format()
            k = next(
                k
                for k in range(2, d.num_black)
                if d.colors[k - 2] == "\\" and d.colors[k - 1] == "/"
            )
            d, _, _ = hanany_witten(d, k)
    # stable multiplicities of flag fixed points are invariant under the
    # uniform shift of every t variable by -h
    fd = flag_diagram([1, 2], 3)
    shift = RingMap.h_shift(3, {1: -1, 2: -1, 3: -1})
    grid = stab_grid(fd, Permutation.identity(3))
    assert all(shift(v) == v for v in grid.values())
    report(9, "transition invariance of matrices and flag multiplicities")


def test_criterion_10_word_independence_and_uniqueness():
    rng = random.Random(2718)
    for _ in range(50):
        n = rng.choice([3, 4, 5])
        ol = list(range(1, n + 1))
        rng.shuffle(ol)
        w = Permutation(ol)
        rng.shuffle(ol)
        wp = Permutation(ol)
        a = stab_full_flag(n, w, wp, word=reduced_word(w))
        b = stab_full_flag(n, w, wp, word=reduced_word(w, rightmost=True))
        assert a == b
    # uniqueness of factorization through a fully separated permutation
    r, c = Composition((2, 2, 1)), Composition((1, 2, 2))
    w = W("14253")
    us = list(young_elements(c))
    vs = list(young_elements(r))
    pairs = set()
    for _ in range(100):
        u, v = rng.choice(us), rng.choice(vs)
        up, vp = rng.choice(us), rng.choice(vs)
        if (u, v) != (up, vp):
            assert u * w * v != up * w * vp
        else:
            assert u * w * v == up * w * vp
        pairs.add((u.one_line, v.one_line))
    assert len(pairs) > 4
    report(10, "word independence and unique coset factorization")
