import itertools
import random
from fractions import Fraction

from bowcalc import chevalley
from bowcalc.chevalley import (
    CMMatrix,
    _diagonal_quotient,
    _lift,
    _orthogonal,
    _pairing_terms,
    _tangent_factors,
    check_congruence,
    check_divisibility,
    check_hw_matrix_transport,
    check_orthogonality,
    cm_matrix,
    cm_matrix_oracle,
    gram_matrix,
    normalized_cm,
    verify,
    virtual_pairing,
)
from bowcalc.diagrams import BraneDiagram, TieDiagram, enumerate_ties, flag_diagram
from bowcalc.exactalg import LocalizedScalar, MultiPoly, NonPolynomialError, NotDivisibleError
from bowcalc.permcalc import Permutation
from bowcalc.stabloc import _chern_table, expand_grid, factored_grid, opposite_chamber, stab_grid
from pairing_route import cm_matrix_pairing, direct_gram

W = Permutation.parse

RES_DIAGRAM = "0/1/3/5\\3\\2\\0"


def test_orthogonality_small():
    d = BraneDiagram.parse(RES_DIAGRAM)
    for z in (Permutation.identity(3), Permutation.longest(3), W("231")):
        assert not check_orthogonality(d, z)


def test_pairing_bilinearity():
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid = Permutation.identity(3)
    pts = enumerate_ties(d)
    grid = stab_grid(d, zid)
    grid_op = stab_grid(d, opposite_chamber(zid))
    a1 = {T.key(): grid[(T.key(), pts[0].key())] for T in pts}
    a2 = {T.key(): grid[(T.key(), pts[1].key())] for T in pts}
    b = {T.key(): grid_op[(T.key(), pts[2].key())] for T in pts}
    combo = {k: 3 * a1[k] + a2[k] * MultiPoly.t(1, 3) for k in a1}
    lhs = virtual_pairing(d, zid, combo, b)
    rhs = (
        virtual_pairing(d, zid, a1, b) * 3
        + virtual_pairing(d, zid, a2, b) * MultiPoly.t(1, 3)
    )
    assert lhs == rhs


def test_pairing_summands_match_product_then_reduce():
    # every summand, in T order, against reducing the whole product a*b
    d = BraneDiagram.parse("0/1/2/4\\3\\2\\1\\0")
    keys = [D.key() for D in enumerate_ties(d)]
    shuffled = list(range(1, d.N + 1))
    random.Random(4).shuffle(shuffled)  # the chamber 3142
    for z in (Permutation.identity(d.N), Permutation(shuffled)):
        grid = stab_grid(d, z)
        grid_op = stab_grid(d, opposite_chamber(z))
        tangent = _tangent_factors(d, z)
        terms = _pairing_terms(d, z)
        quotient = _diagonal_quotient(d.N)
        for dk in keys:
            for dpk in keys:
                want = []
                for tk in keys:
                    a, b = grid[(tk, dk)], grid_op[(tk, dpk)]
                    if a.is_zero() or b.is_zero():
                        continue
                    const, _, forms = tangent[tk]
                    want.append((tk, str(LocalizedScalar(a * b * (Fraction(1) / const), forms))))
                # the summands live modulo the diagonal torus: each lifts
                # back to the full-ring product, reduced
                assert [(tk, str(_lift(s, quotient))) for tk, s in terms[(dk, dpk)]] == want


def test_tangent_factors_do_not_depend_on_the_chamber():
    # e(T_T) = Stab_z(T)|_T * Stab_-z(T)|_T is the same in every chamber and
    # factors uniquely, so _tangent_factors is memoized per diagram alone
    for text in (RES_DIAGRAM, "0/1/3\\2/3\\2\\0"):
        d = BraneDiagram.parse(text)
        chambers = [Permutation(list(ol)) for ol in itertools.permutations(range(1, d.N + 1))]
        assert chambers[0] == Permutation.identity(d.N)
        want = _tangent_factors.__wrapped__(d, chambers[0])
        for z in chambers[1:]:
            assert _tangent_factors.__wrapped__(d, z) == want
        shared = _tangent_factors(d, chambers[-1])
        assert dict(shared) == want
        assert all(_tangent_factors(d, z) is shared for z in chambers)


def test_cm_column_golden():
    d = BraneDiagram.parse("0/1/3/4/5\\4\\3\\1\\0")
    D = TieDiagram(
        d,
        [
            (("V", 4), ("U", 3)),
            (("V", 3), ("U", 2)),
            (("V", 3), ("U", 4)),
            (("V", 2), ("U", 1)),
            (("V", 1), ("U", 3)),
        ],
    )
    C = cm_matrix(d, Permutation.identity(4), 3)
    t2, t3, t4 = (MultiPoly.t(i, 4) for i in (2, 3, 4))
    h = MultiPoly.h(4)
    diag = C.entry(D.key(), D.key())
    assert diag == t2 + t3 + t4 - 6 * h
    assert (diag - (t2 + t3 + t4)).h_valuation() >= 1
    column = {
        row: val for (row, col), val in C.entries.items() if col == D.key() and row != D.key()
    }
    assert len(column) == 4
    assert sorted(str(v) for v in column.values()) == ["-h", "h", "h", "h"]


def test_cm_equals_oracle_small():
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid = Permutation.identity(3)
    for j in range(1, d.num_black + 1):
        assert cm_matrix(d, zid, j) == cm_matrix_oracle(d, zid, j)


def test_cm_diagonal_is_the_shared_chern_table():
    # the formula and the oracle read one memoized Chern restriction per
    # fixed point; a zero restriction leaves no diagonal entry
    d = BraneDiagram.parse(RES_DIAGRAM)
    for z in (Permutation.identity(3), W("231")):
        for j in range(1, d.num_black + 1):
            C = cm_matrix(d, z, j)
            chern = _chern_table(d, j)
            assert list(chern) == list(C.basis)
            for k in C.basis:
                if chern[k].is_zero():
                    assert (k, k) not in C.entries
                else:
                    assert C.entry(k, k) is chern[k]


def test_rank_zero_bundles_give_zero_matrix():
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid = Permutation.identity(3)
    C = cm_matrix(d, zid, 1)
    assert not C.entries
    C_last = cm_matrix(d, zid, d.num_black)
    assert not C_last.entries


def test_constant_bundles_are_diagonal():
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid = Permutation.identity(3)
    for j in range(d.M + 1, d.num_black + 1):
        C = cm_matrix(d, zid, j)
        assert all(r == c for (r, c) in C.entries)


def test_cm_matrices_commute():
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid = Permutation.identity(3)
    A = cm_matrix_oracle(d, zid, 2)
    B = cm_matrix_oracle(d, zid, 3)
    assert A.compose(B) == B.compose(A)


def test_off_diagonal_vanishes_at_h_zero():
    d = BraneDiagram.parse(RES_DIAGRAM)
    C = cm_matrix_oracle(d, Permutation.identity(3), 3)
    for (r, c), v in C.entries.items():
        if r != c:
            assert v.h_valuation() >= 1


def test_divisibility_and_congruence_small():
    d = BraneDiagram.parse(RES_DIAGRAM)
    assert not check_divisibility(d)
    assert not check_congruence(d)


def test_normalized_cm():
    # with unit column margins the sign conjugation makes every off-diagonal -h
    fd = flag_diagram([1, 2], 3)
    h = MultiPoly.h(3)
    for j in range(1, 4):
        C = normalized_cm(fd, j)
        for (r, c), v in C.entries.items():
            if r != c:
                assert v == -h
    # diagonal unchanged, double conjugation is the identity
    d = BraneDiagram.parse(RES_DIAGRAM)
    base = cm_matrix(d, Permutation.identity(3), 2)
    conj = normalized_cm(d, 2)
    for key in conj.basis:
        assert conj.entry(key, key) == base.entry(key, key)
    for (r, c), v in conj.entries.items():
        if r != c:
            assert v == h or v == -h


def test_hw_matrix_transport():
    dns = BraneDiagram.parse("0/1/3\\2/3\\2\\0")
    assert not check_hw_matrix_transport(dns, Permutation.identity(3))
    assert not check_hw_matrix_transport(dns, W("312"))


def test_verify_passes_and_detects_corruption():
    fd = flag_diagram([1, 2], 3)
    report = verify(fd, seed=5)
    assert report["ok"]
    assert all(entry["ok"] for name, entry in report.items() if isinstance(entry, dict))

    # negative control: a flipped off-diagonal sign breaks the oracle match
    zid = Permutation.identity(3)
    good = cm_matrix(fd, zid, 2)
    oracle = cm_matrix_oracle(fd, zid, 2)
    assert good == oracle
    off = next(k for k in good.entries if k[0] != k[1])
    corrupted = dict(good.entries)
    corrupted[off] = -corrupted[off]
    bad = CMMatrix(fd, zid, 2, good.basis, corrupted)
    assert not bad == oracle


def test_gram_is_identity_on_tiny_diagram():
    d = BraneDiagram.parse("0\\1/1\\1/0")
    # fully non-separated two-point variety
    for z in (Permutation.identity(2), Permutation.longest(2)):
        gram = gram_matrix(d, z)
        for (a, b), v in gram.items():
            assert v == (1 if a == b else 0)


def test_gram_entries_equal_virtual_pairings():
    # verify (through the Gram matrix) and `bowcalc pair` (through
    # virtual_pairing) divide the tangent classes the same way
    for text in (RES_DIAGRAM, "0/1/3\\2/3\\2\\0"):
        d = BraneDiagram.parse(text)
        pts = enumerate_ties(d)
        for z in (Permutation.identity(3), W("231")):
            grid = stab_grid(d, z)
            grid_op = stab_grid(d, opposite_chamber(z))
            gram = gram_matrix(d, z)
            for Da in pts:
                for Db in pts:
                    vec_a = {T.key(): grid[(T.key(), Da.key())] for T in pts}
                    vec_b = {T.key(): grid_op[(T.key(), Db.key())] for T in pts}
                    value = virtual_pairing(d, z, vec_a, vec_b)
                    assert value == gram[(Da.key(), Db.key())]
                    assert str(value) == str(gram[(Da.key(), Db.key())])


def test_opposite_failures_keep_the_direct_order(monkeypatch):
    # with a corrupted identity grid, w0's Gram matrix, read as the transpose
    # of the identity's, reports the failures that summing w0's own pairing
    # terms reports, in the same order; the Gram matrix is built past its memo
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid, w0 = Permutation.identity(3), Permutation.longest(3)
    rows, grid = factored_grid(d, zid)
    # every nonzero off-diagonal entry flipped: failures in several rows and
    # columns, so that an order other than the direct one shows
    corrupted = (rows, {k: v if k[0] == k[1] else -v for k, v in grid.items()})
    monkeypatch.setattr(
        chevalley,
        "factored_grid",
        lambda diagram, z, normalized=False: corrupted
        if (diagram.key(), z) == (d.key(), zid)
        else factored_grid(diagram, z, normalized),
    )
    monkeypatch.setattr(chevalley, "gram_matrix", gram_matrix.__wrapped__)
    want = [
        {"row": a, "col": b, "value": str(total)}
        for (a, b), total in direct_gram(d, w0).items()
        if not total == (1 if a == b else 0)
    ]
    assert len({f["row"] for f in want}) > 1 and len({f["col"] for f in want}) > 1
    assert check_orthogonality(d, w0) == want


def test_corrupted_gram_fails_modulo_the_torus_with_full_ring_payloads(monkeypatch):
    # every off-diagonal entry flipped is still translation invariant, so the
    # Gram matrix summed modulo the diagonal torus is not the identity, and
    # each failure carries the bytes of the same pairing summed in the full
    # ring (virtual_pairing); the Gram matrix is built past its memo.  On
    # this diagram some of the summands that share a denominator add up to
    # a numerator that one of those forms divides
    d = BraneDiagram.parse("0/1/2/4\\3\\2\\1\\0")
    zid = Permutation.identity(d.N)
    rows, cofactors = factored_grid(d, zid)
    grid_op = stab_grid(d, opposite_chamber(zid))
    bad = (rows, {k: v if k[0] == k[1] else -v for k, v in cofactors.items()})
    corrupted = expand_grid(bad)
    assert corrupted == {k: v if k[0] == k[1] else -v for k, v in stab_grid(d, zid).items()}
    monkeypatch.setattr(
        chevalley,
        "factored_grid",
        lambda diagram, z, normalized=False: bad
        if (diagram.key(), z) == (d.key(), zid)
        else factored_grid(diagram, z, normalized),
    )
    monkeypatch.setattr(chevalley, "gram_matrix", gram_matrix.__wrapped__)
    keys = [D.key() for D in enumerate_ties(d)]
    want = []
    for a in keys:
        for b in keys:
            vec_a = {tk: corrupted[(tk, a)] for tk in keys}
            vec_b = {tk: grid_op[(tk, b)] for tk in keys}
            total = virtual_pairing(d, zid, vec_a, vec_b)
            assert total.window == d.N
            if not total == (1 if a == b else 0):
                want.append({"row": a, "col": b, "value": str(total)})
    assert len(want) > 1
    assert check_orthogonality(d, zid) == want


def test_corruption_that_the_torus_quotient_hides_still_fails_verify(monkeypatch):
    # a t_N-only term added to one grid entry vanishes under t_N -> 0, so the
    # pairing cannot see it; the oracle reads the full grid and rejects it
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid = Permutation.identity(3)
    rows, grid = factored_grid(d, zid)
    off = min(k for k, v in grid.items() if k[0] != k[1] and not v.is_zero())
    corrupted = {**grid, off: grid[off] + MultiPoly.t(d.N, d.N) ** grid[off].degree()}
    phi = _diagonal_quotient(d.N)[0]
    assert phi(corrupted[off]) == phi(grid[off])
    monkeypatch.setattr(
        chevalley,
        "factored_grid",
        lambda diagram, z, normalized=False: (rows, corrupted)
        if (diagram.key(), z) == (d.key(), zid)
        else factored_grid(diagram, z, normalized),
    )
    for name in ("gram_matrix", "cm_matrix_oracle", "_solve_plan"):
        monkeypatch.setattr(chevalley, name, getattr(chevalley, name).__wrapped__)
    assert check_orthogonality(d, zid) == []
    for j in (2, 3):  # the bundles whose Chern classes vary over the fixed points
        assert _rejects(lambda: cm_matrix_oracle.__wrapped__(d, zid, j), cm_matrix(d, zid, j))
    try:
        report = verify(d)
    except NotDivisibleError:  # the oracle's exact division refuses the grid
        return
    assert not report["chevalley_monk"]["ok"] and not report["ok"]


def _rejects(route, formula):
    try:
        return not route() == formula
    except (NotDivisibleError, NonPolynomialError):
        return True


def test_both_oracle_routes_reject_corruption(monkeypatch):
    d = BraneDiagram.parse(RES_DIAGRAM)
    zid = Permutation.identity(3)
    rows, grid = factored_grid(d, zid)
    off = min(k for k, v in grid.items() if k[0] != k[1] and not v.is_zero())
    corrupted = dict(grid)
    corrupted[off] = -grid[off]
    good_terms = _pairing_terms(d, zid)
    for j in (2, 3):  # the bundles whose Chern classes vary over the fixed points
        good = cm_matrix(d, zid, j)
        assert cm_matrix_oracle(d, zid, j) == good == cm_matrix_pairing(d, zid, j, good_terms)
        # a flipped off-diagonal entry of the formula matrix
        entry = min(k for k in good.entries if k[0] != k[1])
        bad = CMMatrix(d, zid, j, good.basis, {**good.entries, entry: -good.entries[entry]})
        assert not bad == cm_matrix_oracle(d, zid, j)
        assert not bad == cm_matrix_pairing(d, zid, j, good_terms)
        # a flipped off-diagonal grid entry; the memoized grid is read-only,
        # so both routes read a corrupted copy, the oracle past its memo and
        # its solve plan's
        with monkeypatch.context() as m:
            m.setattr(
                chevalley,
                "factored_grid",
                lambda diagram, z, normalized=False: (rows, corrupted)
                if (diagram.key(), z) == (d.key(), zid)
                else factored_grid(diagram, z, normalized),
            )
            m.setattr(chevalley, "_solve_plan", chevalley._solve_plan.__wrapped__)
            terms = _pairing_terms(d, zid)
            assert _rejects(lambda: cm_matrix_oracle.__wrapped__(d, zid, j), good)
            assert _rejects(lambda: cm_matrix_pairing(d, zid, j, terms), good)


def _gram_is_identity(d, z):
    try:
        gram = gram_matrix.__wrapped__(d, z)
    except (NotDivisibleError, NonPolynomialError):
        return False
    return all(v == (1 if a == b else 0) for (a, b), v in gram.items())


def _identity_holds(d, z):
    try:
        return _orthogonal(d, z)
    except (NotDivisibleError, NonPolynomialError):
        return False


def test_division_free_identity_agrees_with_the_gram_matrix_under_corruption(monkeypatch):
    # one cofactor grid corrupted at a time, in either chamber of the pair:
    # the identity fails exactly when the Gram matrix, summed past its memo,
    # is not the identity.  The tangent classes are read either from the
    # corrupted grids or from the true ones, through the memo.  Read from the
    # corrupted grids, a diagonal cofactor scaled at a point with nothing
    # below it in the other chamber's order is visible to neither, so every
    # diagonal is negated and both verdicts occur
    corruptions = {
        "off-diagonal negated": lambda k, v: -v if k[0] != k[1] else None,
        "cofactor doubled": lambda k, v: 2 * v,
        "diagonal negated": lambda k, v: -v if k[0] == k[1] else None,
        "h^deg added": lambda k, v: v + MultiPoly.h(v.window) ** v.degree(),
    }
    rng = random.Random(32)
    verdicts = []
    for text in (RES_DIAGRAM, "0/1/2/4\\3\\2\\1\\0"):
        d = BraneDiagram.parse(text)
        z = Permutation.identity(d.N)
        _tangent_factors(d, z)  # the true tangent classes, in the memo
        bypassed = (("gram_matrix",), ("gram_matrix", "_tangent_factors"))
        for chamber, memoized in itertools.product((z, opposite_chamber(z)), bypassed):
            rows, cofactors = factored_grid(d, chamber)
            nonzero = sorted(k for k, v in cofactors.items() if not v.is_zero())
            for kind, corrupt in corruptions.items():
                picked = [k for k in nonzero if corrupt(k, cofactors[k]) is not None]
                if kind != "diagonal negated":
                    picked = rng.sample(picked, 2)
                for k in picked:
                    bad = (rows, {**cofactors, k: corrupt(k, cofactors[k])})
                    with monkeypatch.context() as m:
                        m.setattr(
                            chevalley,
                            "factored_grid",
                            lambda diagram, c, normalized=False, bad=bad, chamber=chamber, d=d: bad
                            if (diagram.key(), c) == (d.key(), chamber)
                            else factored_grid(diagram, c, normalized),
                        )
                        for name in memoized:
                            m.setattr(chevalley, name, getattr(chevalley, name).__wrapped__)
                        identity = _identity_holds(d, z)
                        assert identity == _gram_is_identity(d, z), (text, str(chamber), memoized, kind, k)
                    verdicts.append(identity)
    assert not all(verdicts) and any(verdicts)
    # the memoized tables were not touched: the true grids still pass
    assert _orthogonal(d, z)
    # a t_N-only term vanishes under t_N -> 0: both routes pass it, and only
    # the oracle, which reads the full grid, rejects it
    # (test_corruption_that_the_torus_quotient_hides_still_fails_verify)
    d = BraneDiagram.parse(RES_DIAGRAM)
    z = Permutation.identity(d.N)
    rows, cofactors = factored_grid(d, z)
    off = min(k for k, v in cofactors.items() if k[0] != k[1] and not v.is_zero())
    hidden = (rows, {**cofactors, off: cofactors[off] + MultiPoly.t(d.N, d.N) ** cofactors[off].degree()})
    monkeypatch.setattr(
        chevalley,
        "factored_grid",
        lambda diagram, c, normalized=False: hidden
        if (diagram.key(), c) == (d.key(), z)
        else factored_grid(diagram, c, normalized),
    )
    monkeypatch.setattr(chevalley, "gram_matrix", gram_matrix.__wrapped__)
    assert _orthogonal(d, z) and _gram_is_identity(d, z)
