import random
from itertools import permutations as iter_perms

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bowcalc.exactalg import MultiPoly, RingMap
from bowcalc.permcalc import (
    Composition,
    Permutation,
    ReducedWord,
    beta_poly,
    beta_sequence,
    bruhat_leq,
    coset_length,
    coset_matrix_Z,
    enumerate_coset,
    is_fully_separated,
    matching_F,
    matching_G,
    matrix_inversions,
    min_rep_double,
    min_rep_left,
    min_rep_right,
    reduced_word,
    shared_subword_sums,
    subword_sum,
    subword_sums,
    tilde_w,
    tilde_y,
    w_distinguished,
    young_elements,
    young_longest,
)
from test_localized_oracle import PROPERTY

W = Permutation.parse


def random_perm(rng, n):
    ol = list(range(1, n + 1))
    rng.shuffle(ol)
    return Permutation(ol)


def test_length_and_inversions():
    assert W("35412").length() == 7
    assert Permutation.identity(4).length() == 0
    rng = random.Random(0)
    for _ in range(30):
        w = random_perm(rng, 6)
        assert w.length() == w.inverse().length()


def test_compose_inverse():
    u, v = W("231"), W("312")
    assert u * v == Permutation.identity(3)
    assert u.inverse() == v


def test_reduced_word_roundtrip():
    w = W("35412")
    word = reduced_word(w)
    assert len(word) == 7
    assert Permutation.from_word(5, word) == w
    # a second strategy gives a second word for the same element
    word2 = reduced_word(w, rightmost=True)
    assert Permutation.from_word(5, word2) == w
    assert reduced_word(Permutation.identity(4)) == []


def test_beta_table_golden():
    # the table for the word s4 s2 s1 s3 s2 s4 s3
    word = [4, 2, 1, 3, 2, 4, 3]
    assert Permutation.from_word(5, word) == W("35412")
    assert beta_sequence(5, word) == [
        (4, 5), (2, 3), (1, 3), (2, 5), (1, 5), (2, 4), (1, 4),
    ]


def test_beta_single_letter_and_multiset_independence():
    assert beta_sequence(4, [2]) == [(2, 3)]
    rng = random.Random(4)
    for _ in range(20):
        w = random_perm(rng, 5)
        b1 = sorted(beta_sequence(5, reduced_word(w)))
        b2 = sorted(beta_sequence(5, reduced_word(w, rightmost=True)))
        assert b1 == b2
        # betas are exactly the positive roots sent negative by w^-1
        winv = w.inverse()
        expect = sorted(
            (a, b)
            for a in range(1, 6)
            for b in range(a + 1, 6)
            if winv(a) > winv(b)
        )
        assert b1 == expect


def test_beta_rejects_nonreduced():
    with pytest.raises(ValueError):
        beta_sequence(3, [1, 1])


def test_beta_concatenation_consistency():
    word = [4, 2, 1, 3, 2, 4, 3]
    betas = beta_sequence(5, word)
    prefix = Permutation.identity(5)
    for a, (x, y) in zip(word, betas):
        alpha = MultiPoly.linear(5, {a: 1, a + 1: -1})
        act = RingMap.renumber(5, 5, dict(enumerate(prefix.one_line, 1)))
        assert act(alpha) == MultiPoly.linear(5, {x: 1, y: -1})
        prefix = prefix * Permutation.simple(5, a)


def test_subword_sum_golden():
    word = [4, 2, 1, 3, 2, 4, 3]
    betas = beta_sequence(5, word)
    h = MultiPoly.h(5)
    bp = lambda k: beta_poly(5, betas[k - 1])
    val = subword_sum(word, 5, W("23415"))
    assert val == h ** 2 * (bp(1) * bp(6) + h ** 2) * bp(3) * bp(5) * bp(7)
    # the full subword is unique
    assert subword_sum(word, 5, W("35412")) == bp(1) * bp(2) * bp(3) * bp(4) * bp(5) * bp(6) * bp(7)
    # no subword at all
    assert subword_sum([1], 3, W("321")).is_zero()


def test_bruhat_order():
    assert bruhat_leq(W("23415"), W("35412"))
    assert bruhat_leq(W("35412"), W("35412"))
    assert not bruhat_leq(W("35412"), W("23415"))
    rng = random.Random(11)
    for _ in range(25):
        u, w = random_perm(rng, 5), random_perm(rng, 5)
        le, ge = bruhat_leq(u, w), bruhat_leq(w, u)
        if le and ge:
            assert u == w


def test_bruhat_order_is_the_subword_property_on_s4():
    # u <= w exactly when u is the product of one of the 2^l subwords of a
    # reduced word for w
    perms = [Permutation(ol) for ol in iter_perms(range(1, 5))]
    for w in perms:
        word = reduced_word(w)
        below = set()
        for mask in range(2 ** len(word)):
            sigma = Permutation.identity(4)
            for k, a in enumerate(word):
                if mask >> k & 1:
                    sigma = sigma * Permutation.simple(4, a)
            below.add(sigma)
        for u in perms:
            assert bruhat_leq(u, w) == (u in below), (str(u), str(w))


def test_products_and_inverses_equal_the_checked_construction():
    # __mul__ and inverse() build their results without the check that
    # Permutation(...) runs; on S4 they equal the checked construction
    perms = [Permutation(ol) for ol in iter_perms(range(1, 5))]
    for u in perms:
        inv = u.inverse()
        assert type(inv) is Permutation and inv == Permutation(inv.one_line)
        assert inv.n == 4 and inv.inverse() is u and (u * inv).length() == 0
        for w in perms:
            prod = u * w
            assert prod == Permutation(tuple(u(w(i)) for i in range(1, 5)))
            assert prod.n == 4 and prod.length() == len(prod.inversions())
    for value in (u * w, u.inverse()):
        with pytest.raises(AttributeError, match="Permutation is read-only"):
            value.one_line = (1, 2, 3, 4)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1, 3))


def test_min_reps():
    r = Composition((2, 2, 1))
    w = W("25143")
    assert min_rep_left(w, r) == W("25143")
    assert min_rep_left(W("52143"), r) == W("25143")
    # shortest in every coset, exhaustively on small cosets
    for base in iter_perms(range(1, 5)):
        wb = Permutation(base)
        rep = min_rep_left(wb, Composition((2, 2)))
        assert all(rep.length() <= (wb * v).length() for v in young_elements(Composition((2, 2))))
        rep_r = min_rep_right(wb, Composition((2, 2)))
        assert all(rep_r.length() <= (v * wb).length() for v in young_elements(Composition((2, 2))))


def test_coset_matrix_and_full_separation():
    r, c = Composition((2, 2, 1)), Composition((1, 2, 2))
    Z1 = coset_matrix_Z(W("14253"), r, c)
    Z2 = coset_matrix_Z(W("14235"), r, c)
    assert Z1 == ((1, 0, 1), (0, 1, 1), (0, 1, 0))
    assert Z2 == ((1, 0, 1), (0, 2, 0), (0, 0, 1))
    assert is_fully_separated(W("14253"), r, c)
    assert not is_fully_separated(W("14235"), r, c)
    # identity gives blockwise overlap counts
    Zid = coset_matrix_Z(Permutation.identity(5), r, c)
    assert Zid == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    # Z is constant on double cosets
    rng = random.Random(21)
    for _ in range(20):
        w = random_perm(rng, 5)
        u = rng.choice(list(young_elements(c)))
        v = rng.choice(list(young_elements(r)))
        assert coset_matrix_Z(u * w * v, r, c) == coset_matrix_Z(w, r, c)


def test_tilde_w_golden():
    r, c = Composition((3, 2, 2, 3)), Composition((2, 3, 2, 1, 2))
    A = ((1, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 1, 0, 0, 0), (0, 1, 1, 1, 0))
    wA = tilde_w(A, r, c)
    assert wA.one_line == (1, 3, 9, 6, 10, 2, 4, 5, 7, 8)
    assert coset_matrix_Z(wA, r, c) == A
    assert wA.length() == matrix_inversions(A) == 15
    # 3x3 goldens
    r2, c2 = Composition((2, 2, 1)), Composition((1, 2, 2))
    assert tilde_w(((1, 0, 1), (0, 1, 1), (0, 1, 0)), r2, c2) == W("14253")
    assert tilde_w(((1, 0, 1), (0, 2, 0), (0, 0, 1)), r2, c2) == W("14235")


def test_min_rep_double():
    r, c = Composition((2, 2, 1)), Composition((1, 2, 2))
    w = W("14253")
    for u in young_elements(c):
        for v in young_elements(r):
            assert min_rep_double(u * w * v, c, r) == w


def test_matching_functions():
    r, c = Composition((3, 2, 2, 3)), Composition((2, 3, 2, 1, 2))
    A = ((1, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 1, 0, 0, 0), (0, 1, 1, 1, 0))
    wA = tilde_w(A, r, c)
    assert matching_F(wA, c) == (1, 2, 5, 3, 5, 1, 2, 2, 3, 4)
    rng = random.Random(31)
    for _ in range(10):
        u = rng.choice(list(young_elements(c)))
        v = rng.choice(list(young_elements(r)))
        assert matching_F(u * wA, c) == matching_F(wA, c)
        assert matching_G(wA * v, r) == matching_G(wA, r)


def test_uniqueness_of_decomposition():
    # fully separated permutations admit a unique (u, w, v) factorization
    rng = random.Random(42)
    r, c = Composition((2, 2, 1)), Composition((1, 2, 2))
    w = W("14253")
    us = list(young_elements(c))
    vs = list(young_elements(r))
    for _ in range(100):
        u, up = rng.choice(us), rng.choice(us)
        v, vp = rng.choice(vs), rng.choice(vs)
        if u * w * v == up * w * vp:
            assert u == up and v == vp


def test_w_distinguished():
    r, c = Composition((2, 2, 1)), Composition((2, 1, 2))
    A = ((1, 0, 1), (1, 0, 1), (0, 1, 0))
    assert tilde_w(A, r, c) == W("14253")
    assert w_distinguished(A, r, c) == W("25143")
    # all-ones column margins leave the representative unchanged
    ones = Composition((1, 1, 1, 1, 1))
    A5 = coset_matrix_Z(W("25143"), r, ones)
    assert w_distinguished(A5, r, ones) == tilde_w(A5, r, ones)
    # shortest left coset representative property
    wd = w_distinguished(A, r, c)
    assert min_rep_left(wd, r) == wd


def test_young_longest():
    c = Composition((2, 1, 2))
    assert young_longest(c).one_line == (2, 1, 3, 5, 4)


def test_tilde_y_golden():
    r, c = Composition((3, 2, 2, 3)), Composition((2, 3, 2, 1, 2))
    A_moved = ((1, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 1, 0, 0, 0), (0, 1, 1, 1, 0))
    ty = tilde_y(A_moved, r, c, (2, 3, 1, 5))
    assert ty.one_line == (1, 3, 9, 6, 2, 10, 4, 5, 7, 8)
    # resolving the crossing drops the length by one
    assert ty.length() == tilde_w(A_moved, r, c).length() - 1


def test_enumerate_coset():
    w = W("25143")
    ones = Composition((1, 1, 1, 1, 1))
    assert list(enumerate_coset(w, ones)) == [w]
    delta = Composition((2, 2, 1))
    coset = list(enumerate_coset(w, delta))
    assert len(coset) == len(set(coset)) == 4
    # exactly one coset element dominates 52314
    wp = W("52314")
    dominating = [z for z in coset if bruhat_leq(wp, z)]
    assert dominating == [W("52413")]


def test_coset_length():
    assert coset_length(W("52314"), Composition((2, 2, 1))) == 4


def test_positive_root_partition():
    # roots missing from the beta multiset complement the inversions
    rng = random.Random(8)
    for _ in range(15):
        w = random_perm(rng, 6)
        betas = set(beta_sequence(6, reduced_word(w)))
        n_pos = 15
        assert len(betas) + (n_pos - len(betas)) == n_pos
        assert len(betas) == w.length()


def test_reduced_word_class():
    rw = ReducedWord.of(W("35412"))
    assert len(rw) == 7
    assert rw.permutation() == W("35412")
    assert len(rw.betas) == 7


# -- pruning soundness of the subword DP -----------------------------------


def brute_subword_sums(word, n, targets):
    """The subword sums over all 2^l subwords, without pruning."""
    betas = beta_sequence(n, word)
    h = MultiPoly.h(n)
    out = {t: MultiPoly.zero(n) for t in targets}
    for mask in range(1 << len(word)):
        sigma, term = Permutation.identity(n), MultiPoly.one(n)
        for k, (a, beta) in enumerate(zip(word, betas)):
            if mask >> k & 1:
                sigma, term = sigma * Permutation.simple(n, a), term * beta_poly(n, beta)
            else:
                term = term * h
        if sigma in out:
            out[sigma] = out[sigma] + term
    return out


@st.composite
def words_and_targets(draw):
    n = draw(st.integers(1, 4))
    perms = st.permutations(range(1, n + 1)).map(Permutation)
    words = [
        reduced_word(w, rightmost=draw(st.booleans()))
        for w in draw(st.lists(perms, min_size=1, max_size=4))
    ]
    targets = draw(st.lists(perms, min_size=1, max_size=5, unique=True))
    return n, words, targets


@PROPERTY
@given(words_and_targets())
def test_pruned_subword_sums_equal_brute_force(inputs):
    n, words, targets = inputs
    for word in words:
        assert subword_sums(word, n, targets) == brute_subword_sums(word, n, targets)
        assert subword_sums(word, n, []) == {}


@st.composite
def word_lists_and_targets(draw):
    """Reduced words in S_n, n <= 4, with shared prefixes: each word is a
    drawn word's prefix followed by a reduced word that extends it.  The
    list also holds a repeated word, a word that is a prefix of another and
    the empty word, in a drawn order; the target list may be empty."""
    n = draw(st.integers(1, 4))
    perms = [Permutation(p) for p in iter_perms(range(1, n + 1))]
    base = reduced_word(draw(st.sampled_from(perms)), rightmost=draw(st.booleans()))
    words = [base, list(base), base[: draw(st.integers(0, len(base)))], []]
    for _ in range(draw(st.integers(1, 4))):
        head = base[: draw(st.integers(0, len(base)))]
        p = Permutation.from_word(n, head)
        tails = [u for u in perms if (p * u).length() == len(head) + u.length()]
        words.append(head + reduced_word(draw(st.sampled_from(tails)), rightmost=draw(st.booleans())))
    words = draw(st.permutations(words))
    targets = draw(st.lists(st.sampled_from(perms), max_size=5, unique=True))
    return n, words, targets


@PROPERTY
@given(word_lists_and_targets())
def test_shared_subword_sums_equal_brute_force_word_by_word(inputs):
    n, words, targets = inputs
    seen = []
    for index, sums in shared_subword_sums(words, n, targets):
        assert sums == brute_subword_sums(words[index], n, targets)
        # a word comes before every word it is a proper prefix of
        assert not any(words[k][: len(words[index])] == words[index] != words[k] for k in seen)
        seen.append(index)
    assert sorted(seen) == list(range(len(words)))


@PROPERTY
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda p: sum(p) <= 5), st.data())
def test_coset_words_give_the_sums_of_the_canonical_words(parts, data):
    # the grid's coset sums read each w0 u off reduced_word(w0) +
    # reduced_word(u), with w0 the shortest element of the coset: a reduced
    # word of w0 u, so its subword sums are those of reduced_word(w0 u)
    delta = Composition(parts)
    n = delta.total
    perms = st.permutations(range(1, n + 1))
    w0 = min_rep_left(Permutation(data.draw(perms)), delta)
    targets = [Permutation(p) for p in data.draw(st.lists(perms, max_size=4, unique_by=tuple))]
    young = list(young_elements(delta))
    words = [reduced_word(w0) + reduced_word(u) for u in young]
    for index, sums in shared_subword_sums(words, n, targets):
        z = w0 * young[index]
        assert Permutation.from_word(n, words[index]) == z
        assert len(words[index]) == z.length()
        assert sums == subword_sums(reduced_word(z), n, targets)
