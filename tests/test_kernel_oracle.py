"""The MultiPoly kernel against sympy's polynomial rings over QQ.

Random polynomials in windows 1-6 with exponents up to 12 go through the
ring operations, exact division, the term order, the queries and the ring
maps, and every result is compared with sympy's ``ring(..., QQ, grlex)``.
sympy's grlex order (total degree first, then lexicographic with t1 most
significant and h least) is the order ``str()`` and ``leading()`` promise.
sympy is used only in tests.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.orderings import grlex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from bowcalc.exactalg import (
    DEGREE_LIMIT,
    MultiPoly,
    NotDivisibleError,
    RingMap,
    WindowMismatchError,
    sum_of_products,
)
from bowcalc.permcalc import Permutation
from test_localized_oracle import PROPERTY

WINDOWS = range(1, 7)
MAX_EXP = 12
COEFS = st.sampled_from([c for c in range(-5, 6) if c] + [Fraction(n, d) for n in (-3, -1, 1, 5) for d in (2, 3, 4)])
WINDOW = st.sampled_from(WINDOWS)
BOOLS = st.booleans()


def names(window, prefix="t"):
    return ["%s%d" % (prefix, i + 1) for i in range(window)] + ["h"]


@functools.cache
def sympy_ring(window):
    return ring(names(window), QQ, grlex)[0]


def to_sympy(p, R=None):
    R = R or sympy_ring(p.window)
    return R.from_dict({m: QQ(c.numerator, c.denominator) for m, c in p.terms.items()})


def poly_strategy(window, max_exp, max_size, min_size=0):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * (window + 1)), COEFS, min_size=min_size, max_size=max_size
    ).map(lambda d: MultiPoly(window, d))


# strategies are built once: hypothesis validates each new strategy object
POLYS = {w: poly_strategy(w, MAX_EXP, 5) for w in WINDOWS}
SMALL = {w: poly_strategy(w, 3, 3) for w in WINDOWS}
DIVISORS = {w: poly_strategy(w, 3, 3, min_size=1) for w in WINDOWS}
MONOMIALS = {w: poly_strategy(w, 3, 1, min_size=1) for w in WINDOWS}
# degree <= 1: each term is a constant, one t variable or h
LINEAR = {
    w: st.dictionaries(
        st.integers(0, w + 1).map(lambda k, w=w: tuple(int(i + 1 == k) for i in range(w + 1))),
        COEFS, max_size=w + 2,
    ).map(lambda d, w=w: MultiPoly(w, d))
    for w in WINDOWS
}
# degree exactly 1 with at least two terms: the synthetic-division path
FORMS = {w: LINEAR[w].filter(lambda q: q.degree() == 1 and len(q.terms) > 1) for w in WINDOWS}
PERMUTATIONS = {w: st.permutations(range(1, w + 1)).map(Permutation) for w in WINDOWS}


@st.composite
def poly_pairs(draw):
    window = draw(WINDOW)
    return draw(POLYS[window]), draw(POLYS[window])


@PROPERTY
@given(poly_pairs())
def test_ring_operations_match_sympy(pair):
    a, b = pair
    A, B = to_sympy(a), to_sympy(b)
    assert to_sympy(a * b) == A * B
    assert to_sympy(a + b) == A + B
    assert to_sympy(a - b) == A - B
    assert to_sympy(-a) == -A
    assert (a == b) == (A == B)


@st.composite
def product_lists(draw):
    """(window, pairs): 0-5 pairs of one window.  A pair may have a zero
    factor, or be followed by (q, -p), whose product cancels its own."""
    window = draw(WINDOW)
    zero = MultiPoly.zero(window)
    size = draw(st.integers(0, 5))
    pairs = []
    while len(pairs) < size:
        p, q = draw(POLYS[window]), draw(SMALL[window])
        kind = draw(st.sampled_from(("plain", "zero left", "zero right", "cancel")))
        if kind == "zero left":
            p = zero
        elif kind == "zero right":
            q = zero
        pairs.append((p, q))
        if kind == "cancel" and len(pairs) < size:
            pairs.append((q, -p))
    return window, pairs


@PROPERTY
@given(product_lists())
def test_sum_of_products_matches_sympy(inputs):
    window, pairs = inputs
    want = sum((to_sympy(p) * to_sympy(q) for p, q in pairs), sympy_ring(window).zero)
    got = sum_of_products(iter(pairs), window)
    assert got.window == window
    assert to_sympy(got) == want
    assert all(got.terms.values())
    assert got.is_zero() == (not want)


@PROPERTY
@given(product_lists(), st.integers(0, 5), BOOLS)
def test_sum_of_products_refuses_mixed_windows(inputs, at, left):
    window, pairs = inputs
    other = window % 6 + 1  # another window of WINDOWS
    stranger = (MultiPoly.one(other), MultiPoly.h(window))
    if left:
        stranger = stranger[::-1]
    with pytest.raises(WindowMismatchError):
        stranger[0] * stranger[1]
    with pytest.raises(WindowMismatchError):
        sum_of_products(pairs[:at] + [stranger] + pairs[at:], window)
    if pairs:
        with pytest.raises(WindowMismatchError):
            sum_of_products(pairs, other)


@PROPERTY
@given(product_lists(), st.integers(0, 5), BOOLS)
def test_sum_of_products_overflows_where_mul_does(inputs, at, left):
    window, pairs = inputs
    q = pairs[0][1] if pairs and pairs[0][1].degree() > 0 else MultiPoly.h(window)

    def inserted(degree):
        """A pair of q and a power of t1 whose product has total degree
        ``degree``, and the pairs with it inserted at ``at``."""
        top = MultiPoly(window, {(degree - q.degree(),) + (0,) * window: 3})
        pair = (top, q) if left else (q, top)
        return pair, pairs[:at] + [pair] + pairs[at:]

    pair, with_pair = inserted(DEGREE_LIMIT)
    with pytest.raises(OverflowError):
        pair[0] * pair[1]
    with pytest.raises(OverflowError):
        sum_of_products(with_pair, window)
    pair, with_pair = inserted(DEGREE_LIMIT - 1)
    assert sum_of_products(with_pair, window) == sum_of_products(pairs, window) + pair[0] * pair[1]
    # a zero factor adds nothing and raises nothing, however large the other
    zero = MultiPoly.zero(window)
    big = MultiPoly(window, {(DEGREE_LIMIT - 1,) + (0,) * window: 1})
    assert (big * zero).is_zero() and (zero * big).is_zero()
    padded = pairs[:at] + [(big, zero), (zero, big)] + pairs[at:]
    assert sum_of_products(padded, window) == sum_of_products(pairs, window)


@st.composite
def division_inputs(draw):
    """(dividend, divisor): an exact multiple half of the time; the divisor
    is a single term (the key-shift path) a quarter of the time and of
    degree exactly 1 (the synthetic-division path) another quarter."""
    window = draw(WINDOW)
    q = draw(draw(st.sampled_from((DIVISORS, DIVISORS, MONOMIALS, FORMS)))[window])
    if draw(BOOLS):
        return draw(SMALL[window]) * q, q
    return draw(POLYS[window]), q


@PROPERTY
@given(division_inputs())
def test_exact_div_matches_exquo(inputs):
    p, q = inputs
    P, Q = to_sympy(p), to_sympy(q)
    try:
        want = P.exquo(Q)
    except ExactQuotientFailed:
        with pytest.raises(NotDivisibleError):
            p.exact_div(q)
    else:
        got = p.exact_div(q)
        assert to_sympy(got) == want
        assert got * q == p


def grlex_key(mono):
    return sum(mono), mono


def passes_the_screen(p, q):
    """Whether q's leading and lowest terms divide p's, the test that
    exact_div makes before it divides."""
    return all(
        all(a <= b for a, b in zip(pick(q.terms, key=grlex_key), pick(p.terms, key=grlex_key)))
        for pick in (max, min)
    )


@st.composite
def screened_linear_inputs(draw):
    """q*s + m for a form q of degree 1 and a monomial m, which q cannot
    divide, so the sum is not divisible; kept when it passes the screen."""
    window = draw(WINDOW)
    q = draw(FORMS[window])
    p = q * draw(SMALL[window]) + draw(MONOMIALS[window])
    assume(p and passes_the_screen(p, q))
    return p, q


@PROPERTY
@given(screened_linear_inputs())
def test_linear_division_past_the_screen_matches_exquo(inputs):
    p, q = inputs
    with pytest.raises(ExactQuotientFailed):
        to_sympy(p).exquo(to_sympy(q))
    with pytest.raises(NotDivisibleError):
        p.exact_div(q)


# (dividend factor s, divisor q, extra term m): every q has degree 1
LINEAR_CASES = [
    # led by h: only h and a constant
    ({(1, 0, 0): 1, (0, 0, 2): 1}, {(0, 0, 1): 2, (0, 0, 0): 3}, {(0, 1, 1): 1}),
    # t_i - t_j + 1: a constant term
    ({(2, 0, 1): 3, (0, 1, 0): -1, (0, 0, 0): 5}, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): 1}, {(1, 0, 1): 2}),
    # a Fraction leading coefficient
    ({(1, 1, 0): Fraction(2, 3), (0, 0, 3): 1}, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): 3, (0, 0, 1): -1}, {(1, 0, 2): 7}),
    # v = t2, not the first variable, with h in rest
    ({(0, 3, 0): 1, (0, 1, 2): -2}, {(0, 1, 0): -1, (0, 0, 1): 4}, {(0, 1, 1): 1}),
]


@pytest.mark.parametrize("case", LINEAR_CASES)
def test_linear_division_cases_match_exquo(case):
    s, q, m = (MultiPoly(2, d) for d in case)
    assert q.degree() == 1
    exact = s * q
    assert to_sympy(exact.exact_div(q)) == to_sympy(exact).exquo(to_sympy(q)) == to_sympy(s)
    p = exact + m
    assert passes_the_screen(p, q)
    with pytest.raises(ExactQuotientFailed):
        to_sympy(p).exquo(to_sympy(q))
    with pytest.raises(NotDivisibleError):
        p.exact_div(q)


def sympy_str(P, window):
    """A polynomial printed from sympy's term order, in bowcalc's format."""
    if not P:
        return "0"
    parts = []
    for monom, coef in P.terms():
        c = Fraction(int(coef.numerator), int(coef.denominator))
        factors = [n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names(window), monom) if e]
        body = "*".join(factors) if factors else str(abs(c))
        if factors and abs(c) != 1:
            body = "%s*%s" % (abs(c), body)
        parts.append(("- " if c < 0 else "+ ") + body)
    first = parts[0]
    return (first[2:] if first[0] == "+" else "-" + first[2:]) + "".join(" " + x for x in parts[1:])


@st.composite
def polys(draw):
    return draw(POLYS[draw(WINDOW)])


@PROPERTY
@given(polys())
def test_term_order_matches_grlex(p):
    P = to_sympy(p)
    first = str(p)
    assert first == sympy_str(P, p.window)
    # the second call returns the cached string, unchanged
    assert str(p) is first and str(p) == sympy_str(P, p.window)
    assert [tuple(t["exps"].get(n, 0) for n in names(p.window)) for t in p.structured()] == [
        m for m, _ in P.terms()
    ]
    if p:
        mono, coef = p.leading()
        assert (mono, QQ(coef.numerator, coef.denominator)) == P.LT


@PROPERTY
@given(polys())
def test_queries_match_sympy(p):
    P = to_sympy(p)
    monoms = P.monoms()
    assert p.degree() == (max(sum(m) for m in monoms) if P else -1)
    assert p.h_valuation() == (min(m[-1] for m in monoms) if P else float("inf"))


@st.composite
def ring_maps(draw):
    source = draw(WINDOW)
    target = draw(WINDOW)
    images = [draw(LINEAR[target]) for _ in range(source)]
    return draw(SMALL[source]), RingMap(source, target, images)


def assert_matches_compose(phi, p):
    # one ring holds both: s1..sS for the source, t1..tT and h for the target
    both = ring(names(phi.source, "s")[:-1] + names(phi.target), QQ, grlex)
    R, gens = both[0], both[1:]
    pad = (0,) * phi.target
    P = R.from_dict({m[:-1] + pad + m[-1:]: QQ(c.numerator, c.denominator) for m, c in p.terms.items()})

    def lift(q):
        return R.from_dict({(0,) * phi.source + m: QQ(c.numerator, c.denominator) for m, c in q.terms.items()})

    want = P.compose([(gens[i], lift(im)) for i, im in enumerate(phi.images)])
    assert lift(phi(p)) == want


@PROPERTY
@given(ring_maps())
def test_ring_map_matches_compose(inputs):
    p, phi = inputs
    assert_matches_compose(phi, p)


@st.composite
def shared_monomial_inputs(draw):
    """Images of a map and a few polynomials drawn from one small pool of
    monomials, so that they share most of their monomials."""
    source = draw(WINDOW)
    target = draw(WINDOW)
    images = [draw(LINEAR[target]) for _ in range(source)]
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * (source + 1)), min_size=1, max_size=6, unique=True))
    poly = st.dictionaries(st.sampled_from(pool), COEFS, max_size=len(pool)).map(lambda d: MultiPoly(source, d))
    return source, target, images, draw(st.lists(poly, min_size=2, max_size=4))


@PROPERTY
@given(shared_monomial_inputs())
def test_one_ring_map_on_polynomials_that_share_monomials(inputs):
    # a map keeps the image of each monomial it has seen, so the later
    # polynomials read images stored for the earlier ones; each order of
    # the same polynomials, through a fresh map, must give the same results
    source, target, images, polys = inputs
    for order in (polys, polys[::-1]):
        phi = RingMap(source, target, images)
        for p in order + order[:1]:
            assert_matches_compose(phi, p)


@st.composite
def permuted(draw):
    window = draw(WINDOW)
    return draw(POLYS[window]), draw(PERMUTATIONS[window])


@PROPERTY
@given(permuted())
def test_act_perm_matches_compose(inputs):
    p, w = inputs
    R = sympy_ring(p.window)
    gens = R.gens
    want = to_sympy(p, R).compose([(gens[i], gens[w(i + 1) - 1]) for i in range(p.window)])
    # the permutation action is a renumbering RingMap, as stab_grid applies it
    act = RingMap.renumber(p.window, p.window, dict(enumerate(w.one_line, 1)))
    assert to_sympy(act(p), R) == want
