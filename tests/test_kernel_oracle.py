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
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.orderings import grlex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from bowcalc.exactalg import MultiPoly, NotDivisibleError, RingMap
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
def division_inputs(draw):
    """(dividend, divisor): an exact multiple half of the time, and a
    single-term divisor (the key-shift path) a third of the time."""
    window = draw(WINDOW)
    q = draw(draw(st.sampled_from((DIVISORS, DIVISORS, MONOMIALS)))[window])
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


@PROPERTY
@given(ring_maps())
def test_ring_map_matches_compose(inputs):
    p, phi = inputs
    # one ring holds both: s1..sS for the source, t1..tT and h for the target
    both = ring(names(phi.source, "s")[:-1] + names(phi.target), QQ, grlex)
    R, gens = both[0], both[1:]
    pad = (0,) * phi.target
    P = R.from_dict({m[:-1] + pad + m[-1:]: QQ(c.numerator, c.denominator) for m, c in p.terms.items()})

    def lift(q):
        return R.from_dict({(0,) * phi.source + m: QQ(c.numerator, c.denominator) for m, c in q.terms.items()})

    want = P.compose([(gens[i], lift(im)) for i, im in enumerate(phi.images)])
    assert lift(phi(p)) == want


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
