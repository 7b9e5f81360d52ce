"""Cancel-before-multiply against multiply-then-reduce, with a sympy oracle.

The pairing summands a*b / e(T) cancel the tangent forms against a, then
divide b by the forms a left over that b's divisibility profile holds, and
only then multiply.  These properties check on random
polynomials times random products of S forms that the result is exactly the
fraction that reducing the whole product gives (same numerator, same sorted
denominators), and, through sympy's ``cancel`` and ``gcd`` over QQ, that it equals
a*b / e(T) and is in lowest terms.  sympy is used only in tests.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from bowcalc.chevalley import _form_profile, _tangent_summands
from bowcalc.exactalg import (
    LinearForm,
    LocalizedScalar,
    MultiPoly,
    NotDivisibleError,
    factor_s_forms,
    poly_product,
)

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def forms(window, max_abs_m=1):
    # a small pool, so that numerators and denominators share forms often
    pairs = [(i, j) for i in range(1, window + 1) for j in range(i + 1, window + 1)]
    return st.builds(
        lambda ij, m: LinearForm(ij[0], ij[1], m),
        st.sampled_from(pairs),
        st.integers(-max_abs_m, max_abs_m),
    )


def coefficient_dicts(window, min_size):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * (window + 1)),
        st.integers(-3, 3).filter(bool),
        min_size=min_size,
        max_size=3,
    )


# strategies are built once: hypothesis validates each new strategy object
WINDOWS = (2, 3)
FORMS = {w: forms(w) for w in WINDOWS}
NONZERO = {w: coefficient_dicts(w, 1) for w in WINDOWS}
ANY = {w: coefficient_dicts(w, 0) for w in WINDOWS}
WIDE_FORMS = {w: forms(w, 7) for w in (2, 3, 4)}


@st.composite
def polys(draw, window, allow_zero=False):
    """A random polynomial times a random product of S forms and h."""
    p = MultiPoly(window, draw((ANY if allow_zero else NONZERO)[window]))
    factors = draw(st.lists(FORMS[window], max_size=3))
    p = p * poly_product([f.as_poly(window) for f in factors], window)
    return p * MultiPoly.h(window) ** draw(st.integers(0, 1))


@st.composite
def summand_inputs(draw):
    window = draw(st.sampled_from(WINDOWS))
    a = draw(polys(window))
    bs = draw(st.lists(polys(window), min_size=1, max_size=3))
    denoms = draw(st.lists(FORMS[window], max_size=5))
    const = draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
    hpow = draw(st.integers(0, min(a.h_valuation() + min(b.h_valuation() for b in bs), 2)))
    return a, bs, (const, hpow, sorted(denoms))


def reduce_product(a, b, tangent):
    """The product-then-reduce construction the cancel-first path replaces."""
    const, hpow, forms_ = tangent
    num = a * b * (Fraction(1) / const)
    if hpow:
        num = num.exact_div(MultiPoly.h(num.window) ** hpow)
    return LocalizedScalar(num, forms_)


@functools.cache
def sympy_ring(window):
    """sympy's polynomial ring QQ[t1..tN, h], built once per window."""
    return ring(["t%d" % (i + 1) for i in range(window)] + ["h"], QQ)[0]


def to_sympy(p):
    """p as an element of sympy's polynomial ring QQ[t1..tN, h]."""
    R = sympy_ring(p.window)
    return R.from_dict({m: QQ(c.numerator, c.denominator) for m, c in p.terms.items()})


def denom_poly(value):
    """The product of a scalar's denominator forms."""
    return poly_product([f.as_poly(value.window) for f in value.denoms], value.window)


def assert_sympy_reduced(value, num, den):
    """value == cancel(num/den), and value's numerator and denominator are coprime."""
    top, bottom = to_sympy(value.num), to_sympy(denom_poly(value))
    want_top, want_bottom = to_sympy(num).cancel(to_sympy(den))
    assert top * want_bottom == want_top * bottom
    assert top.gcd(bottom).is_ground


@PROPERTY
@given(summand_inputs())
def test_tangent_summands_equal_product_then_reduce(inputs):
    a, bs, tangent = inputs
    const, hpow, forms_ = tangent
    window = a.window
    euler = poly_product([f.as_poly(window) for f in forms_], window)
    euler = euler * MultiPoly.h(window) ** hpow * const
    rows = [(b, _form_profile(b, forms_)) for b in bs]
    for b, profile in rows:
        # each form's multiplicity in b, capped at its multiplicity in e(T)
        B = to_sympy(b)
        for f in set(forms_):
            k, F = profile[f], to_sympy(f.as_poly(window))
            assert 0 <= k <= forms_.count(f)
            assert B.rem(F ** k) == 0
            assert k == forms_.count(f) or B.rem(F ** (k + 1)) != 0
    for b, got in zip(bs, _tangent_summands(a, rows, tangent)):
        want = reduce_product(a, b, tangent)
        assert got.num == want.num and got.denoms == want.denoms
        assert str(got) == str(want)
        assert_sympy_reduced(got, a * b, euler)


@st.composite
def scalar_times_poly(draw):
    window = draw(st.sampled_from(WINDOWS))
    s = LocalizedScalar(draw(polys(window, allow_zero=True)), draw(st.lists(FORMS[window], max_size=5)))
    return s, draw(polys(window, allow_zero=True))


@PROPERTY
@given(scalar_times_poly())
def test_localized_times_poly_equals_product_then_reduce(inputs):
    s, p = inputs
    got = s * p
    want = LocalizedScalar(s.num * p, s.denoms)
    assert got.num == want.num and got.denoms == want.denoms
    assert str(got) == str(want)
    if not p.is_zero() and not s.num.is_zero():
        assert_sympy_reduced(got, s.num * p, denom_poly(s))
    else:
        assert got.denoms == ()


@st.composite
def s_products(draw):
    """const * h^k * a product of S forms, with its factors."""
    window = draw(st.sampled_from(sorted(WIDE_FORMS)))
    const = draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
    hpow = draw(st.integers(0, 2))
    factors = sorted(draw(st.lists(WIDE_FORMS[window], max_size=4)))
    p = poly_product([f.as_poly(window) for f in factors], window)
    return p * MultiPoly.h(window) ** hpow * const, (const, hpow, factors)


@PROPERTY
@given(s_products())
def test_factor_s_forms_recovers_the_factors(built):
    p, want = built
    assert factor_s_forms(p) == want
    window = p.window
    with pytest.raises(NotDivisibleError):
        factor_s_forms(p * (MultiPoly.t(1, window) + MultiPoly.t(2, window)))


@st.composite
def scalar_pairs(draw):
    """Numerators and denominator forms of two scalars over one window.  In
    a third of the pairs the second is the first with one more form in its
    numerator and denominator, so that equality is exercised both ways; in
    another third the second's denominators hold one of the first's once
    more, so that a form is shared with unequal multiplicities."""
    window = draw(st.sampled_from(WINDOWS))
    num, denoms = draw(polys(window, allow_zero=True)), draw(st.lists(FORMS[window], max_size=4))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        extra = draw(FORMS[window])
        other = (num * extra.as_poly(window), denoms + [extra])
    elif kind == 1 and denoms:
        shared = draw(st.sampled_from(denoms))
        own = [f for f in draw(st.lists(FORMS[window], max_size=2)) if f != shared]
        other = (draw(polys(window)), own + [shared] * (denoms.count(shared) + 1))
    else:
        other = (draw(polys(window, allow_zero=True)), draw(st.lists(FORMS[window], max_size=4)))
    return (num, denoms), other


@PROPERTY
@given(scalar_pairs())
def test_localized_sum_difference_and_equality_against_sympy(pair):
    s, other = (LocalizedScalar(num, denoms) for num, denoms in pair)
    for value, (num, denoms) in zip((s, other), pair):
        assert_sympy_reduced(value, num, poly_product([f.as_poly(num.window) for f in denoms], num.window))
    s_den, o_den = denom_poly(s), denom_poly(other)
    for got, sign in ((s + other, 1), (s - other, -1)):
        assert got.denoms == tuple(sorted(got.denoms))
        if got.num.is_zero():
            assert got.denoms == ()
        assert_sympy_reduced(got, s.num * o_den + other.num * s_den * sign, s_den * o_den)
    same = to_sympy(s.num) * to_sympy(o_den) == to_sympy(other.num) * to_sympy(s_den)
    assert (s == other) is same and (other == s) is same
    assert (s != other) is not same
    if not s.denoms:
        assert s == s.num and (other == s.num) is same
