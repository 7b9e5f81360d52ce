import random
from fractions import Fraction

import pytest

from bowcalc import exactalg
from bowcalc.exactalg import (
    Character,
    LinearForm,
    LocalizedScalar,
    MultiPoly,
    NotDivisibleError,
    PureHWeightError,
    RingMap,
    WindowMismatchError,
    ZeroWeightError,
    factor_s_forms,
)
from bowcalc.permcalc import Permutation


def t(i, n=3):
    return MultiPoly.t(i, n)


def h(n=3):
    return MultiPoly.h(n)


def random_poly(rng, window, degree=3, terms=5):
    p = MultiPoly.zero(window)
    for _ in range(terms):
        mono = [0] * (window + 1)
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(window + 1)] += 1
        p = p + MultiPoly(window, {tuple(mono): rng.randint(-4, 4)})
    return p


def test_binomial_square():
    p = t(1) - t(2)
    assert p * p == t(1) ** 2 - 2 * t(1) * t(2) + t(2) ** 2


def test_additive_inverse():
    p = 3 * t(1) * t(2) - h() ** 2
    assert (p + (-p)).is_zero()


def test_mul_div_roundtrip():
    a = (t(1) - t(2) + h()) * (t(1) - t(2))
    assert a.exact_div(t(1) - t(2)) == t(1) - t(2) + h()
    assert a.exact_div(t(1) - t(2) + h()) == t(1) - t(2)


def test_window_mismatch_raises():
    with pytest.raises(WindowMismatchError):
        t(1, 2) + t(1, 3)


def test_not_divisible():
    with pytest.raises(NotDivisibleError):
        (t(1) - t(2)).exact_div(t(1) - t(3))


def test_exact_div_h_power():
    x = t(1) * t(2) - 5 * t(3) + 1
    assert (x * h() ** 2).exact_div(h() ** 2) == x


def test_h_valuation():
    assert (h() ** 2 * (t(1) + h())).h_valuation() == 2
    assert MultiPoly.zero(3).h_valuation() == float("inf")
    assert (t(1) + 1).h_valuation() == 0


def test_ring_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(40):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        c = random_poly(rng, 3)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_exact_div_randomized():
    rng = random.Random(7)
    for _ in range(40):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def act(w):
    """The permutation action t_i -> t_{w(i)}, h fixed, as a renumbering."""
    return RingMap.renumber(w.n, w.n, dict(enumerate(w.one_line, 1)))


def test_act_perm():
    w = Permutation.parse("213")
    p = t(1) - t(2)
    assert act(w)(p) == t(2) - t(1)
    assert act(Permutation.identity(3))(p) == p
    rng = random.Random(99)
    for _ in range(20):
        q = random_poly(rng, 3)
        assert act(w.inverse())(act(w)(q)) == q


def test_act_perm_is_ring_map():
    rng = random.Random(5)
    w = Permutation.parse("312")
    a, b = random_poly(rng, 3), random_poly(rng, 3)
    assert act(w)(a * b) == act(w)(a) * act(w)(b)


def test_ring_map_multiplicative():
    rng = random.Random(12)
    f = RingMap(3, 2, [MultiPoly.t(1, 2), MultiPoly.t(1, 2) - MultiPoly.h(2), MultiPoly.t(2, 2)])
    for _ in range(20):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        assert f(a * b) == f(a) * f(b)
        assert f(a + b) == f(a) + f(b)


def test_h_shift_inverse_roundtrip():
    f = RingMap.h_shift(3, {2: 1})
    g = RingMap.h_shift(3, {2: -1})
    rng = random.Random(3)
    p = random_poly(rng, 3)
    assert g(f(p)) == p
    assert f.compose(g)(p) == p


def test_canonical_string():
    p = t(1) * h() ** 2 - MultiPoly.const(Fraction(3, 2), 3) * t(2) * h() + 1
    assert str(p) == "t1*h^2 - 3/2*t2*h + 1"
    assert str(MultiPoly.zero(3)) == "0"
    s = p.structured()
    assert s[0] == {"coef": "1/1", "exps": {"t1": 1, "h": 2}}


def test_constant_polynomials_hash_like_their_numbers():
    # equal objects hash alike: a constant polynomial equals its number
    for value in (0, 3, -7, Fraction(5, 3)):
        for window in (1, 2, 3):
            p = MultiPoly.const(value, window)
            assert p == value and hash(p) == hash(value)
            assert len({value, p}) == 1
            assert {value: "x"}.get(p) == "x"
    assert hash(MultiPoly.zero(2)) == hash(0) and len({0, MultiPoly.zero(2)}) == 1
    # a polynomial hashes by its window and terms, computed on each call
    p = t(1) * h() + 2
    assert hash(p) == hash(t(1) * h() + 2) == hash(p)
    assert len({p, t(1) * h() + 2, MultiPoly.t(1, 2) * MultiPoly.h(2) + 2}) == 2


def test_euler_and_characters():
    empty = Character(2)
    assert empty.euler() == MultiPoly.one(2)
    # one chargeless line against a pair of later ones
    c = Character(2, [(1, -1, l + 1) for l in range(2)])
    e = c.euler()
    t1, t2, H = MultiPoly.t(1, 2), MultiPoly.t(2, 2), MultiPoly.h(2)
    assert e == (t1 - t2 + H) * (t1 - t2 + 2 * H)

    with pytest.raises(ZeroWeightError):
        Character(2, [(0, 0, 0)]).euler()


def test_character_union():
    a, b = (1, -1, 1), (-1, 1, 0)
    ab = Character(2, [a, b, a])
    assert ab.weights == (b, a, a)
    assert ab == Character(2, [b, a, a])
    assert ab.euler() == Character(2, [a]).euler() ** 2 * Character(2, [b]).euler()
    assert ab.weight_sum() == Character(2, [a]).weight_sum() * 2 + Character(2, [b]).weight_sum()
    assert str(ab) == "{-t1 + t2, t1 - t2 + h, t1 - t2 + h}"


def test_chamber_split():
    c = Character(3, [(1, -1, 0, 2), (0, -1, 1, 0)])
    pos, neg = c.split_by_chamber(Permutation.identity(3))
    # t1 - t2 + 2h: z(1) < z(2) -> negative; t3 - t2: z(3) > z(2) -> positive
    assert neg == Character(3, [(1, -1, 0, 2)])
    assert pos == Character(3, [(0, -1, 1, 0)])
    assert Character(3, pos.weights + neg.weights) == c

    # the longest chamber swaps the parts of h-free weights
    w0 = Permutation.longest(3)
    c2 = Character(3, [(1, 0, -1, 0)])
    p1, n1 = c2.split_by_chamber(Permutation.identity(3))
    p2, n2 = c2.split_by_chamber(w0)
    assert p1 == n2 and n1 == p2

    with pytest.raises(PureHWeightError):
        Character(3, [(0, 0, 0, 1)]).split_by_chamber(w0)


def test_linear_form_normalization():
    form, sgn = LinearForm.normalized(3, 1, 2)
    assert (form.i, form.j, form.m) == (1, 3, -2) and sgn == -1
    assert str(LinearForm(1, 2, 1)) == "t1-t2+h"


def test_linear_form_reads_the_next_variable_as_zero():
    # in window N - 1 a form reads t_N as 0, which is where the quotient by
    # the diagonal torus (t_N -> 0) sends it; a later variable raises
    assert LinearForm(2, 4, 3).as_poly(3) == MultiPoly.linear(3, {2: 1}, 3)
    assert LinearForm(1, 3, -1).as_poly(3) == MultiPoly.linear(3, {1: 1, 3: -1}, -1)
    assert LinearForm(1, 2).as_poly(1) == MultiPoly.t(1, 1)
    for form in (LinearForm(2, 5), LinearForm(4, 5, 1)):
        with pytest.raises(WindowMismatchError):
            form.as_poly(3)
    phi = RingMap(4, 3, [t(1), t(2), t(3), MultiPoly.zero(3)])
    for i in range(1, 5):
        for j in range(i + 1, 5):
            for m in (-2, 0, 1):
                form = LinearForm(i, j, m)
                assert phi(form.as_poly(4)) == form.as_poly(3)


def test_localized_scalar_cancellation():
    t1, t2, t3, H = t(1), t(2), t(3), h()
    num = (t1 - t2) * (t2 - t3 + H)
    s = LocalizedScalar(num, [LinearForm(1, 2), LinearForm(1, 3)])
    assert s.denoms == (LinearForm(1, 3),)
    assert not s.is_polynomial()
    # equality by cross multiplication
    s2 = LocalizedScalar(num * (t1 - t3), [LinearForm(1, 2), LinearForm(1, 3)])
    assert s2 == (t2 - t3 + H)
    assert s2.to_poly() == t2 - t3 + H


def test_localized_scalar_sum():
    t1, t2 = t(1, 2), t(2, 2)
    a = LocalizedScalar(MultiPoly.one(2), [LinearForm(1, 2)])
    b = LocalizedScalar(-MultiPoly.one(2), [LinearForm(1, 2)])
    assert not (a + b)
    c = LocalizedScalar(t1, [LinearForm(1, 2)]) + LocalizedScalar(-t2, [LinearForm(1, 2)])
    assert c.is_polynomial() and c.to_poly() == MultiPoly.one(2)


def test_localized_times_zero_has_no_denominator():
    t1, t2 = t(1, 2), t(2, 2)
    s = LocalizedScalar(t1, [LinearForm(1, 2)])
    for zero in (s * 0, s * Fraction(0), -(s * 0), s * MultiPoly.zero(2)):
        assert zero.denoms == ()
        assert zero.to_poly().is_zero()
        assert str(zero) == "0"
    # a zero scalar cancels nothing off the next factor
    assert (s * 0 * (t1 - t2)).to_poly().is_zero()


def test_localized_difference():
    t1, t2 = t(1, 2), t(2, 2)
    s = LocalizedScalar(t1, [LinearForm(1, 2)])
    for other in (3, Fraction(1, 2), t2, LocalizedScalar(t2, [LinearForm(1, 2)])):
        assert s - other == s + (-other)
        assert (s - other) + other == s
    assert (s - LocalizedScalar(t2, [LinearForm(1, 2)])).to_poly() == MultiPoly.one(2)


def test_factor_s_forms():
    t1, t2, t3, H = t(1), t(2), t(3), h()
    p = 6 * H ** 2 * (t1 - t2 + H) * (t1 - t3) ** 2
    const, hpow, forms = factor_s_forms(p)
    assert const == 6 and hpow == 2
    assert forms == [LinearForm(1, 2, 1), LinearForm(1, 3), LinearForm(1, 3)]
    with pytest.raises(NotDivisibleError):
        factor_s_forms(t1 * t2 + 1)


def test_poly_with_localized_operand_defers_to_localized():
    p = MultiPoly.t(2, 2)
    s = LocalizedScalar(MultiPoly.t(1, 2), [LinearForm(1, 2)])
    assert p * s == s * p
    assert p + s == s + p
    assert p - s == -(s - p)
    assert (p - s) + s == p
    with pytest.raises(WindowMismatchError):
        p * MultiPoly.t(1, 3)
    with pytest.raises(WindowMismatchError):
        p + MultiPoly.t(1, 3)
    with pytest.raises(TypeError):
        p * "t1"


def test_bad_exponents_and_float_coefficients_are_rejected():
    for mono in ((-1, 0, 0), (1.5, 0, 0), (0, "1", 0)):
        with pytest.raises(ValueError):
            MultiPoly(2, {mono: 1})
    with pytest.raises(TypeError):
        MultiPoly(2, {(1, 0, 0): 0.5})
    with pytest.raises(TypeError):
        MultiPoly.const(0.5, 2)
    with pytest.raises(TypeError):
        MultiPoly.linear(2, {1: 0.5})
    with pytest.raises(TypeError):
        MultiPoly.linear(2, {1: 1}, 0.25)
    with pytest.raises(TypeError):
        MultiPoly.linear(2, {}, constant=0.5)
    assert str(MultiPoly.linear(2, {1: Fraction(1, 2)}, Fraction(4, 2), -1)) == "1/2*t1 + 2*h - 1"


def test_non_exact_operands_raise_type_error():
    p = MultiPoly.t(1, 2)
    s = LocalizedScalar(p)
    for bad in (0.5, "t1"):
        with pytest.raises(TypeError):
            p.exact_div(bad)
        with pytest.raises(TypeError):
            s * bad
        with pytest.raises(TypeError):
            bad * s
        with pytest.raises(TypeError):
            s + bad
        with pytest.raises(TypeError):
            bad + s
    assert (s * 2).num == 2 * p and (s + 1).num == p + 1


def test_degree_limit_raises_instead_of_carrying():
    limit = exactalg.DEGREE_LIMIT
    t1, t2, H = t(1, 2), t(2, 2), h(2)
    top = t1 ** (limit - 1)
    for other in (t1, t2, H, top):
        with pytest.raises(OverflowError):
            top * other
    for mono in ((limit, 0, 0), (limit - 1, 0, 1), (1, limit // 2, limit // 2)):
        with pytest.raises(OverflowError):
            MultiPoly(2, {mono: 1})
    # an exponent just below the limit fills its field and round-trips
    p = MultiPoly(2, {(0, limit - 1, 0): 3, (1, 0, 0): -1})
    assert dict(p.terms) == {(0, limit - 1, 0): 3, (1, 0, 0): -1}
    assert p.terms[(0, limit - 1, 0)] == 3
    assert str(p) == "3*t2^%d - t1" % (limit - 1)
    assert p.degree() == limit - 1 and p.leading() == ((0, limit - 1, 0), 3)
    assert (H ** (limit - 1)).h_valuation() == limit - 1
    assert top.exact_div(t1 ** (limit - 2)) == t1
    with pytest.raises(NotDivisibleError):
        top.exact_div(t2)


def test_localized_equality_with_foreign_types_is_false():
    s = LocalizedScalar(t(1, 2), [LinearForm(1, 2)])
    for other in (None, "t1", 0.5, object()):
        assert not s == other
        assert s != other
    assert s not in [None, 1]
    # the types it does compare with still compare by value
    assert LocalizedScalar(t(1, 2)) in [None, t(1, 2)]
    assert LocalizedScalar(MultiPoly.const(2, 2)) in [None, 2]
