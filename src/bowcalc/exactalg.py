"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[t_1, ..., t_N, h] for an explicit window N.  On top of
the plain ring we provide the pieces the localization calculus needs:

* ``LinearForm`` -- the forms t_i - t_j + m*h that generate the multiplicative
  set used for localized denominators,
* ``LocalizedScalar`` -- fractions whose denominator is a multiset of linear
  forms, kept factored,
* ``RingMap`` -- Q[h]-algebra homomorphisms sending each t variable to a
  degree <= 1 polynomial,
* ``Character`` -- finite multisets of torus weights with Euler classes and
  chamber splitting.

A ``MultiPoly`` stores each monomial as one packed int: fixed fields of
``FIELD`` bits holding [total degree | e_t1 | ... | e_tN | e_h], the degree
most significant.  Int order on these keys is the graded lexicographic order
that ``str()`` prints in, so the kernel multiplies, divides and substitutes
with int additions, ``max`` and a guard-bit test, and unpacks exponents only
to print or to hand them out through ``terms``.  A total degree of
``DEGREE_LIMIT`` (2**15) or more raises ``OverflowError`` rather than
carrying into the next field; bad exponents (negative, non-int) raise
``ValueError`` and float coefficients ``TypeError`` in every constructor.

``LocalizedScalar`` and ``Character`` are ``memo.ReadOnly``, a form is a
tuple and a polynomial's term table is read through a ``TermView``, so a
value shared through the memo cannot be changed by any caller.  All
arithmetic is exact.
"""

import heapq
from collections import Counter, namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce

from .memo import ReadOnly, memo


class WindowMismatchError(ValueError):
    pass


class NotDivisibleError(ArithmeticError):
    pass


class ZeroWeightError(ValueError):
    pass


class PureHWeightError(ValueError):
    pass


class NonPolynomialError(ArithmeticError):
    pass


INF = float("inf")

# Packed monomials: a monomial of Q[t_1..t_N, h] is one int made of N + 2
# fields of FIELD bits, most significant first
#     [ total degree | e_t1 | e_t2 | ... | e_tN | e_h ].
# Every exponent is at most the total degree, which stays below DEGREE_LIMIT,
# so the top bit of each field is always clear: it is a guard bit.
FIELD = 16
DEGREE_LIMIT = 1 << (FIELD - 1)
_MASK = (1 << FIELD) - 1


def _degree_shift(window):
    return FIELD * (window + 1)


def _unit(k, window):
    """Packed key of the k-th variable: t_k for k <= window, h for k = window + 1."""
    return (1 << _degree_shift(window)) | (1 << FIELD * (window + 1 - k))


def _guard(window):
    """The guard bit of every field of a window's keys."""
    return ((1 << FIELD * (window + 2)) - 1) // _MASK << (FIELD - 1)


def _pack(mono, window):
    """The key of an exponent tuple; a tuple that does not fit raises."""
    if len(mono) != window + 1:
        raise WindowMismatchError("monomial %r does not fit window %d" % (mono, window))
    if not all(isinstance(e, int) and e >= 0 for e in mono):
        raise ValueError("exponents must be non-negative ints: %r" % (mono,))
    key = sum(mono)
    if key >= DEGREE_LIMIT:
        raise OverflowError("total degree %d reaches the limit %d" % (key, DEGREE_LIMIT))
    for e in mono:
        key = key << FIELD | e
    return key


def _unpack(key, window):
    out = [0] * (window + 1)
    for k in range(window, -1, -1):
        out[k] = key & _MASK
        key >>= FIELD
    return tuple(out)


def _coefficient(c):
    """c as an int, or as a Fraction when it is not integral; no floats."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("coefficients must be ints or Fractions, not %s" % type(c).__name__)


class TermView(Mapping):
    """Read-only mapping from exponent tuples to the coefficients of a
    MultiPoly.  It unpacks keys as it is read and holds no copy."""

    __slots__ = ("_terms", "_window")

    def __init__(self, terms, window):
        self._terms = terms
        self._window = window

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        window = self._window
        return (_unpack(key, window) for key in self._terms)

    def __getitem__(self, mono):
        try:
            return self._terms[_pack(mono, self._window)]
        except (TypeError, ValueError, OverflowError):
            raise KeyError(mono) from None

    def __repr__(self):
        return "TermView(%r)" % dict(self.items())


class MultiPoly:
    """Polynomial in t_1..t_window and h with rational coefficients.

    The terms live in a dict from packed monomials (see ``FIELD``) to nonzero
    ints or Fractions.  The total degree sits in the top field and t_1 is
    more significant than t_N, which is more significant than h, so
    comparing two keys as ints is the graded lexicographic order: a product
    of monomials is one int addition, the leading monomial is ``max`` of the
    keys, and a divisibility test is one subtraction with guard bits.  A
    result whose total degree reaches ``DEGREE_LIMIT`` raises
    ``OverflowError``; no field ever carries into its neighbour.

    ``terms`` is a read-only view keyed by exponent tuples of length window+1
    (t exponents first, h exponent last), and ``window`` has no setter, so a
    polynomial shared through the memo keeps both.
    """

    __slots__ = ("_window", "_terms", "_str")

    def __init__(self, window, terms=None):
        self._window = window
        clean = {}
        if terms:
            for mono, coef in terms.items():
                key = _pack(mono, window)
                coef = _coefficient(coef)
                if coef:
                    clean[key] = coef
        self._terms = clean
        self._str = None

    @property
    def window(self):
        return self._window

    @property
    def terms(self):
        return TermView(self._terms, self._window)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, window, terms):
        # internal: terms must be clean (packed keys, no zeros, int/Fraction
        # coefficients) and owned by the new polynomial
        self = cls.__new__(cls)
        self._window = window
        self._terms = terms
        self._str = None
        return self

    @classmethod
    def zero(cls, window):
        return cls._raw(window, {})

    @classmethod
    def const(cls, value, window):
        value = _coefficient(value)
        return cls._raw(window, {0: value} if value else {})

    @classmethod
    def one(cls, window):
        return cls._raw(window, {0: 1})

    @classmethod
    def t(cls, i, window):
        if not 1 <= i <= window:
            raise WindowMismatchError("t_%d outside window %d" % (i, window))
        return cls._raw(window, {_unit(i, window): 1})

    @classmethod
    def h(cls, window):
        return cls._raw(window, {_unit(window + 1, window): 1})

    @classmethod
    def linear(cls, window, t_coeffs, h_coeff=0, constant=0):
        """Sum of c_i*t_i (t_coeffs maps index -> c_i) plus h_coeff*h + constant."""
        terms = {}
        for i, c in t_coeffs.items():
            c = _coefficient(c)
            if c:
                if not 1 <= i <= window:
                    raise WindowMismatchError("t_%d outside window %d" % (i, window))
                terms[_unit(i, window)] = c
        h_coeff = _coefficient(h_coeff)
        if h_coeff:
            terms[_unit(window + 1, window)] = h_coeff
        constant = _coefficient(constant)
        if constant:
            terms[0] = constant
        return cls._raw(window, terms)

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self._window != other._window:
            raise WindowMismatchError(
                "window mismatch: %d vs %d" % (self._window, other._window)
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self._window)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = self._terms.copy()
        for key, coef in other._terms.items():
            s = terms.get(key, 0) + coef
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return MultiPoly._raw(self._window, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self._window, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self._window)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly.zero(self._window)
            if type(other) is not int and other.denominator == 1:
                other = other.numerator
            return MultiPoly._raw(
                self._window, {k: c * other for k, c in self._terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return sum_of_products(((self, other),), self._window)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self._window)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self._window)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._window == other._window and self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if not terms.keys() - {0}:  # a constant equals its number: hash alike
            return hash(terms.get(0, 0))
        return hash((self._window, frozenset(terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    # -- queries -----------------------------------------------------------

    def degree(self):
        """Total degree with deg t_i = deg h = 1; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> _degree_shift(self._window)

    def h_valuation(self):
        """Largest m with h^m dividing self; INF for the zero polynomial."""
        if not self._terms:
            return INF
        return min(key & _MASK for key in self._terms)

    def constant_value(self):
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return self._terms[0]
        raise ValueError("not a constant polynomial")

    def leading(self):
        key = max(self._terms)
        return _unpack(key, self._window), self._terms[key]

    # -- division ----------------------------------------------------------

    def exact_div(self, q):
        """Return r with q*r == self, or raise NotDivisibleError."""
        if not isinstance(q, MultiPoly):
            raise TypeError("cannot divide a MultiPoly by %s" % type(q).__name__)
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self._window)
        guard = _guard(self._window)
        if len(q._terms) == 1:
            # a monomial divides term by term: each key shifts by the
            # divisor's, and every key must pass the borrow test, which is
            # where the heap below would stop
            (lm, lc), = q._terms.items()
            quot = {}
            for mono, rc in self._terms.items():
                diff = (mono | guard) - lm
                if diff & guard != guard:
                    raise NotDivisibleError("leading term not divisible")
                if isinstance(rc, int) and isinstance(lc, int):
                    c = rc // lc if rc % lc == 0 else Fraction(rc, lc)
                else:
                    c = rc / lc
                quot[diff - guard] = c
            return MultiPoly._raw(self._window, quot)

        # the leading and the lowest term of a product are the products of
        # its factors' leading and lowest terms, so q's must divide self's:
        # most failing trials stop here, before the remainder is copied
        lm = max(q._terms)
        if ((max(self._terms) | guard) - lm) & guard != guard:
            raise NotDivisibleError("leading term not divisible")
        if ((min(self._terms) | guard) - min(q._terms)) & guard != guard:
            raise NotDivisibleError("lowest term not divisible")
        lc = q._terms[lm]
        if lm >> _degree_shift(self._window) == 1:
            return self._div_linear(lm, lc, q)
        rem = self._terms.copy()
        qterms = tuple(q._terms.items())
        # lazy-deletion max-heap of the remainder's keys, negated
        heap = [-m for m in rem]
        heapq.heapify(heap)
        quot = {}
        while rem:
            while -heap[0] not in rem:
                heapq.heappop(heap)
            mono = -heap[0]
            # lm divides mono iff no field borrows, i.e. every guard bit survives
            diff = (mono | guard) - lm
            if diff & guard != guard:
                raise NotDivisibleError("leading term not divisible")
            diff -= guard
            rc = rem[mono]
            if isinstance(rc, int) and isinstance(lc, int):
                c = rc // lc if rc % lc == 0 else Fraction(rc, lc)
            else:
                c = rc / lc
            quot[diff] = c
            for m2, c2 in qterms:
                m = diff + m2
                old = rem.get(m)
                s = (old if old is not None else 0) - c * c2
                if s:
                    if old is None:
                        heapq.heappush(heap, -m)
                    rem[m] = s
                else:
                    rem.pop(m, None)
        return MultiPoly._raw(self._window, quot)

    def _div_linear(self, lm, lc, q):
        """Divide by q = lc*v + rest of degree 1, with lm = v's key (synthetic
        division in v: no other variable of q is v).

        The dividend's terms are filed by their exponent of v.  Working down
        from the top exponent, every term left at exponent e >= 1 is lc*v
        times one quotient term, whose product with rest is subtracted at
        exponent e - 1.  The quotient is forced term by term, so q divides
        exactly when nothing is left at exponent 0.
        """
        vshift = (lm & ((1 << _degree_shift(self._window)) - 1)).bit_length() - 1
        buckets = {}
        for key, coef in self._terms.items():
            e = key >> vshift & _MASK
            bucket = buckets.get(e)
            if bucket is None:
                buckets[e] = {key: coef}
            else:
                bucket[key] = coef
        # key - lm + m2 is the v exponent below for every term m2 of rest
        rest = tuple((m2 - lm, c2) for m2, c2 in q._terms.items() if m2 != lm)
        quot = {}
        for e in range(max(buckets), 0, -1):
            bucket = buckets.get(e)
            if not bucket:
                continue
            below = buckets.setdefault(e - 1, {})
            for mono, rc in bucket.items():
                if lc == 1:
                    c = rc
                elif isinstance(rc, int) and isinstance(lc, int):
                    c = rc // lc if rc % lc == 0 else Fraction(rc, lc)
                else:
                    c = rc / lc
                quot[mono - lm] = c
                for off, c2 in rest:
                    m = mono + off
                    s = below.get(m, 0) - c * c2
                    if s:
                        below[m] = s
                    else:
                        del below[m]
        if buckets.get(0):
            raise NotDivisibleError("remainder at v^0 is not zero")
        return MultiPoly._raw(self._window, quot)

    # -- serialization -----------------------------------------------------

    def __str__(self):
        if self._str is None:
            self._str = self._format()
        return self._str

    def _format(self):
        if not self._terms:
            return "0"
        terms, window = self._terms, self._window
        parts = []
        for key in sorted(terms, reverse=True):
            coef = terms[key]
            text = _monomial_text(key, window)
            size = abs(coef)
            if not text:
                text = str(size)
            elif size != 1:
                text = "%s*%s" % (size, text)
            parts.append((" - " if coef < 0 else " + ") + text)
        first = parts[0]
        parts[0] = ("-" if first[1] == "-" else "") + first[3:]
        return "".join(parts)

    def __repr__(self):
        return "MultiPoly(%d, %s)" % (self._window, str(self))

    def structured(self):
        """Canonically sorted list of {coef, exps} dicts (JSON-friendly)."""
        names = _var_names(self._window)
        out = []
        for key in sorted(self._terms, reverse=True):
            coef = self._terms[key]
            exps = {n: e for n, e in zip(names, _unpack(key, self._window)) if e}
            out.append({"coef": "%d/%d" % (coef.numerator, coef.denominator), "exps": exps})
        return out


def _var_names(window):
    return ["t%d" % (i + 1) for i in range(window)] + ["h"]


@memo(lambda key, window: (key, window))
def _monomial_text(key, window):
    """A monomial's factors as str() prints them, "t1^2*t3*h"; "" for 1."""
    return "*".join(
        name if e == 1 else "%s^%d" % (name, e)
        for name, e in zip(_var_names(window), _unpack(key, window))
        if e
    )


def poly_product(polys, window):
    return reduce(lambda a, b: a * b, polys, MultiPoly.one(window))


def sum_of_products(pairs, window):
    """Sum of p*q over an iterable of (p, q) MultiPoly pairs in ``window``:
    every term product goes into one table and one polynomial is built at
    the end, so no partial sum is copied.  Raises where ``p * q`` would."""
    shift = _degree_shift(window)
    acc = {}
    for p, q in pairs:
        if not p._window == q._window == window:
            raise WindowMismatchError("window mismatch: %d, %d vs %d" % (p._window, q._window, window))
        a, b = p._terms, q._terms
        if len(a) < len(b):
            a, b = b, a
        if not b:
            continue
        # the largest key of the product is the sum of the largest keys
        if (max(a) + max(b)) >> shift >= DEGREE_LIMIT:
            raise OverflowError("product degree reaches the limit %d" % DEGREE_LIMIT)
        b = tuple(b.items())
        for m1, c1 in a.items():
            for m2, c2 in b:
                mono = m1 + m2
                s = acc.get(mono, 0) + c1 * c2
                if s:
                    acc[mono] = s
                else:
                    del acc[mono]
    return MultiPoly._raw(window, acc)


class LinearForm(namedtuple("LinearForm", "i j m")):
    """The form t_i - t_j + m*h with i < j (an element of the set S).

    A tuple (i, j, m): immutable, hashed and ordered by its fields.
    Normalization flips (i, j) and negates m when needed; the overall sign is
    the caller's to track.
    """

    __slots__ = ()

    def __new__(cls, i, j, m=0):
        if i == j:
            raise ValueError("degenerate form t_i - t_i")
        if i > j:
            raise ValueError("use normalized(); require i < j")
        return super().__new__(cls, i, j, m)

    @classmethod
    def normalized(cls, i, j, m=0):
        """Return (form, sign) with form.i < form.j."""
        if i < j:
            return cls(i, j, m), 1
        return cls(j, i, -m), -1

    @memo(lambda self, window: (self, window))
    def as_poly(self, window):
        """The form in ``window``.  j = window + 1 is read as t_j -> 0, so
        t_i - t_N + m*h gives t_i + m*h in window N - 1, the image of the
        diagonal-torus quotient; a larger j raises."""
        t_coeffs = {self.i: 1} if self.j == window + 1 else {self.i: 1, self.j: -1}
        return MultiPoly.linear(window, t_coeffs, self.m)

    def __str__(self):
        if self.m == 0:
            tail = ""
        elif self.m == 1:
            tail = "+h"
        elif self.m == -1:
            tail = "-h"
        else:
            tail = "%+d*h" % self.m
        return "t%d-t%d%s" % (self.i, self.j, tail)

    __repr__ = __str__


def factor_s_forms(p):
    """Factor p as constant * h^k * product of S-linear forms.

    Candidates t_i - t_j + m*h are tried by exact division: |m| <= 2 first,
    then each pass doubles the bound and tries only the new m.  A form that
    does not divide the remainder cannot divide a later remainder, which
    divides it, so no candidate is tried twice.  After the first pass every
    form left has |m| > 2, so the remainder's h^d coefficient over its
    leading coefficient is the integer prod m, which bounds every |m|.
    Returns (constant, h power, sorted list of LinearForm); raises
    NotDivisibleError once the bound passes that product, or when it is not
    a nonzero integer.
    """
    window = p._window
    if p.is_zero():
        raise NotDivisibleError("zero polynomial has no S-form factorization")
    hpow = p.h_valuation()
    rest = p
    if hpow:
        rest = p.exact_div(MultiPoly.h(window) ** hpow)
    factors = []
    low, bound = 0, 2
    while True:
        ms = [m for m in range(-bound, bound + 1) if abs(m) >= low]
        for i in range(1, window + 1):
            for j in range(i + 1, window + 1):
                for m in ms:
                    form = LinearForm(i, j, m)
                    try:
                        while True:
                            rest = rest.exact_div(form.as_poly(window))
                            factors.append(form)
                    except NotDivisibleError:
                        pass
        degree = rest.degree()
        if degree <= 0:
            return rest.constant_value(), hpow, sorted(factors)
        ratio = Fraction(rest.terms.get((0,) * window + (degree,), 0), rest.leading()[1])
        if ratio.denominator != 1 or abs(ratio) <= bound:
            raise NotDivisibleError("not a product of S-linear forms: %s" % rest)
        low, bound = bound + 1, bound * 2


def _cancel_forms(num, forms):
    """Divide num by each form of the sorted multiset ``forms`` that divides it.

    Returns the quotient and the forms left over, still sorted.  Every form is
    linear, hence prime, so a form of multiplicity k cancels exactly
    min(k, its multiplicity in num) times, and cancelling against the factors
    of a product one after the other leaves what cancelling the product would.
    """
    if num.is_zero():
        return num, ()
    remaining = []
    for form in forms:
        try:
            num = num.exact_div(form.as_poly(num._window))
        except NotDivisibleError:
            remaining.append(form)
    return num, tuple(remaining)


class LocalizedScalar(ReadOnly):
    """Fraction num / prod(denoms) with denominators a multiset of S forms.

    Common factors divisible by a denominator element are cancelled greedily.
    Every instance stays reduced: no form left in ``denoms`` divides ``num``,
    and a zero ``num`` has no denominators.  The forms are pairwise
    non-associate primes, so the reduced form is unique: two values are equal
    exactly when their ``num`` and sorted ``denoms`` are.
    """

    __slots__ = ("num", "denoms")

    def __init__(self, num, denoms=(), reduce_now=True):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "denoms", tuple(sorted(denoms)))
        if reduce_now:
            self._reduce()
        elif num.is_zero():
            object.__setattr__(self, "denoms", ())

    def _reduce(self):
        num, denoms = _cancel_forms(self.num, self.denoms)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "denoms", denoms)

    @property
    def window(self):
        return self.num._window

    @classmethod
    def from_poly(cls, p):
        return cls(p, ())

    def is_polynomial(self):
        return not self.denoms

    def to_poly(self):
        if self.denoms:
            raise NonPolynomialError("denominator survives: %s" % (self.denoms,))
        return self.num

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LocalizedScalar.from_poly(MultiPoly.const(other, self.window))
        elif isinstance(other, MultiPoly):
            other = LocalizedScalar.from_poly(other)
        elif not isinstance(other, LocalizedScalar):
            return NotImplemented
        mine = Counter(self.denoms)
        theirs = Counter(other.denoms)
        common = mine & theirs
        window = self.window
        a = poly_product([f.as_poly(window) for f in (theirs - common).elements()], window)
        b = poly_product([f.as_poly(window) for f in (mine - common).elements()], window)
        num = sum_of_products(((self.num, a), (other.num, b)), window)
        # both operands are reduced, so a form whose multiplicities differ
        # divides exactly one of the two products and cannot divide their
        # sum: only the forms of equal multiplicity are tried
        even = Counter({f: k for f, k in common.items() if mine[f] == theirs[f]})
        num, kept = _cancel_forms(num, sorted(even.elements()))
        denoms = (mine | theirs) - even
        return LocalizedScalar(num, list(denoms.elements()) + list(kept), reduce_now=False)

    __radd__ = __add__

    def __neg__(self):
        return LocalizedScalar(-self.num, self.denoms, reduce_now=False)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LocalizedScalar(self.num * other, self.denoms, reduce_now=False)
        if isinstance(other, MultiPoly):
            # self is reduced: no form left in self.denoms divides self.num,
            # so only the new factor can cancel, and it is cancelled before
            # the product is formed
            other, rest = _cancel_forms(other, self.denoms)
            return LocalizedScalar(self.num * other, rest, reduce_now=False)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LocalizedScalar.from_poly(MultiPoly.const(other, self.window))
        elif isinstance(other, MultiPoly):
            other = LocalizedScalar.from_poly(other)
        elif not isinstance(other, LocalizedScalar):
            return NotImplemented
        return self.denoms == other.denoms and self.num == other.num

    def __bool__(self):
        return not self.num.is_zero()

    def __str__(self):
        if not self.denoms:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, " * ".join(str(f) for f in self.denoms))

    __repr__ = __str__


class RingMap:
    """Q[h]-algebra homomorphism: every t variable maps to a degree <= 1 poly."""

    __slots__ = ("source", "target", "images", "_pows", "_renumber", "_affine", "_table")

    def __init__(self, source, target, images):
        if len(images) != source:
            raise WindowMismatchError("need %d images, got %d" % (source, len(images)))
        for im in images:
            if im._window != target:
                raise WindowMismatchError("image window %d, expected %d" % (im._window, target))
            if im.degree() > 1:
                raise ValueError("ring map images must have degree <= 1")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._pows = [{0: MultiPoly.one(target)} for _ in range(source)]
        # a variable whose image is a bare t_j is renumbered at the key level
        # (its source field and the packed key of t_j); every other variable
        # is affine and substituted through its cached powers
        renumber, affine = [], []
        for i, im in enumerate(self.images, start=1):
            shift = FIELD * (source + 1 - i)
            if len(im._terms) == 1:
                (key, coef), = im._terms.items()
                if coef == 1 and key >> _degree_shift(target) == 1 and key & _MASK == 0:
                    renumber.append((shift, key))
                    continue
            affine.append((i, shift))
        self._renumber = tuple(renumber)
        self._affine = tuple(affine)
        self._table = {}  # packed monomial -> its image, see _image

    def _power(self, i, e):
        cache = self._pows[i - 1]
        if e not in cache:
            top = max(cache)
            img = self.images[i - 1]
            while top < e:
                cache[top + 1] = cache[top] * img
                top += 1
        return cache[e]

    @classmethod
    def h_shift(cls, window, shifts):
        """t_j -> t_j + shifts[j]*h (shifts maps index -> integer)."""
        images = []
        for i in range(1, window + 1):
            im = MultiPoly.t(i, window)
            m = shifts.get(i, 0)
            if m:
                im = im + MultiPoly.h(window) * m
            images.append(im)
        return cls(window, window, images)

    @classmethod
    def renumber(cls, source, target, index_map):
        """t_i -> t_{index_map[i]}."""
        return cls(source, target, [MultiPoly.t(index_map[i], target) for i in range(1, source + 1)])

    def _image(self, key):
        """The image of one packed monomial, as a tuple of (key, coef).

        h is fixed: its exponent moves to the target's h field, and each unit
        of it adds h_unit (one to the h field, one to the degree).  The
        renumbered variables move their exponents to their targets' fields;
        the affine ones contribute the product of their cached powers.
        """
        new = (key & _MASK) * _unit(self.target + 1, self.target)
        for shift, unit in self._renumber:
            new += (key >> shift & _MASK) * unit
        factor = None
        for i, shift in self._affine:
            e = key >> shift & _MASK
            if e:
                pw = self._power(i, e)
                factor = pw if factor is None else factor * pw
        if factor is None:
            return ((new, 1),)
        return tuple((new + m, c) for m, c in factor._terms.items())

    def __call__(self, p):
        if p._window != self.source:
            raise WindowMismatchError("window %d, map expects %d" % (p._window, self.source))
        # the grids repeat few monomials many times: each one's image is
        # computed once per map and read from the table after that
        table = self._table
        acc = {}
        for key, coef in p._terms.items():
            image = table.get(key)
            if image is None:
                image = table[key] = self._image(key)
            for m, c in image:
                s = acc.get(m, 0) + coef * c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return MultiPoly._raw(self.target, acc)

    def compose(self, inner):
        """self after inner (source = inner.source)."""
        if inner.target != self.source:
            raise WindowMismatchError("composition windows do not match")
        return RingMap(inner.source, self.target, [self(im) for im in inner.images])


class Character(ReadOnly):
    """Finite multiset of torus weights sum(c_i t_i) + c_h h.

    A weight is an exponent tuple of length window+1 with integer entries;
    ``weights`` is one sorted tuple that repeats each weight by its
    multiplicity.
    """

    __slots__ = ("window", "weights")

    def __init__(self, window, weights=()):
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "weights", tuple(sorted(weights)))

    def _poly(self, w):
        """The weight w as a linear polynomial."""
        return MultiPoly.linear(self.window, {i + 1: c for i, c in enumerate(w[:-1]) if c}, w[-1])

    def factors(self):
        """The linear polynomials of all weights (with multiplicity), in the
        order of ``weights``."""
        if any(not any(w) for w in self.weights):
            raise ZeroWeightError("character contains a zero weight")
        return [self._poly(w) for w in self.weights]

    def euler(self):
        """The product of ``factors()``."""
        return poly_product(self.factors(), self.window)

    def weight_sum(self):
        """First Chern class: the sum of all weights as a polynomial."""
        one = MultiPoly.one(self.window)
        return sum_of_products(((self._poly(w), one) for w in self.weights), self.window)

    def split_by_chamber(self, z):
        """Split into (positive, negative) parts for the chamber z^-1 . C_-.

        Every weight must have t part t_a - t_b; the weight goes to the
        negative side iff z(a) < z(b).
        """
        pos, neg = [], []
        for w in self.weights:
            support = [(i + 1, c) for i, c in enumerate(w[:-1]) if c]
            if (
                len(support) != 2
                or support[0][1] + support[1][1] != 0
                or abs(support[0][1]) != 1
            ):
                raise PureHWeightError("weight %r is not of the form t_a - t_b + m*h" % (w,))
            (x, cx), (y, _) = support
            a, b = (x, y) if cx == 1 else (y, x)
            (neg if z(a) < z(b) else pos).append(w)
        return Character(self.window, pos), Character(self.window, neg)

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.window == other.window
            and self.weights == other.weights
        )

    def __str__(self):
        return "{" + ", ".join(str(self._poly(w)) for w in self.weights) + "}"

    __repr__ = __str__
