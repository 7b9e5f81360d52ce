"""Fixed-point data of bow varieties: tautological restrictions and stable
envelope equivariant multiplicities.

The stable basis values are computed by a resolution pipeline:

1. Hanany-Witten transitions move the diagram to separated form; multiplicities
   transport through each move by the substitution t_{j0} -> t_{j0} + h.
2. Chargeless lines are dropped; multiplicities pick up the Euler class of the
   negative part of the constant normal character of the embedding.  Like the
   normalization Euler class divided out at the end, it is kept as its list
   of linear weights and applied one weight at a time, never expanded.
3. A chamber z^-1.C_- is moved to the antidominant chamber by letting z act on
   the diagram, its ties and the variables.
4. On a separated essential diagram the normalized antidominant multiplicities
   come from cotangent bundles of partial flag varieties: a localization
   formula over reduced-word subwords, summed over a Young-subgroup coset,
   pushed through the dimension-collapsing substitution psi and divided by a
   pure h normalization factor.  psi is a ring map, so it is applied first:
   every beta and every alpha + h is mapped once per grid, and the sums are
   formed in the diagram's N variables, not in the n resolved ones.  The
   coset elements share their root forms up to sign, so each coset sum is
   one polynomial numerator divided once by the images of those forms.  The
   prefactor factors alpha + h common to the whole coset stay out of that
   numerator and are never multiplied back: they are the row's factor, a
   list of linear forms shared by every entry of the row, and the quotient
   by the normalization factor is the entry's cofactor.  The subword sums
   of every coset element of a grid come from one DP over the trie of
   their reduced words, written as the coset's shortest element's word
   followed by a word of the Young subgroup element, so a coset's words
   share their prefix.

A grid is kept factored, as (rows, cofactors): rows maps each evaluation
point T to its row factor K(T), a tuple of linear forms, and every entry of
row T is K(T) times its cofactor.  The chamber transport maps the forms and
the cofactors, cancels each normalization weight against a form of the row
where the row holds it and divides the cofactors by it otherwise, and
appends the chargeless weights to the row.  The oracle and the pairing read
the cofactors; ``stab_grid`` expands K(T) * cofactor once per entry.

All results are exact polynomials in Q[t_1..t_N, h].
"""

from collections import Counter
from types import MappingProxyType

from .diagrams import (
    DiagramError,
    _fixed_points,
    bct_key,
    enumerate_bct,
    essential,
    permute_bct_columns,
    separate,
    sn_act,
)
from .exactalg import (
    Character,
    LinearForm,
    MultiPoly,
    NonPolynomialError,
    NotDivisibleError,
    RingMap,
    poly_product,
    sum_of_products,
)
from .memo import memo
from .permcalc import (
    Composition,
    Permutation,
    beta_poly,
    beta_sequence,
    coset_length,
    min_rep_left,
    reduced_word,
    shared_subword_sums,
    subword_sums,
    tilde_w,
    w_distinguished,
    young_elements,
)


# -- tautological restrictions ------------------------------------------------


def taut_tables(D, blue_index):
    """The counting tables of one blue line U: d-values per black line and the
    recursively defined c-values.

    d[x] counts the ties at U covering the black line X_x.  For black lines
    right of U, c[x] = d[right of U] - d[x]; to the left c is propagated right
    to left, dropping by one across a red separator whose two neighbor d
    values agree and staying constant otherwise.
    Returns (d, c) as dicts over black line indices 1..M+N+1.
    """
    d = D.diagram
    blues = d.blue_positions()
    reds = d.red_positions()
    pos_u = blues[blue_index - 1]
    pos = {("V", i + 1): p for i, p in enumerate(reds)}
    ends = []
    for left, right in D.ties:
        if left == ("U", blue_index):
            ends.append(pos[right])
        elif right == ("U", blue_index):
            ends.append(pos[left])

    dvals = {}
    for x in range(1, d.num_black + 1):
        if x <= pos_u:
            dvals[x] = sum(1 for p in ends if p < x)
        else:
            dvals[x] = sum(1 for p in ends if p >= x)

    cvals = {}
    d_plus = dvals[pos_u + 1]
    for x in range(d.num_black, pos_u, -1):
        cvals[x] = d_plus - dvals[x]
    for x in range(pos_u, 0, -1):
        nxt = cvals[x + 1]
        right_color = d.colors[x - 1]
        if right_color == "\\":
            cvals[x] = nxt
        elif dvals[x] + 1 == dvals[x + 1]:
            cvals[x] = nxt
        elif dvals[x] == dvals[x + 1]:
            cvals[x] = nxt - 1
        else:
            raise DiagramError("tie covering counts jump by more than one")
    return dvals, cvals


def _weight(window, t_coeffs, h_coeff):
    """The weight sum(c_i t_i) + h_coeff*h (t_coeffs maps i -> c_i) as an exponent tuple."""
    return tuple(t_coeffs.get(i, 0) for i in range(1, window + 1)) + (h_coeff,)


@memo(lambda D: (D.diagram.key(), D.key()))
def _blue_tables(D):
    """``taut_tables(D, j)`` for every blue line U_j, as a tuple of (d, c)
    pairs, each table a tuple over the black lines 1..M+N+1 (index x - 1):
    built once per fixed point, read by every bundle's ``restrict_taut``."""
    lines = range(1, D.diagram.num_black + 1)
    return tuple(
        tuple(tuple(t[x] for x in lines) for t in taut_tables(D, j))
        for j in range(1, D.diagram.N + 1)
    )


@memo(lambda D, i: (D.diagram.key(), D.key(), i))
def restrict_taut(D, i):
    """The character of the tautological bundle of black line X_i at the fixed
    point D: for every blue line U the weights t_U + (c - d_minus + 1 + k) h,
    k = 0..d[X_i]-1, where d_minus is the d-value just left of U.
    """
    d = D.diagram
    if not 1 <= i <= d.num_black:
        raise DiagramError("black line index out of range")
    blues = d.blue_positions()
    weights = []
    for j, (dvals, cvals) in enumerate(_blue_tables(D), start=1):
        base = cvals[i - 1] - dvals[blues[j - 1] - 1] + 1
        weights.extend(_weight(d.N, {j: 1}, base + k) for k in range(dvals[i - 1]))
    return Character(d.N, weights)


def taut_chern(D, i):
    """Equivariant first Chern class restriction: the sum of the weights,
    read from the diagram's shared Chern table."""
    return _chern_table(D.diagram, i)[D.key()]


@memo(lambda diagram, i: (diagram.key(), i))
def _chern_table(diagram, i):
    """{fixed point key: c_1(xi_i)|_T}, in the fixed-point table's order."""
    return {key: restrict_taut(D, i).weight_sum() for key, D in _fixed_points(diagram).items()}


# -- localization formula for cotangent bundles of flag varieties -------------


def _loop_free_roots(n, word):
    """The positive roots (a, b), a < b, that are not among the betas of
    ``word``, in lexicographic order."""
    betas = set(beta_sequence(n, word))
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in betas]


def _root_product(n, roots):
    """Product of (alpha + h) over the given positive roots alpha."""
    h = MultiPoly.h(n)
    return poly_product([beta_poly(n, root) + h for root in roots], n)


def loop_free_prefactor(n, word):
    """Product of (alpha + h) over positive roots alpha not among the betas."""
    return _root_product(n, _loop_free_roots(n, word))


def stab_full_flag(n, w, w_prime, word=None):
    """Equivariant multiplicity of the antidominant stable envelope of w' at
    the fixed point w on the cotangent bundle of the full flag variety:
    prefactor times the subword sum; zero unless w' <= w in Bruhat order.
    """
    if word is None:
        word = reduced_word(w)
    return loop_free_prefactor(n, word) * subword_sums(word, n, [w_prime])[w_prime]


def _block_root_denominator(delta, z):
    """The forms z.(t_a - t_b) over positive roots inside delta blocks.

    Returns (sign, [LinearForm]) with the overall sign of normalization.
    """
    forms = []
    sgn = 1
    for k in range(1, len(delta) + 1):
        block = list(delta.block(k))
        for x in range(len(block)):
            for y in range(x + 1, len(block)):
                form, s = LinearForm.normalized(z(block[x]), z(block[y]))
                forms.append(form)
                sgn *= s
    return sgn, forms


def _coset_sums(delta, ws, targets, ring=None):
    """The localization sums over the cosets w S_delta, for every target
    permutation w' at once, taken through ``ring`` (a RingMap from the n
    variables, None for the identity): one triple (index, common, sums) per
    w of ``ws``, where index is w's place in ``ws``, common is the list of
    the images of (alpha + h) over the common roots and sums is {w': the
    image of sum over v of prefactor(wv) * subword sum(wv, w') /
    prod((wv).alpha)} divided by the product of common, as polynomials.  A
    triple is yielded as soon as its coset's last subword sum is in, so the
    order may differ from ``ws``.

    v permutes each delta block, so the forms (wv).alpha over the roots
    inside the blocks are those of w for every v, up to the sign dsgn: the
    numerators are summed as polynomials and divided once per (w, w').  The
    common roots are the positive roots that are betas of no wv; their
    factors (alpha + h) divide every prefactor(wv), so each summand carries
    only its few extra factors.  The common part stays a list: the caller
    multiplies it back or keeps it as a factor.

    Everything is formed in the ring's target: the subword sums come from
    ``shared_subword_sums`` through the same ring, and the image of each
    alpha + h and of each block form is taken once per call.  The
    certificate is that the image of each block form divides the image S of
    the numerator sum exactly; a division that fails raises
    NonPolynomialError.  Through the identity this is F | S for the product
    F of the block forms: a block form t_a - t_b has no h term, so it is a
    prime not associate to any alpha + h, and F divides the full sum exactly
    when it divides the sum without the common part.  Through a many-to-one
    ring, such as a grid's collapse psi, it is psi(F) | psi(S), which a
    wrong S with F not dividing it can still pass; the order that checks
    F | S first and maps after stays in the tests (``tests/tilde_route.py``)
    as the reference the grids must equal.

    The subword sums of every coset element come from one call of
    ``shared_subword_sums``.  Each element is w0 u, with w0 the coset's
    shortest element and u in S_delta, and l(w0 u) = l(w0) + l(u), so
    reduced_word(w0) + reduced_word(u) is a reduced word of w0 u: all of a
    coset's words share w0's word, and the subword sums do not depend on
    the reduced word chosen.  Each word's sums go into its coset's row as
    the word ends.
    """
    n = delta.total
    window = n if ring is None else ring.target
    images = {}  # each LinearForm, alpha + h or a block form: its image

    def image(form):
        f = images.get(form)
        if f is None:
            f = form.as_poly(n)
            f = images[form] = f if ring is None else ring(f)
        return f

    young = [(u, reduced_word(u)) for u in young_elements(delta)]
    rows, words, owners = [], [], []
    for index, w in enumerate(ws):
        _, forms = _block_root_denominator(delta, w)
        w0 = min_rep_left(w, delta)
        head = reduced_word(w0)
        coset = []
        for u, tail in young:
            word = head + tail
            coset.append((index, w0 * u, _loop_free_roots(n, word)))
            words.append(word)
        owners.extend(coset)
        common = set.intersection(*(set(roots) for _, _, roots in coset))
        rows.append((common, forms, {tgt: [] for tgt in targets}))
    left = [len(young)] * len(rows)
    for k, sums in shared_subword_sums(words, n, targets, ring):
        index, z, roots = owners[k]
        common, forms, pairs = rows[index]
        extra = None
        for tgt, group in pairs.items():
            num = sums[tgt]
            if num.is_zero():
                continue
            if extra is None:
                dsgn, _ = _block_root_denominator(delta, z)
                extra = poly_product([image(LinearForm(*r, 1)) for r in roots if r not in common], window) * dsgn
            group.append((extra, num))
        left[index] -= 1
        if not left[index]:
            rows[index] = None
            sums = {}
            for tgt, group in pairs.items():
                num = sum_of_products(group, window)
                for form in forms if group else ():
                    try:
                        num = num.exact_div(image(form))
                    except NotDivisibleError:
                        raise NonPolynomialError("block form %s does not divide the coset sum" % (form,)) from None
                sums[tgt] = num
            yield index, [image(LinearForm(*r, 1)) for r in sorted(common)], sums


def stab_partial_flag(delta, w, w_prime):
    """Partial flag multiplicity via the full flag one.

    Sums sign * stab_full_flag(z, w') / prod(z.alpha) over the coset w S_delta
    with sign (-1)^(l(w'S_delta) + l(w')); the result is certified to be a
    polynomial.
    """
    if not isinstance(delta, Composition):
        delta = Composition(delta)
    sign = -1 if (coset_length(w_prime, delta) + w_prime.length()) % 2 else 1
    ((_, common, sums),) = _coset_sums(delta, [w], [w_prime])
    return sums[w_prime] * sign * poly_product(common, delta.total)


# -- resolution pipeline -------------------------------------------------------


def resolution_normalizer(diagram):
    """prod over blue lines of prod_{j=1}^{c-1} (j h)^(c-j)."""
    m = diagram.margins()
    out = MultiPoly.one(diagram.N)
    h = MultiPoly.h(diagram.N)
    for c in m.c:
        for j in range(1, c):
            out = out * (h * j) ** (c - j)
    return out


def psi_map(diagram):
    """The substitution t_{C_{i-1}+k} -> t_i - (k-1) h collapsing the resolved
    torus onto the torus of the diagram."""
    m = diagram.margins()
    N = diagram.N
    images = []
    for i in range(1, N + 1):
        for k in range(1, m.c[i - 1] + 1):
            im = MultiPoly.t(i, N) - MultiPoly.h(N) * (k - 1)
            images.append(im)
    return RingMap(m.n, N, images)


@memo(lambda diagram: diagram.key())
def stab_tilde_grid(diagram):
    """Normalized antidominant multiplicities on a separated essential
    diagram, factored by rows.

    Returns (rows, cofactors): rows maps each eval key to the tuple of psi
    images of alpha + h over the roots common to its coset, and cofactors
    maps (eval key, arg key), over all pairs of fixed points (keys are
    row-major BCT bit strings), to the coset sum divided by the pure h
    normalizer; the multiplicity is the product of the row's forms times
    the cofactor (``expand_grid``).  The coset sums are formed through
    ``psi_map(diagram)``, so each is certified by psi(F) | psi(S) for the
    product F of its block forms (see ``_coset_sums``): exact, since psi is
    a ring map that sends no block form to 0, but blind to a wrong S that
    only psi makes divisible.  The tests compare every grid byte for byte
    with the order that certifies F | S in the n resolved variables and
    maps after (``tests/tilde_route.py``).
    """
    if not diagram.is_separated() or not diagram.is_essential():
        raise DiagramError("stable grid expects a separated essential diagram")
    m = diagram.margins()
    N = diagram.N
    bcts = enumerate_bct(diagram)
    if m.n == 0:
        key = bct_key(bcts[0])
        return _frozen({key: ()}, {(key, key): MultiPoly.one(N)})
    comp_r, comp_c = Composition(m.r), Composition(m.c)
    targets = {bct_key(A): tilde_w(A, comp_r, comp_c) for A in bcts}
    target_perms = list(targets.values())
    norm = resolution_normalizer(diagram)
    ws = (w_distinguished(A, comp_r, comp_c) for A in bcts)
    rows, cofactors = {}, {}
    for index, common, sums in _coset_sums(comp_r, ws, target_perms, psi_map(diagram)):
        ekey = bct_key(bcts[index])
        rows[ekey] = tuple(common)
        for akey, tgt in targets.items():
            cofactors[(ekey, akey)] = sums[tgt].exact_div(norm)
    return _frozen(rows, cofactors)


def _frozen(rows, cofactors):
    """A factored grid as the memo shares it: both tables read-only."""
    return MappingProxyType(rows), MappingProxyType(cofactors)


def expand_grid(factored):
    """{(eval key, arg key): MultiPoly} of a factored grid (rows, cofactors):
    each cofactor times the product of its row's forms, formed once per row."""
    rows, cofactors = factored
    products = {}
    grid = {}
    for (ekey, akey), value in cofactors.items():
        k = products.get(ekey)
        if k is None:
            k = products[ekey] = poly_product(rows[ekey], value.window)
        grid[(ekey, akey)] = value * k
    return grid


def stab_tilde_antidominant(diagram, D_eval, D_arg):
    """Normalized antidominant stable multiplicity on a separated essential
    diagram, straight from the resolution pipeline."""
    return expand_grid(stab_tilde_grid(diagram))[(D_eval.key(), D_arg.key())]


# -- constant normal characters -------------------------------------------------


def stack_character(diagram):
    """The constant character controlling the normalized stable basis of a
    separated diagram (pure-h weights cancel and are omitted)."""
    m = diagram.margins()
    N = diagram.N
    weights = []
    for j in range(1, N + 1):
        for l in range(1, m.c[j - 1]):
            for k in range(j + 1, N + 1):
                for i in range(m.c[k - 1]):
                    weights.append(_weight(N, {k: 1, j: -1}, l - i))
                    weights.append(_weight(N, {j: 1, k: -1}, 1 - l + i))
    return Character(N, weights)


def n_euler(diagram, z):
    """Euler class of the negative part of the constant normal character,
    split by the chamber z^-1.C_-."""
    pos, neg = stack_character(diagram).split_by_chamber(z)
    return neg.euler()


def chargeless_character(diagram):
    """Constant normal character of dropping the chargeless blue lines of a
    separated diagram."""
    m = diagram.margins()
    N = diagram.N
    weights = []
    for j in range(1, N + 1):
        if m.c[j - 1] != 0:
            continue
        for k in range(j + 1, N + 1):
            for i in range(m.c[k - 1]):
                weights.append(_weight(N, {k: 1, j: -1}, -i))
                weights.append(_weight(N, {j: 1, k: -1}, i + 1))
    return Character(N, weights)


def chargeless_euler(diagram, z):
    """Euler class of the negative part of the chargeless reduction character."""
    pos, neg = chargeless_character(diagram).split_by_chamber(z)
    return neg.euler()


# -- chamber transport and the full pipeline -------------------------------------


def _standardize(values):
    """The permutation with the same relative order as the given values."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    ol = [0] * len(values)
    for rank, k in enumerate(order, start=1):
        ol[k] = rank
    return Permutation(ol)


def _cancel_weights(forms, weights):
    """Cancel each weight of ``weights`` against the list of linear
    ``forms`` of a row factor, one occurrence each.

    Returns (forms left, sign, weights left): a weight equal to a form
    removes it; one equal to the negative of a form removes it and flips
    the sign; any other weight is left to divide the row's cofactors.
    """
    forms = list(forms)
    sign = 1
    rest = []
    for w in weights:
        if w in forms:
            forms.remove(w)
        elif -w in forms:
            forms.remove(-w)
            sign = -sign
        else:
            rest.append(w)
    return forms, sign, rest


@memo(lambda diagram, z, normalized=False: (diagram.key(), z.one_line, normalized))
def factored_grid(diagram, z, normalized=False):
    """The grid of ``stab_grid(diagram, z, normalized)`` factored by rows:
    (rows, cofactors), with rows[T] a tuple of linear forms whose product
    times cofactors[(T, D)] is the multiplicity (``expand_grid``).

    Pipeline: Hanany-Witten separation (transporting by t_{j0} -> t_{j0}+h per
    move), chargeless reduction (Euler factor of the constant normal
    character), chamber transport to antidominant via the symmetric group
    action, the resolution formula, and finally division by the normalization
    Euler class unless ``normalized``.  The three variable substitutions
    (chamber renumbering, essential embedding, h shift) are ring
    homomorphisms, the shift an automorphism, so they are composed into one
    RingMap applied once to every cofactor and to every form of a row.  Both
    Euler classes stay lists of linear weights, each mapped alike.  Each
    lifted normalization weight cancels against a form of the row that
    equals it up to sign (``_cancel_weights``); a weight that no form
    matches divides each of the row's cofactors exactly, since it is prime
    and divides the entry but not the row factor.  The chargeless weights
    are appended to the row.
    """
    d = diagram
    if z.n != d.N:
        raise DiagramError("chamber window %d, diagram has %d blue lines" % (z.n, d.N))
    d_sep, moves = separate(d)
    m = d_sep.margins()
    N = d.N
    points = _fixed_points(d)  # a transition keeps every table
    keys = list(points)

    if m.n == 0:
        return _frozen({keys[0]: ()}, {(keys[0], keys[0]): MultiPoly.one(N)})

    d_ess, removed = essential(d_sep)
    kept_rows = [i for i in range(1, d.M + 1) if ("V", i) not in removed]
    kept_cols = [j for j in range(1, N + 1) if ("U", j) not in removed]
    n_ess = d_ess.N
    z_ess = _standardize([z(k) for k in kept_cols])
    lift = RingMap.renumber(n_ess, N, {j: kept_cols[j - 1] for j in range(1, n_ess + 1)})
    iota = chargeless_character(d_sep).split_by_chamber(z)[1].factors()
    if moves:
        shift = RingMap.h_shift(N, Counter(j0 for _, j0, _ in moves))
        lift = shift.compose(lift)
        iota = [shift(w) for w in iota]
    norm_weights = []
    if not normalized:
        norm_weights = [lift(w) for w in stack_character(d_ess).split_by_chamber(z_ess)[1].factors()]

    # The chamber z_ess of d_ess is read off the antidominant grid of
    # z_ess.d_ess: a fixed point moves with its columns, and the renumbering
    # t_i -> t_{z_ess^-1(i)} takes the moved entry back.
    base_rows, base = stab_tilde_grid(sn_act(z_ess, d_ess))
    back = RingMap.renumber(n_ess, n_ess, dict(enumerate(z_ess.inverse().one_line, 1)))
    sub = lift.compose(back)
    base_keys = []
    for D in points.values():
        restricted = tuple(tuple(D.bct[i - 1][j - 1] for j in kept_cols) for i in kept_rows)
        base_keys.append(bct_key(permute_bct_columns(restricted, z_ess)))
    rows, cofactors = {}, {}
    for ekey, e in zip(keys, base_keys):
        forms, sign, divisors = _cancel_weights([sub(f) for f in base_rows[e]], norm_weights)
        rows[ekey] = tuple(forms + iota)
        for akey, a in zip(keys, base_keys):
            value = sub(base[(e, a)])
            for w in divisors:
                value = value.exact_div(w)
            cofactors[(ekey, akey)] = value if sign == 1 else -value
    return _frozen(rows, cofactors)


@memo(lambda diagram, z, normalized=False: (diagram.key(), z.one_line, normalized))
def stab_grid(diagram, z, normalized=False):
    """All multiplicities {(eval key, arg key): MultiPoly} for the chamber
    z^-1.C_-, for any admissible diagram: the factored grid
    (``factored_grid``) expanded once per entry."""
    return expand_grid(factored_grid(diagram, z, normalized))


def stab_restriction(diagram, z, D_eval, D_arg, normalized=False):
    """Equivariant multiplicity of Stab_{z^-1.C_-}(D_arg) at D_eval."""
    grid = stab_grid(diagram, z, normalized=normalized)
    return grid[(D_eval.key(), D_arg.key())]


def opposite_chamber(z):
    """The permutation labeling the opposite chamber: w_0 composed after z."""
    return Permutation.longest(z.n) * z


@memo(lambda diagram, z, D: (diagram.key(), z.one_line, D.key()))
def tangent_euler(diagram, z, D):
    """Euler class of the full tangent space at the fixed point D: the product
    of the two diagonal stable multiplicities for a chamber and its opposite.
    Independent of the chamber."""
    a = stab_restriction(diagram, z, D, D, normalized=False)
    b = stab_restriction(diagram, opposite_chamber(z), D, D, normalized=False)
    return a * b
