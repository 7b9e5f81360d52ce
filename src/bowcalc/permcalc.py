"""Symmetric group calculus: reduced words, subword sums, coset combinatorics.

Permutations are stored in one-line notation with an explicit window n and
compose as functions, (u * v)(x) = u(v(x)).  A word [a_1, ..., a_l] of simple
transposition indices denotes the product s_{a_1} * ... * s_{a_l}.

The module also houses the matrix calculus connecting permutations to
double cosets of Young subgroups: the coset matrix Z(w), the distinguished
shortest representatives built from 0/1 matrices, and the matching functions
that make fully separated permutations rigid.
"""

from itertools import permutations as iter_permutations

from .exactalg import INF, MultiPoly, WindowMismatchError, sum_of_products
from .memo import ReadOnly


class Permutation(ReadOnly):
    """A permutation of 1..n in one-line notation.  Read-only, since chambers
    are memo keys and memoized matrices keep theirs; the inverse and the
    length are filled in once, on first use."""

    __slots__ = ("one_line", "n", "_inv", "_len")

    def __init__(self, one_line):
        ol = tuple(one_line)
        n = len(ol)
        if sorted(ol) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (n, ol))
        self._fill(ol)

    def _fill(self, ol):
        object.__setattr__(self, "one_line", ol)
        object.__setattr__(self, "n", len(ol))
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_len", None)

    @classmethod
    def _trusted(cls, ol):
        # internal: ol is a tuple that is a permutation by construction
        # (a product or an inverse), so it is not checked again
        self = cls.__new__(cls)
        self._fill(ol)
        return self

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def longest(cls, n):
        return cls(range(n, 0, -1))

    @classmethod
    def transposition(cls, n, a, b):
        ol = list(range(1, n + 1))
        ol[a - 1], ol[b - 1] = ol[b - 1], ol[a - 1]
        return cls(ol)

    @classmethod
    def simple(cls, n, i):
        return cls.transposition(n, i, i + 1)

    @classmethod
    def from_word(cls, n, word):
        w = cls.identity(n)
        for a in word:
            w = w * cls.simple(n, a)
        return w

    def __call__(self, i):
        return self.one_line[i - 1]

    def __mul__(self, other):
        if self.n != other.n:
            raise WindowMismatchError("permutation windows differ")
        ol = self.one_line
        return Permutation._trusted(tuple([ol[i - 1] for i in other.one_line]))

    def inverse(self):
        if self._inv is None:
            inv = [0] * self.n
            for pos, val in enumerate(self.one_line):
                inv[val - 1] = pos + 1
            inv = Permutation._trusted(tuple(inv))
            object.__setattr__(inv, "_inv", self)
            object.__setattr__(self, "_inv", inv)
        return self._inv

    def inversions(self):
        ol = self.one_line
        return [
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if ol[i] > ol[j]
        ]

    def length(self):
        if self._len is None:
            object.__setattr__(self, "_len", len(self.inversions()))
        return self._len

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __lt__(self, other):
        return self.one_line < other.one_line

    def __str__(self):
        return ",".join(str(v) for v in self.one_line)

    def __repr__(self):
        return "Permutation(%s)" % (self,)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if "," in text:
            return cls(int(p) for p in text.split(","))
        return cls(int(ch) for ch in text)


class Composition:
    """Positive integer parts with cached partial sums and index blocks."""

    __slots__ = ("parts", "sums")

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("composition parts must be >= 1: %r" % (parts,))
        self.parts = parts
        sums = [0]
        for p in parts:
            sums.append(sums[-1] + p)
        self.sums = tuple(sums)

    @property
    def total(self):
        return self.sums[-1]

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, k):
        return self.parts[k]

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __repr__(self):
        return "Composition%r" % (self.parts,)

    def block(self, k):
        """1-based indices of the k-th block (k = 1..len)."""
        return range(self.sums[k - 1] + 1, self.sums[k] + 1)

    def block_of(self, i):
        """Which block the index i lies in (1-based)."""
        for k in range(1, len(self.parts) + 1):
            if i <= self.sums[k]:
                return k
        raise ValueError("index %d outside 1..%d" % (i, self.total))


# -- reduced words -------------------------------------------------------


def reduced_word(w, rightmost=False):
    """A reduced word for w by repeated descent elimination.

    The canonical choice takes the leftmost descent; rightmost=True gives a
    second, generally different, reduced word for the same permutation.
    """
    ol = list(w.one_line)
    rev = []
    while True:
        descents = [i for i in range(len(ol) - 1) if ol[i] > ol[i + 1]]
        if not descents:
            break
        i = descents[-1] if rightmost else descents[0]
        ol[i], ol[i + 1] = ol[i + 1], ol[i]
        rev.append(i + 1)
    return rev[::-1]


def beta_sequence(n, word):
    """Positive roots beta_i = s_{a_1}...s_{a_{i-1}}(alpha_{a_i}) as (a, b) pairs.

    Requires the word to be reduced; each beta is reported with a < b (it is
    automatically a positive root for reduced words).
    """
    prefix = Permutation.identity(n)
    betas = []
    for a in word:
        x, y = prefix(a), prefix(a + 1)
        if x > y:
            raise ValueError("word is not reduced")
        betas.append((x, y))
        prefix = prefix * Permutation.simple(n, a)
    if prefix.length() != len(word):
        raise ValueError("word is not reduced")
    return betas


class ReducedWord:
    """A reduced word together with its beta sequence."""

    __slots__ = ("n", "letters", "betas")

    def __init__(self, n, letters):
        self.n = n
        self.letters = tuple(letters)
        self.betas = tuple(beta_sequence(n, self.letters))

    @classmethod
    def of(cls, w, rightmost=False):
        return cls(w.n, reduced_word(w, rightmost=rightmost))

    def permutation(self):
        return Permutation.from_word(self.n, self.letters)

    def __len__(self):
        return len(self.letters)


def beta_poly(n, beta):
    a, b = beta
    return MultiPoly.linear(n, {a: 1, b: -1})


# -- subword dynamic program ---------------------------------------------


def subword_sums(word, n, targets):
    """For each target w', the sum over subwords of ``word`` multiplying to w'
    of h^(l(word)-k) * prod(beta over chosen positions).

    The one-word call of ``shared_subword_sums``.  Returns {target:
    MultiPoly}; absent subwords give 0.
    """
    ((_, sums),) = shared_subword_sums([word], n, targets)
    return sums


def shared_subword_sums(words, n, targets, ring=None):
    """The subword sums of several reduced words at once, sharing the DP
    states of their common prefixes.

    A left-to-right DP whose state is the partial product: skipping a letter
    multiplies by h, taking it multiplies by its beta and extends the
    product.  It runs depth first over the trie of ``words``, so each node's
    states serve every word below it, and yields (index, {target:
    MultiPoly}) for each word as the walk reaches the word's end (a word
    before the words it is a prefix of).  A chain of single-child nodes is
    walked in place, so only the states of the branching nodes on the
    current path stay alive.  A word that is not reduced raises ValueError.

    A state sigma is pruned once its distance min l(sigma^-1 t) exceeds the
    longest remaining length under its node, the minimum taken over the
    targets t that sigma can still reach: a subword of the letters left
    below the node multiplies to an element of the parabolic subgroup they
    generate, so sigma^-1 t must lie in that subgroup.  The distances are
    kept once per call.

    ``ring`` is the RingMap the sums go through (None for the identity): h
    and each beta are mapped once per call, so the states and the sums live
    in ``ring.target`` variables, and each sum is the ring's image of the
    sum in the n variables.  A grid's collapse psi is many-to-one, so this
    runs the DP on the collapsed, much smaller polynomials.
    """
    targets = list(targets)
    # a trie node: [children by letter, indices of the words ending here,
    # longest remaining length below it, bit mask of the letters below it]
    root = [{}, [], 0, 0]
    for index, word in enumerate(words):
        masks = [0]
        for a in reversed(word):
            masks.append(masks[-1] | 1 << a)
        node = root
        for depth, a in enumerate(word):
            node[2] = max(node[2], len(word) - depth)
            node[3] |= masks[len(word) - depth]
            node = node[0].setdefault(a, [{}, [], 0, 0])
        node[1].append(index)
    window = n if ring is None else ring.target
    h, zero = MultiPoly.h(window), MultiPoly.zero(window)
    identity = Permutation.identity(n)
    # {(sigma, mask): distance}, {mask: {block images: targets}}, and
    # {(a, b): the image of t_a - t_b}
    distances, reachable, betas = {}, {}, {}
    states = {identity: MultiPoly.one(window)}
    for index in root[1]:
        yield index, {t: states.get(t, zero) for t in targets}
    # steps still to take: (states before the letter, their prefix, letter, node)
    pending = [(states, identity, a, child) for a, child in reversed(root[0].items())]
    while pending:
        states, prefix, a, node = pending.pop()
        while True:
            x, y = prefix(a), prefix(a + 1)
            if x > y:
                raise ValueError("word is not reduced")
            s = Permutation.simple(n, a)
            prefix = prefix * s
            bp = betas.get((x, y))
            if bp is None:
                bp = beta_poly(n, (x, y))
                bp = betas[x, y] = bp if ring is None else ring(bp)
            # each next state's (value, factor) pairs, summed once it is kept
            nxt = {}
            for sigma, val in states.items():
                nxt.setdefault(sigma, []).append((val, h))
                nxt.setdefault(sigma * s, []).append((val, bp))
            states = {}
            for sigma, pairs in nxt.items():
                key = (sigma, node[3])
                dist = distances.get(key)
                if dist is None:
                    by_blocks = reachable.get(node[3])
                    if by_blocks is None:
                        by_blocks = reachable[node[3]] = {}
                        for t in targets:
                            by_blocks.setdefault(_block_images(t, node[3]), []).append(t)
                    inv = sigma.inverse()
                    near = by_blocks.get(_block_images(sigma, node[3]), ())
                    dist = distances[key] = min(((inv * t).length() for t in near), default=INF)
                if dist <= node[2]:
                    states[sigma] = sum_of_products(pairs, window)
            for index in node[1]:
                yield index, {t: states.get(t, zero) for t in targets}
            children = node[0]
            if len(children) != 1:
                pending.extend((states, prefix, b, child) for b, child in reversed(children.items()))
                break
            ((a, node),) = children.items()


def _block_images(perm, mask):
    """The sets perm(B) over the blocks B of 1..n that the letters in
    ``mask`` join (i and i + 1 share a block when bit i is set).  sigma^-1 t
    lies in the subgroup those letters generate exactly when sigma and t
    have the same block images."""
    images, block = [], []
    for i, v in enumerate(perm.one_line, start=1):
        block.append(v)
        if not mask >> i & 1:
            images.append(frozenset(block))
            block = []
    return tuple(images)


def subword_sum(word, n, target):
    return subword_sums(word, n, [target])[target]


def bruhat_leq(u, w):
    """Subword criterion: u <= w iff some subword of a reduced word for w is u.

    The subword sum of u is then nonzero: each power of h in it sums products
    of positive roots, which are all positive at t = (n, ..., 1), so no two
    subwords cancel.
    """
    if u.n != w.n:
        raise WindowMismatchError("windows differ")
    return not subword_sum(reduced_word(w), w.n, u).is_zero()


# -- Young subgroup cosets ------------------------------------------------


def young_elements(comp):
    """Iterate over all elements of the Young subgroup S_comp (as window-n perms)."""
    blocks = [list(comp.block(k)) for k in range(1, len(comp) + 1)]
    pools = [list(iter_permutations(b)) for b in blocks]

    def build(choice):
        ol = [0] * comp.total
        for block, perm in zip(blocks, choice):
            for pos, val in zip(block, perm):
                ol[pos - 1] = val
        return Permutation(ol)

    def rec(k, choice):
        if k == len(pools):
            yield build(choice)
            return
        for perm in pools[k]:
            yield from rec(k + 1, choice + [perm])

    yield from rec(0, [])


def young_block_element(comp, block_perms):
    """Embed (u_1, ..., u_k) with u_j in S_{comp_j} as a window-n permutation."""
    ol = [0] * comp.total
    for k, u in enumerate(block_perms, start=1):
        base = comp.sums[k - 1]
        if u.n != comp.parts[k - 1]:
            raise WindowMismatchError("block %d expects S_%d" % (k, comp.parts[k - 1]))
        for pos in range(1, u.n + 1):
            ol[base + pos - 1] = base + u(pos)
    return Permutation(ol)


def young_longest(comp):
    """The blockwise longest element w_{0,c_1} x ... x w_{0,c_k}."""
    return young_block_element(
        comp, [Permutation.longest(p) for p in comp.parts]
    )


def enumerate_coset(w, comp):
    """All elements of the left coset w * S_comp, each exactly once."""
    for v in young_elements(comp):
        yield w * v


def min_rep_left(w, comp):
    """Shortest element of w * S_comp: sort values within position blocks."""
    ol = list(w.one_line)
    for k in range(1, len(comp) + 1):
        block = list(comp.block(k))
        vals = sorted(ol[i - 1] for i in block)
        for i, v in zip(block, vals):
            ol[i - 1] = v
    return Permutation(ol)


def min_rep_right(w, comp):
    """Shortest element of S_comp * w."""
    return min_rep_left(w.inverse(), comp).inverse()


def coset_length(w, comp):
    """Length of the shortest representative of w * S_comp."""
    return min_rep_left(w, comp).length()


def coset_matrix_Z(w, comp_r, comp_c):
    """Z(w)_{i,j} = |w(block_i of comp_r) intersect (block_j of comp_c)|."""
    if comp_r.total != w.n or comp_c.total != w.n:
        raise WindowMismatchError("composition totals must equal the window")
    M, N = len(comp_r), len(comp_c)
    Z = [[0] * N for _ in range(M)]
    for i in range(1, M + 1):
        for pos in comp_r.block(i):
            Z[i - 1][comp_c.block_of(w(pos)) - 1] += 1
    return tuple(tuple(row) for row in Z)


def is_fully_separated(w, comp_r, comp_c):
    return all(x <= 1 for row in coset_matrix_Z(w, comp_r, comp_c) for x in row)


def tilde_w(A, comp_r, comp_c):
    """The distinguished shortest double coset representative of a margin matrix.

    Row i sends its block positions, in order, to the smallest unused value of
    the column block of each entry, reading entries left to right.  For 0/1
    matrices this is the shortest representative of the (S_c, S_r) double
    coset with coset matrix A; the same filling rule also yields the shortest
    double coset representative for matrices with larger entries.
    """
    M, N = len(comp_r), len(comp_c)
    if len(A) != M or any(len(row) != N for row in A):
        raise WindowMismatchError("matrix shape does not match compositions")
    if [sum(row) for row in A] != list(comp_r.parts):
        raise ValueError("row sums do not match")
    if [sum(col) for col in zip(*A)] != list(comp_c.parts):
        raise ValueError("column sums do not match")
    ol = [0] * comp_r.total
    used = [0] * N  # entries consumed per column so far
    for i in range(1, M + 1):
        pos = comp_r.sums[i - 1] + 1
        for j in range(1, N + 1):
            for _ in range(A[i - 1][j - 1]):
                used[j - 1] += 1
                ol[pos - 1] = comp_c.sums[j - 1] + used[j - 1]
                pos += 1
    return Permutation(ol)


def min_rep_double(w, comp_c, comp_r):
    """Shortest element of S_comp_c * w * S_comp_r."""
    return tilde_w(coset_matrix_Z(w, comp_r, comp_c), comp_r, comp_c)


def matrix_inversions(A):
    """Pairs of positive entries in inverting position (northeast of each other).

    For 0/1 matrices this counts l(tilde_w); entries > 1 contribute products.
    """
    cells = [
        (i, j)
        for i, row in enumerate(A)
        for j, x in enumerate(row)
        if x
    ]
    count = 0
    for a, (i1, j1) in enumerate(cells):
        for i2, j2 in cells[a + 1 :]:
            if i1 < i2 and j2 < j1:
                count += A[i1][j1] * A[i2][j2]
    return count


def matching_F(w, comp_c):
    """F_w(i) = column block of w(i), for i = 1..n."""
    return tuple(comp_c.block_of(w(i)) for i in range(1, w.n + 1))


def matching_G(w, comp_r):
    """G_w(j) = row block of w^{-1}(j), for j = 1..n."""
    winv = w.inverse()
    return tuple(comp_r.block_of(winv(j)) for j in range(1, w.n + 1))


def w_distinguished(A, comp_r, comp_c):
    """w_D = (blockwise longest of comp_c) * tilde_w(A)."""
    return young_longest(comp_c) * tilde_w(A, comp_r, comp_c)


def tilde_y(A_moved, comp_r, comp_c, move):
    """The twisted representative attached to a simple move.

    ``A_moved`` is the BCT after the move (ones at (i1, j2) and (i2, j1)) and
    ``move`` = (i1, i2, j1, j2) with 1-based indices.  The result is
    tilde_w(A_moved) precomposed with the transposition of the two positions
    whose strands cross; resolving that crossing always flips the length
    parity and shortens the word.
    """
    i1, i2, j1, j2 = move
    wm = tilde_w(A_moved, comp_r, comp_c)
    f1 = next(
        p for p in comp_r.block(i1) if comp_c.block_of(wm(p)) == j2
    )
    f2 = next(
        p for p in comp_r.block(i2) if comp_c.block_of(wm(p)) == j1
    )
    return wm * Permutation.transposition(comp_r.total, f1, f2)
