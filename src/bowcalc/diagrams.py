"""Brane diagrams, tie diagrams and binary contingency tables.

A brane diagram is a sequence of colored separators between labeled black
lines, written like ``0/1/3/5\\3\\2\\0``: ``/`` is red, ``\\`` is blue, and
the integers label the black lines (first and last must be 0).  Colored
positions are numbered 1..M+N left to right; position p sits between black
lines X_p and X_{p+1}.  Red lines V_1..V_M are numbered right to left, blue
lines U_1..U_N left to right.

A tie diagram attaches ties (pairs of opposite-colored lines) so that every
black line X is covered by exactly label(X) ties.  Tie diagrams are in
bijection with binary contingency tables: 0/1 matrices with row margins r
and column margins c, rows indexed by V_1..V_M, columns by U_1..U_N.
"""

from collections import namedtuple

from .memo import ReadOnly, memo


class DiagramError(ValueError):
    pass


RED = "/"
BLUE = "\\"

Margins = namedtuple("Margins", ["r", "c", "R", "C", "n"])


class BraneDiagram(ReadOnly):
    """A brane diagram: its colored lines and black line labels.

    Read-only, so ``N``, the number of blue lines, is counted once, at
    construction.
    """

    __slots__ = ("colors", "labels", "N", "_key")

    def __init__(self, colors, labels):
        colors = tuple(colors)
        labels = tuple(int(x) for x in labels)
        if len(labels) != len(colors) + 1:
            raise DiagramError("need one more label than colored lines")
        if not colors:
            raise DiagramError("diagram needs at least one colored line")
        if labels[0] != 0 or labels[-1] != 0:
            raise DiagramError("first and last label must be 0")
        if any(x < 0 for x in labels):
            raise DiagramError("labels must be nonnegative")
        if any(c not in (RED, BLUE) for c in colors):
            raise DiagramError("colors must be %r or %r" % (RED, BLUE))
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "N", colors.count(BLUE))
        object.__setattr__(self, "_key", None)

    # -- text form ---------------------------------------------------------

    @classmethod
    def parse(cls, text):
        text = text.strip()
        labels, colors, num = [], [], ""
        for ch in text:
            if ch.isdigit():
                num += ch
            elif ch in (RED, BLUE):
                if num == "":
                    raise DiagramError("missing label before %r" % ch)
                labels.append(int(num))
                num = ""
                colors.append(ch)
            elif not ch.isspace():
                raise DiagramError("unexpected character %r" % ch)
        if num == "":
            raise DiagramError("missing final label")
        labels.append(int(num))
        return cls(colors, labels)

    def format(self):
        out = str(self.labels[0])
        for color, label in zip(self.colors, self.labels[1:]):
            out += color + str(label)
        return out

    __str__ = format

    def __repr__(self):
        return "BraneDiagram(%s)" % self.format()

    def __eq__(self, other):
        return (
            isinstance(other, BraneDiagram)
            and self.colors == other.colors
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.colors, self.labels))

    # -- line bookkeeping ----------------------------------------------------

    @property
    def num_colored(self):
        return len(self.colors)

    @property
    def num_black(self):
        return len(self.labels)

    @property
    def M(self):
        return sum(1 for c in self.colors if c == RED)

    def red_positions(self):
        """Colored positions of V_1..V_M (V_1 is the rightmost red)."""
        pos = [p for p, c in enumerate(self.colors, start=1) if c == RED]
        return pos[::-1]

    def blue_positions(self):
        """Colored positions of U_1..U_N (U_1 is the leftmost blue)."""
        return [p for p, c in enumerate(self.colors, start=1) if c == BLUE]

    def label(self, i):
        """d_{X_i} for the black line index i = 1..M+N+1."""
        return self.labels[i - 1]

    # -- invariants ----------------------------------------------------------

    def margins(self):
        reds = self.red_positions()
        blues = self.blue_positions()
        r = []
        for p in reds:
            left_blues = sum(1 for q in blues if q < p)
            r.append(self.labels[p] - self.labels[p - 1] + left_blues)
        c = []
        for p in blues:
            right_reds = sum(1 for q in reds if q > p)
            c.append(self.labels[p - 1] - self.labels[p] + right_reds)
        if any(x < 0 for x in r) or any(x < 0 for x in c):
            raise DiagramError("negative margin; diagram is invalid")
        if sum(r) != sum(c):
            raise DiagramError("margin totals disagree")
        R = [0]
        for x in r:
            R.append(R[-1] + x)
        C = [0]
        for x in c:
            C.append(C[-1] + x)
        return Margins(tuple(r), tuple(c), tuple(R), tuple(C), sum(r))

    def sep_degree(self):
        blues_seen = 0
        count = 0
        for color in self.colors:
            if color == BLUE:
                blues_seen += 1
            else:
                count += blues_seen
        return count

    def is_separated(self):
        return self.sep_degree() == 0

    def is_essential(self):
        return all(
            self.labels[p - 1] != self.labels[p] for p in range(1, self.num_colored + 1)
        )

    def admissible_margins(self):
        """The margins, or DiagramError if they are invalid or no 0/1 table
        has them."""
        try:
            m = self.margins()
        except DiagramError as e:
            raise DiagramError("invalid margins: %s" % e)
        if not gale_ryser_feasible(m.r, m.c):
            raise DiagramError(
                "inadmissible diagram: no 0/1 table with margins r=%s c=%s"
                % (list(m.r), list(m.c))
            )
        return m

    def is_admissible(self):
        try:
            self.admissible_margins()
        except DiagramError:
            return False
        return True

    def interval_index(self, j):
        """The interval containing black line X_j: the number of reds to its right."""
        if not 1 <= j <= self.num_black:
            raise DiagramError("black line index out of range")
        return sum(1 for p, c in enumerate(self.colors, start=1) if c == RED and p >= j)

    def key(self):
        if self._key is None:
            object.__setattr__(self, "_key", self.format())
        return self._key


def gale_ryser_feasible(r, c):
    """Existence of a 0/1 matrix with row sums r and column sums c."""
    if sum(r) != sum(c):
        return False
    if any(x < 0 for x in r) or any(x < 0 for x in c):
        return False
    M = len(r)
    if any(x > M for x in c) or any(x > len(c) for x in r):
        return False
    cs = sorted(c, reverse=True)
    for k in range(1, len(cs) + 1):
        if sum(cs[:k]) > sum(min(x, k) for x in r):
            return False
    return True


def enumerate_bct(diagram):
    """All binary contingency tables of the diagram, row-major lexicographic."""
    m = diagram.margins()
    M, N = len(m.r), len(m.c)
    out = []
    row_patterns = {}

    def patterns(total):
        if total not in row_patterns:
            pats = []

            def rec(j, left, row):
                if j == N:
                    if left == 0:
                        pats.append(tuple(row))
                    return
                if left > N - j:
                    return
                for bit in (0, 1):
                    if bit <= left:
                        row.append(bit)
                        rec(j + 1, left - bit, row)
                        row.pop()

            rec(0, total, [])
            row_patterns[total] = pats
        return row_patterns[total]

    def rec(i, cols, rows):
        if i == M:
            out.append(tuple(rows))
            return
        for pat in patterns(m.r[i]):
            new_cols = tuple(a - b for a, b in zip(cols, pat))
            if any(x < 0 for x in new_cols):
                continue
            if not gale_ryser_feasible(m.r[i + 1 :], new_cols):
                continue
            rows.append(pat)
            rec(i + 1, new_cols, rows)
            rows.pop()

    rec(0, tuple(m.c), [])
    out.sort()
    return out


def bct_key(bct):
    return "".join("".join(str(x) for x in row) for row in bct)


class TieDiagram(ReadOnly):
    """A brane diagram plus its set of ties, keyed by the BCT.

    Read-only, so that the fixed-point table can share its tie diagrams with
    every caller, and its key is joined once, at construction.
    """

    __slots__ = ("diagram", "ties", "bct", "_key")

    def __init__(self, diagram, ties):
        object.__setattr__(self, "diagram", diagram)
        ties = frozenset(tuple(t) for t in ties)
        for left, right in ties:
            if left[0] == right[0]:
                raise DiagramError("tie endpoints must have opposite colors")
        object.__setattr__(self, "ties", ties)
        object.__setattr__(self, "bct", tie_to_bct(self))
        object.__setattr__(self, "_key", bct_key(self.bct))
        self._validate()

    def _validate(self):
        reds = self.diagram.red_positions()
        blues = self.diagram.blue_positions()
        pos = {("V", i + 1): p for i, p in enumerate(reds)}
        pos.update({("U", j + 1): p for j, p in enumerate(blues)})
        for left, right in self.ties:
            if left not in pos or right not in pos:
                raise DiagramError("tie endpoint %r or %r unknown" % (left, right))
            if pos[left] >= pos[right]:
                raise DiagramError("tie %r-%r is not ordered left to right" % (left, right))
        # covering counts must reproduce the black line labels
        for x in range(1, self.diagram.num_black + 1):
            cover = sum(1 for left, right in self.ties if pos[left] < x <= pos[right])
            if cover != self.diagram.label(x):
                raise DiagramError(
                    "black line X_%d covered %d times, label is %d"
                    % (x, cover, self.diagram.label(x))
                )

    def key(self):
        return self._key

    def sorted_ties(self):
        return sorted(self.ties)

    def __eq__(self, other):
        return (
            isinstance(other, TieDiagram)
            and self.diagram == other.diagram
            and self.ties == other.ties
        )

    def __hash__(self):
        return hash((self.diagram, self.ties))

    def __repr__(self):
        pairs = ",".join("(%s%d,%s%d)" % (a, i, b, j) for (a, i), (b, j) in self.sorted_ties())
        return "TieDiagram(%s; %s)" % (self.diagram.format(), pairs)


def tie_to_bct(D):
    """M(D) by the four-case rule (1 iff red-left tie present or blue-left tie absent)."""
    d = D.diagram
    reds = d.red_positions()
    blues = d.blue_positions()
    M, N = d.M, d.N
    ties = D.ties
    rows = []
    for i in range(1, M + 1):
        row = []
        for j in range(1, N + 1):
            if reds[i - 1] < blues[j - 1]:
                row.append(1 if (("V", i), ("U", j)) in ties else 0)
            else:
                row.append(0 if (("U", j), ("V", i)) in ties else 1)
        rows.append(tuple(row))
    return tuple(rows)


def bct_to_tie(diagram, bct):
    """Inverse of tie_to_bct."""
    m = diagram.margins()
    M, N = diagram.M, diagram.N
    if len(bct) != M or any(len(row) != N for row in bct):
        raise DiagramError("BCT shape mismatch")
    if tuple(sum(row) for row in bct) != m.r or tuple(sum(col) for col in zip(*bct)) != m.c:
        raise DiagramError("BCT margins mismatch")
    reds = diagram.red_positions()
    blues = diagram.blue_positions()
    ties = []
    for i in range(1, M + 1):
        for j in range(1, N + 1):
            if reds[i - 1] < blues[j - 1]:
                if bct[i - 1][j - 1] == 1:
                    ties.append((("V", i), ("U", j)))
            else:
                if bct[i - 1][j - 1] == 0:
                    ties.append((("U", j), ("V", i)))
    return TieDiagram(diagram, ties)


@memo(lambda diagram: diagram.key())
def _fixed_points(diagram):
    """The fixed-point table {BCT key: TieDiagram}, in ``enumerate_bct`` order.

    Every matrix, pairing and check on the diagram reads its basis, keys and
    tie diagrams from this one table.
    """
    return {bct_key(A): bct_to_tie(diagram, A) for A in enumerate_bct(diagram)}


def enumerate_ties(diagram):
    """The fixed points as tie diagrams, in ``enumerate_bct`` order: a fresh
    list of the shared, read-only table's values."""
    return list(_fixed_points(diagram).values())


# -- Hanany-Witten transitions ---------------------------------------------


def hanany_witten(diagram, k):
    """Local move at black line X_k which must have a blue line on its left
    and a red line on its right.  Returns (new diagram, j0, i0) where U_{j0}
    and V_{i0} are the swapped lines; the new middle label is d1 + d3 + 1 - d2.
    """
    if not 2 <= k <= diagram.num_black - 1:
        raise DiagramError("no colored lines on both sides of X_%d" % k)
    left, right = diagram.colors[k - 2], diagram.colors[k - 1]
    if left != BLUE or right != RED:
        raise DiagramError("X_%d is not a blue/red adjacency" % k)
    d1, d2, d3 = diagram.labels[k - 2], diagram.labels[k - 1], diagram.labels[k]
    new_mid = d1 + d3 + 1 - d2
    if new_mid < 0:
        raise DiagramError("transition would give negative label %d" % new_mid)
    blues = diagram.blue_positions()
    reds = diagram.red_positions()
    j0 = blues.index(k - 1) + 1
    i0 = reds.index(k) + 1
    colors = list(diagram.colors)
    colors[k - 2], colors[k - 1] = RED, BLUE
    labels = list(diagram.labels)
    labels[k - 1] = new_mid
    return BraneDiagram(colors, labels), j0, i0


def separate(diagram):
    """Apply Hanany-Witten moves (always at the leftmost blue/red adjacency)
    until the diagram is separated.  Returns (separated diagram, moves) where
    moves lists (k, j0, i0) per transition in the order performed.
    """
    moves = []
    d = diagram
    while True:
        for k in range(2, d.num_black):
            if d.colors[k - 2] == BLUE and d.colors[k - 1] == RED:
                d, j0, i0 = hanany_witten(d, k)
                moves.append((k, j0, i0))
                break
        else:
            return d, moves


# -- chargeless reduction ----------------------------------------------------


def essential(diagram):
    """Drop all chargeless colored lines of a separated diagram.

    Returns (essential diagram, removed) where removed lists ("V", i) and
    ("U", j) labels of dropped lines (indices in the original diagram).
    """
    if not diagram.is_separated():
        raise DiagramError("essential reduction expects a separated diagram")
    reds = diagram.red_positions()
    blues = diagram.blue_positions()
    removed = []
    colors, labels = [], [diagram.labels[0]]
    for p in range(1, diagram.num_colored + 1):
        chargeless = diagram.labels[p - 1] == diagram.labels[p]
        if chargeless:
            if diagram.colors[p - 1] == RED:
                removed.append(("V", reds.index(p) + 1))
            else:
                removed.append(("U", blues.index(p) + 1))
            continue
        colors.append(diagram.colors[p - 1])
        labels.append(diagram.labels[p])
    return BraneDiagram(colors, labels), removed


# -- symmetric group action on separated essential diagrams -----------------


def sn_act(w, diagram):
    """Move blue line U_j (with its ties) to the slot of U_{w(j)}.

    Defined for separated diagrams; the red part is untouched and the new
    column margins are c(w.D)_j = c_{w^{-1}(j)}.
    """
    if not diagram.is_separated():
        raise DiagramError("symmetric group action expects a separated diagram")
    m = diagram.margins()
    N = diagram.N
    if w.n != N:
        raise DiagramError("permutation window %d, diagram has %d blue lines" % (w.n, N))
    winv = w.inverse()
    new_c = [m.c[winv(j) - 1] for j in range(1, N + 1)]
    labels = list(diagram.labels[: diagram.M + 1])
    # blue labels: partial sums of new c from the right
    tail = [0]
    for cj in reversed(new_c):
        tail.append(tail[-1] + cj)
    labels.extend(reversed(tail[:-1]))
    return BraneDiagram(diagram.colors, labels)


def permute_bct_columns(bct, w):
    """Columns of M(w.D): column j of the result is column w^{-1}(j) of bct."""
    winv = w.inverse()
    return tuple(
        tuple(row[winv(j) - 1] for j in range(1, len(row) + 1)) for row in bct
    )


# -- partial flag diagrams ---------------------------------------------------


def flag_diagram(ds, n):
    """The separated diagram 0/(n-d_m)/... /(n-d_1)/n\\n-1\\...\\1\\0."""
    ds = list(ds)
    if any(a >= b for a, b in zip(ds, ds[1:])) or not ds or ds[0] <= 0 or ds[-1] >= n:
        raise DiagramError("need 0 < d_1 < ... < d_m < n")
    labels = [0] + [n - d for d in reversed(ds)] + list(range(n, -1, -1))
    colors = [RED] * (len(ds) + 1) + [BLUE] * n
    return BraneDiagram(colors, labels)


def flag_tie(ds, n, w):
    """Fixed point of the flag diagram for the coset w S_delta: ties
    (V_i, U_j) whenever w(l) = j for some l with d_{i-1} < l <= d_i.
    """
    diagram = flag_diagram(ds, n)
    if w.n != n:
        raise DiagramError("permutation window mismatch")
    bounds = [0] + list(ds) + [n]
    ties = []
    for i in range(1, len(bounds)):
        for l in range(bounds[i - 1] + 1, bounds[i] + 1):
            ties.append((("V", i), ("U", w(l))))
    return TieDiagram(diagram, ties)


# -- resolution ---------------------------------------------------------------


def resolution(diagram):
    """Replace the blue tail of a separated essential diagram by n-1, ..., 1."""
    if not diagram.is_separated() or not diagram.is_essential():
        raise DiagramError("resolution expects a separated essential diagram")
    m = diagram.margins()
    labels = list(diagram.labels[: diagram.M + 1]) + list(range(m.n - 1, -1, -1))
    colors = [RED] * diagram.M + [BLUE] * m.n
    return BraneDiagram(colors, labels)


def resolve_tie(D, block_perms):
    """Resolve each blue line into unit blue lines, shuffling its ties.

    ``block_perms`` lists one permutation u_j in S_{c_j} per blue line; the
    ties of U_j, attached to reds V_{i_1} < ... < V_{i_{c_j}}, go to the new
    blue lines so that the l-th new line receives the tie of V_{i_{u_j(l)}}.
    """
    d = D.diagram
    res = resolution(d)
    m = d.margins()
    if len(block_perms) != d.N:
        raise DiagramError("need one block permutation per blue line")
    ties = []
    for j in range(1, d.N + 1):
        u = block_perms[j - 1]
        if u.n != m.c[j - 1]:
            raise DiagramError("block %d expects S_%d" % (j, m.c[j - 1]))
        rows = [i for i in range(1, d.M + 1) if D.bct[i - 1][j - 1] == 1]
        for l in range(1, m.c[j - 1] + 1):
            ties.append((("V", rows[u(l) - 1]), ("U", m.C[j - 1] + l)))
    return TieDiagram(res, ties)


# -- simple moves -------------------------------------------------------------


def _scan_moves(table, row_pairs):
    """Yield (moved table, (i1, i2, j1, j2)) for every simple move of the
    table on the given row pairs i1 < i2: BCT entries 1 at (i1, j1),
    (i2, j2) and 0 at (i1, j2), (i2, j1) for columns j1 < j2, swapped."""
    N = len(table[0]) if table else 0
    for i1, i2 in row_pairs:
        r1, r2 = table[i1 - 1], table[i2 - 1]
        for j1 in range(1, N + 1):
            for j2 in range(j1 + 1, N + 1):
                if (
                    r1[j1 - 1] == 1
                    and r2[j2 - 1] == 1
                    and r1[j2 - 1] == 0
                    and r2[j1 - 1] == 0
                ):
                    rows = [list(row) for row in table]
                    rows[i1 - 1][j1 - 1] = 0
                    rows[i2 - 1][j2 - 1] = 0
                    rows[i1 - 1][j2 - 1] = 1
                    rows[i2 - 1][j1 - 1] = 1
                    yield tuple(tuple(row) for row in rows), (i1, i2, j1, j2)


def simple_moves(D):
    """All tie diagrams reachable by one simple move, with the move window.

    A simple move picks rows i1 < i2 and columns j1 < j2 with BCT entries 1 at
    (i1, j1), (i2, j2) and 0 at (i1, j2), (i2, j1) and swaps the pattern.
    Returns a list of (TieDiagram, (i1, i2, j1, j2)) sorted by key; each tie
    diagram is the fixed-point table's own.
    """
    M = len(D.bct)
    points = _fixed_points(D.diagram)
    pairs = ((i1, i2) for i1 in range(1, M + 1) for i2 in range(i1 + 1, M + 1))
    moved = sorted((bct_key(A), move) for A, move in _scan_moves(D.bct, pairs))
    return [(points[key], move) for key, move in moved]


def move_sign(bct, move):
    """(-1)^(n1+n2) with n1, n2 the 1-entries of rows i1, i2 strictly between
    the moving columns."""
    i1, i2, j1, j2 = move
    n1 = sum(bct[i1 - 1][l - 1] for l in range(j1 + 1, j2))
    n2 = sum(bct[i2 - 1][l - 1] for l in range(j1 + 1, j2))
    return -1 if (n1 + n2) % 2 else 1


def simple_moves_rel(D, z, i):
    """Twisted simple moves relative to the interval index i.

    Computed on the column-permuted table M(z.D); a move with rows i1 < i2
    qualifies iff i1 <= i < i2.  Returns a list of (TieDiagram, sign) on the
    original diagram, sorted by key, with the fixed-point table's tie diagrams.
    """
    M = len(D.bct)
    points = _fixed_points(D.diagram)
    ztable = permute_bct_columns(D.bct, z)
    back = z.inverse()
    pairs = (
        (i1, i2) for i1 in range(1, M + 1) for i2 in range(i1 + 1, M + 1) if i1 <= i < i2
    )
    moved = sorted(
        (bct_key(permute_bct_columns(A, back)), move_sign(ztable, move))
        for A, move in _scan_moves(ztable, pairs)
    )
    return [(points[key], sgn) for key, sgn in moved]


# -- rendering ---------------------------------------------------------------


def render_ascii(D):
    """Deterministic ASCII picture: upper arcs, the diagram line, lower arcs."""
    d = D.diagram
    cells = [str(d.labels[0])]
    col_of_pos = {}
    for p in range(1, d.num_colored + 1):
        col_of_pos[p] = sum(len(c) for c in cells) + 1
        cells.append(d.colors[p - 1])
        cells.append(str(d.labels[p]))
    base = " " + "".join(cells)
    reds = d.red_positions()
    blues = d.blue_positions()
    pos = {("V", i + 1): p for i, p in enumerate(reds)}
    pos.update({("U", j + 1): p for j, p in enumerate(blues)})

    def arcs(side):
        picked = []
        for left, right in D.sorted_ties():
            upper = left[0] == "V"
            if (side == "above") == upper:
                picked.append((col_of_pos[pos[left]], col_of_pos[pos[right]]))
        picked.sort()
        rows = []
        for a, b in picked:
            for row in rows:
                if all(not (a <= y and x <= b) for x, y in row):
                    row.append((a, b))
                    break
            else:
                rows.append([(a, b)])
        lines = []
        for row in rows:
            chars = [" "] * (len(base) + 2)
            for a, b in row:
                chars[a] = "."
                chars[b] = "."
                for x in range(a + 1, b):
                    chars[x] = "-"
            lines.append("".join(chars).rstrip())
        return lines

    above = arcs("above")
    below = arcs("below")
    return "\n".join(above[::-1] + [base] + below)


def render_bct(D):
    """The table with row/column labels plus the separating line path."""
    d = D.diagram
    bct = D.bct
    M, N = d.M, d.N
    header = "     " + " ".join("U%d" % j for j in range(1, N + 1))
    lines = [header]
    for i in range(1, M + 1):
        lines.append(
            "V%d | " % i + "  ".join(str(bct[i - 1][j - 1]) for j in range(1, N + 1))
        )
    x, y = 0, 0
    path = [(0, 0)]
    for color in d.colors:
        if color == BLUE:
            x += 1
        else:
            y += 1
        path.append((x, y))
    lines.append("path: " + " ".join("(%d,%d)" % p for p in path))
    return "\n".join(lines)
