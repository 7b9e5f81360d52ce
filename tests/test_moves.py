"""The twisted simple moves of the identity chamber are the plain simple moves
whose rows straddle the interval, each with its move sign; on random admissible
diagrams, every move lands on the fixed-point table's own tie diagram, and on
the small ones the formula, the pairing route and the dense solve match the
oracle, whose solve plan extends each chamber's support, the matrices
commute, ``verify`` passes and the division-free orthogonality holds."""

import random
from itertools import combinations, product

from hypothesis import assume, example, given
from hypothesis import strategies as st

from bowcalc.chevalley import _pairing_terms, _solve_plan, cm_matrix, cm_matrix_oracle, verify
from bowcalc.diagrams import (
    BLUE,
    RED,
    BraneDiagram,
    _fixed_points,
    bct_key,
    bct_to_tie,
    enumerate_bct,
    enumerate_ties,
    move_sign,
    separate,
    simple_moves,
    simple_moves_rel,
)
from bowcalc.permcalc import Permutation
from bowcalc.stabloc import opposite_chamber, stab_grid
from pairing_route import (
    cm_matrix_dense_solve,
    cm_matrix_pairing,
    division_free_orthogonality_failures,
    translation_derivative,
)
from test_localized_oracle import PROPERTY


def test_identity_chamber_moves_are_filtered_simple_moves():
    for text in ("0\\2/3\\4\\4/3\\2/0", "0/1/3/4/5\\4\\3\\1\\0"):
        d = BraneDiagram.parse(text)
        z = Permutation.identity(d.N)
        intervals = {d.interval_index(j) for j in range(1, d.num_black + 1)}
        assert intervals == set(range(d.M + 1))
        seen = 0
        for D in enumerate_ties(d):
            for i in sorted(intervals):
                want = [
                    (Dp.key(), move_sign(D.bct, move))
                    for Dp, move in simple_moves(D)
                    if move[0] <= i < move[1]
                ]
                got = [(Dp.key(), sgn) for Dp, sgn in simple_moves_rel(D, z, i)]
                assert got == want
                seen += len(got)
        assert seen > 0


@st.composite
def admissible_diagrams(draw):
    """(diagram, one of its tables, a chamber): the colors in a random order
    and the labels that the ties of a random 0/1 table cover, with at most 12
    fixed points."""
    # uniform draws from one drawn seed: hypothesis' own draws lean to small
    # and all-zero tables, and most of those have one fixed point
    rng = random.Random(draw(st.integers(0, 2**32)))
    M, N = rng.randint(2, 4), rng.randint(2, 4)
    colors = [RED] * M + [BLUE] * N
    rng.shuffle(colors)
    table = tuple(tuple(rng.randint(0, 1) for _ in range(N)) for _ in range(M))
    reds = [p for p, c in enumerate(colors, start=1) if c == RED][::-1]
    blues = [p for p, c in enumerate(colors, start=1) if c == BLUE]
    labels = [0] * (M + N + 1)
    for i, j in product(range(M), range(N)):
        # a red-left pair is tied on a 1, a blue-left pair on a 0
        if table[i][j] == (reds[i] < blues[j]):
            left, right = sorted((reds[i], blues[j]))
            for x in range(left + 1, right + 1):
                labels[x - 1] += 1
    d = BraneDiagram(colors, labels)
    assume(len(enumerate_bct(d)) <= 12)
    z = Permutation(draw(st.permutations(range(1, N + 1))))
    return d, table, z


# the cost of a stable grid grows with the total charge n of the separated
# essential diagram, not with the number of fixed points
MAX_CHARGE = 4


@PROPERTY
@given(admissible_diagrams())
# two tangent classes with a form t1 - t2 + 5h, past the largest label plus 2
@example((BraneDiagram.parse("0\\2/2/2/1/1\\0"), ((1, 0), (0, 0), (1, 0), (0, 1)), Permutation((2, 1))))
@example((BraneDiagram.parse("0\\2/2/2/2\\0\\0"), ((1, 0, 0), (0, 1, 0), (0, 1, 0)), Permutation((3, 1, 2))))
def test_moves_on_random_admissible_diagrams(drawn):
    d, table, z = drawn
    points = _fixed_points(d)
    assert bct_key(table) in points
    # the count against every 0/1 matrix with the row margins
    m = d.margins()
    rows = [[bits for bits in product((0, 1), repeat=d.N) if sum(bits) == r] for r in m.r]
    brute = sum(1 for pick in product(*rows) if tuple(map(sum, zip(*pick))) == m.c)
    assert len(enumerate_bct(d)) == brute == len(points)
    for D in points.values():
        for Dp, (i1, i2, j1, j2) in simple_moves(D):
            assert Dp is points[Dp.key()]
            swapped = [list(row) for row in D.bct]
            for i, j, bit in ((i1, j1, 0), (i2, j2, 0), (i1, j2, 1), (i2, j1, 1)):
                assert swapped[i - 1][j - 1] == 1 - bit
                swapped[i - 1][j - 1] = bit
            assert Dp == bct_to_tie(d, tuple(map(tuple, swapped)))
        for i in range(d.M + 1):
            assert all(Dp is points[Dp.key()] for Dp, _ in simple_moves_rel(D, z, i))
    # multiplication by c_1 is self-adjoint, so C_-z is the transpose of C_z
    for j in range(1, d.num_black + 1):
        c = cm_matrix(d, z, j).entries
        c_op = cm_matrix(d, opposite_chamber(z), j).entries
        assert c_op == {(col, row): v for (row, col), v in c.items()}, (d.format(), str(z), j)
    # the separated diagram has the total charge of its essential part
    if separate(d)[0].margins().n > MAX_CHARGE:
        return
    bundles = range(1, d.num_black + 1)
    terms = _pairing_terms(d, z)
    for chamber in (z, opposite_chamber(z)):
        # the solve plan lists the fixed points in an order that extends the
        # grid's support, each with a nonzero diagonal
        grid = stab_grid(d, chamber)
        plan = _solve_plan(d, chamber)
        order = {T: k for k, (T, _, _) in enumerate(plan)}
        assert order.keys() == points.keys()
        for (tk, xk), value in grid.items():
            if tk != xk and not value.is_zero():
                assert order[xk] < order[tk], (d.format(), str(chamber), tk, xk)
        assert all(not diagonal.is_zero() for _, _, diagonal in plan), (d.format(), str(chamber))
    for j in bundles:
        oracle = cm_matrix_oracle(d, z, j)
        assert oracle.to_json() == cm_matrix_dense_solve(d, z, j).to_json(), (d.format(), str(z), j)
        assert cm_matrix(d, z, j) == oracle, (d.format(), str(z), j)
        assert cm_matrix_pairing(d, z, j, terms) == oracle, (d.format(), str(z), j)
    for i, j in combinations(bundles, 2):
        a, b = cm_matrix(d, z, i), cm_matrix(d, z, j)
        assert not (a.compose(b) - b.compose(a)).entries, (d.format(), str(z), i, j)
    assert verify(d)["ok"], d.format()
    assert not division_free_orthogonality_failures(d, z), (d.format(), str(z))


@PROPERTY
@given(admissible_diagrams())
def test_pairing_grids_are_translation_invariant(drawn):
    # the pairing runs modulo the diagonal torus (t_N -> 0), which is exact
    # because no entry of either grid it reads moves under t_i -> t_i + s
    d, _, z = drawn
    if separate(d)[0].margins().n > MAX_CHARGE:
        return
    for chamber in (z, opposite_chamber(z)):
        for key, value in stab_grid(d, chamber).items():
            assert translation_derivative(value).is_zero(), (d.format(), str(chamber), key)
