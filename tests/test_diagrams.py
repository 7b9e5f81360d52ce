import random

import pytest

from bowcalc.diagrams import (
    BraneDiagram,
    DiagramError,
    TieDiagram,
    bct_key,
    bct_to_tie,
    enumerate_bct,
    enumerate_ties,
    essential,
    flag_diagram,
    flag_tie,
    gale_ryser_feasible,
    hanany_witten,
    move_sign,
    permute_bct_columns,
    render_ascii,
    render_bct,
    resolution,
    resolve_tie,
    separate,
    simple_moves,
    simple_moves_rel,
    sn_act,
    tie_to_bct,
)
from bowcalc.permcalc import Composition, Permutation, coset_matrix_Z, young_elements

W = Permutation.parse

EXAMPLE_DIAGRAM = "0\\2/3\\4\\4/3\\2/0"
EXAMPLE_TIES = [
    (("U", 1), ("V", 3)),
    (("U", 1), ("V", 2)),
    (("V", 3), ("U", 3)),
    (("V", 3), ("U", 4)),
    (("U", 2), ("V", 1)),
    (("U", 3), ("V", 1)),
]


def test_parse_format_roundtrip():
    d = BraneDiagram.parse(EXAMPLE_DIAGRAM)
    assert d.format() == EXAMPLE_DIAGRAM
    assert d.M == 3 and d.N == 4
    assert BraneDiagram.parse("0/0").format() == "0/0"


def test_parse_errors():
    with pytest.raises(DiagramError):
        BraneDiagram.parse("0/2\\3")  # last label nonzero
    with pytest.raises(DiagramError):
        BraneDiagram.parse("1/0")
    with pytest.raises(DiagramError):
        BraneDiagram.parse("0//0")
    with pytest.raises(DiagramError):
        BraneDiagram.parse("0")


def test_margins():
    d = BraneDiagram.parse("0/1/2/4/6\\5\\4\\3\\2\\1\\0")
    m = d.margins()
    assert m.c == (1, 1, 1, 1, 1, 1)
    assert m.r == (2, 2, 1, 1)
    d2 = BraneDiagram.parse("0/1/3/5\\3\\2\\0")
    m2 = d2.margins()
    assert m2.r == (2, 2, 1) and m2.c == (2, 1, 2) and m2.n == 5
    # a separated diagram with the same margins as r=(3,2,2,3), c=(2,3,2,1,2)
    d3 = BraneDiagram.parse("0/3/5/7/10\\8\\5\\3\\2\\0")
    m3 = d3.margins()
    assert m3.r == (3, 2, 2, 3) and m3.c == (2, 3, 2, 1, 2)


def test_sep_degree():
    assert BraneDiagram.parse("0/1/2\\1\\0").sep_degree() == 0
    assert BraneDiagram.parse("0\\2/0").sep_degree() == 1
    assert BraneDiagram.parse(EXAMPLE_DIAGRAM).sep_degree() == 8


def test_essential():
    d = BraneDiagram.parse("0/2/2/4/5\\5\\4\\2\\0")
    ess, removed = essential(d)
    assert ess.format() == "0/2/4/5\\4\\2\\0"
    assert set(removed) == {("V", 3), ("U", 1)}
    d2 = BraneDiagram.parse("0/2/4/5\\4\\2\\0")
    assert essential(d2)[0] == d2
    # removed blue lines have zero column margin
    m = d.margins()
    for kind, idx in removed:
        if kind == "U":
            assert m.c[idx - 1] == 0


def test_admissibility():
    assert BraneDiagram.parse("0/1/3/5\\3\\2\\0").is_admissible()
    assert BraneDiagram.parse("0/1\\0").is_admissible()
    assert gale_ryser_feasible((2, 2, 1), (2, 1, 2))
    assert not gale_ryser_feasible((2,), (2,))
    assert gale_ryser_feasible((1,), (1,))
    # r=(2), c=(2): two ones in one row but only one column exists
    assert not BraneDiagram.parse("0/2\\0").is_admissible()
    # c=(-1, 2): a negative margin
    assert not BraneDiagram.parse("0/1\\2\\0").is_admissible()


def test_example_tie_diagram_and_bct():
    d = BraneDiagram.parse(EXAMPLE_DIAGRAM)
    D = TieDiagram(d, EXAMPLE_TIES)
    # rows follow V_1, V_2, V_3 with V_1 the rightmost red line
    assert D.bct == ((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))
    assert bct_to_tie(d, D.bct) == D


def test_tie_covering_invariant():
    d = BraneDiagram.parse(EXAMPLE_DIAGRAM)
    with pytest.raises(DiagramError):
        TieDiagram(d, EXAMPLE_TIES[:-1])


def test_enumeration_roundtrip():
    for text in ["0/1\\1\\0", "0/1/3/5\\3\\2\\0", EXAMPLE_DIAGRAM]:
        d = BraneDiagram.parse(text)
        tables = enumerate_bct(d)
        assert tables == sorted(tables)
        assert len(set(tables)) == len(tables)
        ties = enumerate_ties(d)
        for D, A in zip(ties, tables):
            assert tie_to_bct(D) == A
            assert bct_to_tie(d, A) == D
    simple = BraneDiagram.parse("0/1/2\\1\\0")
    assert len(enumerate_bct(simple)) == 2


def test_enumeration_against_backtracking_oracle():
    # independent exhaustive count over all 0/1 matrices
    from itertools import product

    d = BraneDiagram.parse("0/1/3/4/5\\4\\3\\1\\0")
    m = d.margins()
    M, N = len(m.r), len(m.c)
    brute = 0
    for bits in product((0, 1), repeat=M * N):
        rows = [bits[i * N : (i + 1) * N] for i in range(M)]
        if tuple(sum(r) for r in rows) == m.r and tuple(sum(c) for c in zip(*rows)) == m.c:
            brute += 1
    assert brute == len(enumerate_bct(d)) == 27


def test_empty_tie_set_diagram():
    d = BraneDiagram.parse("0/0\\0/0")
    ties = enumerate_ties(d)
    assert len(ties) == 1 and not ties[0].ties


def test_hanany_witten():
    with pytest.raises(DiagramError):
        hanany_witten(BraneDiagram.parse("0\\2/0"), 2)  # would go negative
    d = BraneDiagram.parse("0\\1/0")
    d2, j0, i0 = hanany_witten(d, 2)
    assert d2.format() == "0/0\\0" and (j0, i0) == (1, 1)
    with pytest.raises(DiagramError):
        hanany_witten(BraneDiagram.parse("0/1\\0"), 2)  # wrong adjacency


def test_separate():
    d = BraneDiagram.parse("0/1/2/4\\4\\4\\4\\4\\4\\4/0")
    sep, moves = separate(d)
    assert sep.format() == "0/1/2/4/6\\5\\4\\3\\2\\1\\0"
    assert len(moves) == d.sep_degree() == 6
    already = BraneDiagram.parse("0/1\\0")
    assert separate(already) == (already, [])
    # transition preserves the set of contingency tables
    assert enumerate_bct(d) == enumerate_bct(sep)


def test_sep_degree_drops_by_one():
    d = BraneDiagram.parse(EXAMPLE_DIAGRAM)
    k = next(
        k for k in range(2, d.num_black) if d.colors[k - 2] == "\\" and d.colors[k - 1] == "/"
    )
    d2, _, _ = hanany_witten(d, k)
    assert d2.sep_degree() == d.sep_degree() - 1


def test_sn_action():
    d = BraneDiagram.parse("0/2/5/7/8\\5\\3\\1\\0")
    assert sn_act(W("3142"), d).format() == "0/2/5/7/8\\6\\5\\2\\0"
    assert sn_act(Permutation.identity(4), d) == d
    # group action law on diagrams and tie diagrams
    rng = random.Random(17)
    ties = enumerate_ties(d)
    for _ in range(10):
        ol1 = list(range(1, 5)); rng.shuffle(ol1)
        ol2 = list(range(1, 5)); rng.shuffle(ol2)
        w, v = Permutation(ol1), Permutation(ol2)
        D = rng.choice(ties)
        assert sn_act(w * v, d) == sn_act(w, sn_act(v, d))
        A = permute_bct_columns(D.bct, w * v)
        assert A == permute_bct_columns(permute_bct_columns(D.bct, v), w)
        assert bct_to_tie(sn_act(w * v, d), A).bct == A


def test_flag_diagram_and_tie():
    fd = flag_diagram([2, 4, 5], 6)
    assert fd.format() == "0/1/2/4/6\\5\\4\\3\\2\\1\\0"
    ft = flag_tie([2, 4, 5], 6, W("253614"))
    assert ft.ties == frozenset(
        {
            (("V", 1), ("U", 2)),
            (("V", 1), ("U", 5)),
            (("V", 2), ("U", 3)),
            (("V", 2), ("U", 6)),
            (("V", 3), ("U", 1)),
            (("V", 4), ("U", 4)),
        }
    )
    # depends only on the coset
    delta = Composition((2, 2, 1, 1))
    for v in young_elements(delta):
        assert flag_tie([2, 4, 5], 6, W("253614") * v) == ft
    # matrix equals the coset matrix
    assert ft.bct == coset_matrix_Z(W("253614"), delta, Composition((1,) * 6))
    with pytest.raises(DiagramError):
        flag_diagram([2, 2], 4)


def test_resolution():
    assert resolution(BraneDiagram.parse("0/1/3/5\\3\\2\\0")).format() == "0/1/3/5\\4\\3\\2\\1\\0"
    d = BraneDiagram.parse("0/1/2/3/5\\3\\0")
    D = bct_to_tie(d, ((1, 1), (0, 1), (1, 0), (0, 1)))
    u = [W("21"), W("231")]
    R = resolve_tie(D, u)
    assert R.bct == ((0, 1, 0, 0, 1), (0, 0, 1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 1, 0))
    assert R.diagram.format() == "0/1/2/3/5\\4\\3\\2\\1\\0"
    # identity shuffle on single-tie lines is a relabeling
    d2 = BraneDiagram.parse("0/1/2\\1\\0")
    for D2 in (bct_to_tie(d2, A) for A in enumerate_bct(d2)):
        R2 = resolve_tie(D2, [Permutation.identity(1), Permutation.identity(1)])
        assert R2.bct == D2.bct


def test_resolution_matches_coset_construction():
    # the resolved point is the flag fixed point of (blockwise shuffle) * (shortest rep)
    from bowcalc.permcalc import tilde_w, young_block_element

    d = BraneDiagram.parse("0/1/2/3/5\\3\\0")
    m = d.margins()
    comp_r, comp_c = Composition(m.r), Composition(m.c)
    D = bct_to_tie(d, ((1, 1), (0, 1), (1, 0), (0, 1)))
    u = [W("21"), W("231")]
    R = resolve_tie(D, u)
    u_inv = young_block_element(comp_c, [x.inverse() for x in u])
    w = u_inv * tilde_w(D.bct, comp_r, comp_c)
    assert R.bct == coset_matrix_Z(w, comp_r, Composition((1,) * m.n))


def test_simple_moves_golden():
    d = BraneDiagram.parse("0/1/3/4/5\\4\\3\\1\\0")
    D = TieDiagram(
        d,
        [
            (("V", 4), ("U", 3)),
            (("V", 3), ("U", 2)),
            (("V", 3), ("U", 4)),
            (("V", 2), ("U", 1)),
            (("V", 1), ("U", 3)),
        ],
    )
    assert D.bct == ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0))
    moves = simple_moves(D)
    assert len(moves) == 5
    assert d.interval_index(3) == 2
    rel = simple_moves_rel(D, Permutation.identity(4), 2)
    assert len(rel) == 4
    D1 = (D.ties | {(("V", 2), ("U", 3)), (("V", 4), ("U", 1))}) - {(("V", 2), ("U", 1)), (("V", 4), ("U", 3))}
    D2 = (D.ties | {(("V", 2), ("U", 2)), (("V", 3), ("U", 1))}) - {(("V", 2), ("U", 1)), (("V", 3), ("U", 2))}
    D3 = (D.ties | {(("V", 2), ("U", 4)), (("V", 3), ("U", 1))}) - {(("V", 2), ("U", 1)), (("V", 3), ("U", 4))}
    D4 = (D.ties | {(("V", 1), ("U", 4)), (("V", 3), ("U", 3))}) - {(("V", 1), ("U", 3)), (("V", 3), ("U", 4))}
    expected = {
        TieDiagram(d, D1).key(): 1,
        TieDiagram(d, D2).key(): 1,
        TieDiagram(d, D3).key(): -1,
        TieDiagram(d, D4).key(): 1,
    }
    assert {Dp.key(): s for Dp, s in rel} == expected
    for Dp, move in moves:
        if Dp.key() in expected:
            assert move_sign(D.bct, move) == expected[Dp.key()]


def test_simple_moves_general_diagram():
    d = BraneDiagram.parse("0\\1\\2/3\\3/2\\2/0")
    D = TieDiagram(
        d,
        [
            (("U", 1), ("V", 2)),
            (("U", 2), ("V", 1)),
            (("U", 4), ("V", 1)),
            (("V", 3), ("U", 4)),
        ],
    )
    assert D.bct == ((1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 1))
    moves = simple_moves(D)
    keys = {Dp.key() for Dp, _ in moves}
    assert keys == {
        bct_key(((0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1))),
        bct_key(((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 0))),
        bct_key(((1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 0))),
    }
    # interval decomposition of the black lines
    assert [d.interval_index(j) for j in range(1, 9)] == [3, 3, 3, 2, 2, 1, 1, 0]


def test_sign_matches_length_parity():
    # The parity of l(tilde_w) + l(tilde_y) reproduces the move sign whenever
    # the twisted representative lands in the left coset of tilde_w, which is
    # automatic when no further 1-entry of the moved column block lies
    # strictly between the moving rows (in particular always for unit column
    # margins).  The second loop pins a move where the coset premise fails.
    from bowcalc.permcalc import min_rep_left, tilde_w, tilde_y

    checked = broken = 0
    for text in ["0/1/3/4/5\\4\\3\\1\\0", "0/1/3/5\\3\\2\\0", "0/1/2/4/6\\5\\4\\3\\2\\1\\0"]:
        d = BraneDiagram.parse(text)
        m = d.margins()
        comp_r, comp_c = Composition(m.r), Composition(m.c)
        for A in enumerate_bct(d):
            D = bct_to_tie(d, A)
            for Dp, move in simple_moves(D):
                wD = tilde_w(D.bct, comp_r, comp_c)
                yD = tilde_y(Dp.bct, comp_r, comp_c, move)
                lw = tilde_w(Dp.bct, comp_r, comp_c).length()
                assert yD.length() < lw and (yD.length() - lw) % 2 == 1
                if min_rep_left(yD, comp_r) == wD:
                    checked += 1
                    assert (-1) ** (wD.length() + yD.length()) == move_sign(D.bct, move)
                else:
                    broken += 1
    assert checked > 30
    # the coset premise genuinely fails on some moves with column margin 2
    d = BraneDiagram.parse("0/1/3/4/5\\4\\3\\1\\0")
    m = d.margins()
    comp_r, comp_c = Composition(m.r), Composition(m.c)
    A = ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 0))
    D = bct_to_tie(d, A)
    move = (2, 4, 2, 3)
    assert any(mv == move for _, mv in simple_moves(D))
    Dp = next(Dp for Dp, mv in simple_moves(D) if mv == move)
    yD = tilde_y(Dp.bct, comp_r, comp_c, move)
    assert min_rep_left(yD, comp_r) != tilde_w(D.bct, comp_r, comp_c)
    assert broken > 0


def test_render_golden():
    d = BraneDiagram.parse(EXAMPLE_DIAGRAM)
    D = TieDiagram(d, EXAMPLE_TIES)
    art = render_ascii(D)
    lines = art.splitlines()
    assert " 0\\2/3\\4\\4/3\\2/0" in lines
    # two stacked arc rows above, three below
    base_at = lines.index(" 0\\2/3\\4\\4/3\\2/0")
    assert base_at == 2 and len(lines) == 6
    grid = render_bct(D)
    assert "path: (0,0) (1,0) (1,1) (2,1) (3,1) (3,2) (4,2) (4,3)" in grid
    assert "V1 | 1  0  0  1" in grid
    bare = render_ascii(TieDiagram(BraneDiagram.parse("0/0"), []))
    assert bare.strip() == "0/0"

