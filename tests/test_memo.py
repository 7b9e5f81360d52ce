"""The memoized tables are shared read-only: a repeated call returns the same
object, a caller cannot change what later callers read, and a failed call
stores nothing."""

from types import MappingProxyType

import pytest

from bowcalc.chevalley import (
    _pairing_terms,
    _solve_plan,
    _tangent_factors,
    check_orthogonality,
    cm_matrix,
    cm_matrix_oracle,
    gram_matrix,
)
from bowcalc.diagrams import (
    BraneDiagram,
    DiagramError,
    TieDiagram,
    _fixed_points,
    bct_key,
    enumerate_bct,
    enumerate_ties,
    essential,
    separate,
)
from bowcalc.exactalg import MultiPoly
from bowcalc.permcalc import Permutation
from bowcalc.stabloc import (
    _blue_tables,
    _chern_table,
    opposite_chamber,
    restrict_taut,
    stab_grid,
    stab_tilde_grid,
    tangent_euler,
    taut_chern,
    taut_tables,
)

DIAGRAM = "0/1/2\\1\\0"


def _snapshot(table):
    return {k: str(v) for k, v in table.items()}


def test_stab_grid_is_shared_and_read_only():
    d = BraneDiagram.parse(DIAGRAM)
    z = Permutation.identity(d.N)
    g = stab_grid(d, z)
    before = _snapshot(g)
    k = next(iter(g))
    with pytest.raises(TypeError):
        g[k] = MultiPoly.zero(d.N)
    with pytest.raises(TypeError):
        del g[k]
    again = stab_grid(d, z)
    assert again is g
    assert _snapshot(again) == before
    assert stab_grid(d, z, normalized=True) is stab_grid(d, z, normalized=True)
    assert stab_grid(d, z, normalized=True) is not g


def test_stab_tilde_grid_is_shared_and_read_only():
    d = essential(separate(BraneDiagram.parse("0/1/2/4\\3\\2\\1\\0"))[0])[0]
    g = stab_tilde_grid(d)
    rows, cofactors = g
    before = _snapshot(cofactors), _snapshot(rows)
    k = next(iter(cofactors))
    with pytest.raises(TypeError):
        cofactors[k] = MultiPoly.zero(d.N)
    with pytest.raises(TypeError):
        rows[k[0]] = ()
    assert isinstance(g, tuple) and all(isinstance(forms, tuple) for forms in rows.values())
    assert stab_tilde_grid(d) is g
    assert (_snapshot(cofactors), _snapshot(rows)) == before


def test_fixed_point_table_is_shared_and_read_only():
    d = BraneDiagram.parse("0/1/3/5\\3\\2\\0")
    points = _fixed_points(d)
    assert isinstance(points, MappingProxyType)
    assert _fixed_points(d) is points
    assert list(points) == [bct_key(A) for A in enumerate_bct(d)]
    assert list(points.values()) == enumerate_ties(d)
    with pytest.raises(TypeError):
        points[next(iter(points))] = None


def test_enumerate_ties_lists_the_shared_read_only_table():
    d = BraneDiagram.parse("0/1/3/5\\3\\2\\0")
    ties = enumerate_ties(d)
    D = ties[0]
    with pytest.raises(AttributeError):
        D.ties = frozenset()
    with pytest.raises(AttributeError):
        del D.bct
    ties.append(D)
    ties.clear()
    again = enumerate_ties(d)
    assert again is not ties
    assert len(again) == len(_fixed_points(d))
    assert all(a is b for a, b in zip(again, _fixed_points(d).values()))
    assert again[0] is D


def test_query_results_are_shared():
    d = BraneDiagram.parse("0/1/3/5\\3\\2\\0")
    z = Permutation.longest(d.N)
    D = enumerate_ties(d)[1]
    assert cm_matrix(d, z, 3) is cm_matrix(d, z, 3)
    assert cm_matrix(d, z, 3) is not cm_matrix(d, z, 2)
    assert tangent_euler(d, z, D) is tangent_euler(d, z, D)
    assert taut_chern(D, 3) is taut_chern(D, 3) is _chern_table(d, 3)[D.key()]
    # an equal tie diagram built by the caller reads the same entry
    assert taut_chern(TieDiagram(d, D.ties), 3) is taut_chern(D, 3)
    assert restrict_taut(D, 3) is restrict_taut(TieDiagram(d, D.ties), 3)
    assert restrict_taut(D, 3) is not restrict_taut(D, 2)


def test_out_of_range_bundle_raises_and_stores_nothing():
    d = BraneDiagram.parse(DIAGRAM)
    z = Permutation.identity(d.N)
    D = enumerate_ties(d)[0]
    for _ in range(2):
        for bad in (0, d.num_black + 1):
            with pytest.raises(DiagramError):
                taut_chern(D, bad)
            with pytest.raises(DiagramError):
                restrict_taut(D, bad)
            with pytest.raises(DiagramError):
                _chern_table(d, bad)
            with pytest.raises(DiagramError):
                cm_matrix(d, z, bad)


def test_pairing_tables_are_shared_and_read_only():
    d = BraneDiagram.parse(DIAGRAM)
    z = Permutation.identity(d.N)
    # the summands are not memoized, only the Gram matrix that adds them up
    terms = _pairing_terms(d, z)
    before = {k: [(tk, str(s)) for tk, s in v] for k, v in terms.items()}
    k = next(iter(terms))
    assert all(isinstance(v, tuple) for v in terms.values())
    again = _pairing_terms(d, z)
    assert again is not terms
    assert {k: [(tk, str(s)) for tk, s in v] for k, v in again.items()} == before

    for chamber in (z, opposite_chamber(z)):  # summed, and read as a transpose
        gram = gram_matrix(d, chamber)
        with pytest.raises(TypeError):
            gram[k] = None
        assert gram_matrix(d, chamber) is gram

    tangent = _tangent_factors(d, z)
    with pytest.raises(TypeError):
        tangent[k[0]] = None
    assert all(isinstance(forms, tuple) for _, _, forms in tangent.values())
    assert _tangent_factors(d, z) is tangent

    chern = _chern_table(d, 2)
    with pytest.raises(TypeError):
        chern[k[0]] = MultiPoly.zero(d.N)
    assert _chern_table(d, 2) is chern


def test_oracle_matrix_is_shared_and_read_only():
    d = BraneDiagram.parse(DIAGRAM)
    z = Permutation.identity(d.N)
    matrix = cm_matrix_oracle(d, z, 2)
    before = matrix.to_json()
    k = next(iter(matrix.entries))
    with pytest.raises(TypeError):
        matrix.entries[k] = MultiPoly.zero(d.N)
    with pytest.raises(TypeError):
        del matrix.entries[k]
    with pytest.raises(TypeError):
        matrix.basis[0] = k[0]
    shifted = matrix.add_scalar_diagonal(MultiPoly.h(d.N))
    assert shifted.entries is not matrix.entries
    again = cm_matrix_oracle(d, z, 2)
    assert again is matrix
    assert again.to_json() == before
    assert cm_matrix_oracle(d, z, 1) is not matrix


def test_solve_plan_and_blue_tables_are_shared_and_read_only():
    # one solve plan per chamber serves every bundle's oracle, and one tuple
    # of blue-line tables per fixed point serves every bundle's restriction
    d = BraneDiagram.parse("0/1/3/5\\3\\2\\0")
    z = Permutation.identity(d.N)
    plan = _solve_plan(d, z)
    for j in range(1, d.num_black + 1):
        cm_matrix_oracle(d, z, j)
    assert _solve_plan(d, z) is plan
    assert isinstance(plan, tuple) and all(isinstance(above, tuple) for _, above, _ in plan)
    assert sorted(T for T, _, _ in plan) == sorted(_fixed_points(d))
    for D in enumerate_ties(d):
        tables = _blue_tables(D)
        for j in range(1, d.num_black + 1):
            restrict_taut(D, j)
        assert _blue_tables(D) is tables
        for j, pair in enumerate(tables, start=1):
            assert [dict(enumerate(t, start=1)) for t in pair] == list(taut_tables(D, j))
        assert all(isinstance(t, tuple) for pair in tables for t in pair)


def test_shared_values_are_immutable():
    d = BraneDiagram.parse(DIAGRAM)
    z = Permutation.identity(d.N)
    key = ("0110", "0110")
    value = stab_grid(d, z)[key]
    assert str(value) == "t1 - t2"
    with pytest.raises(AttributeError):
        value.terms.clear()
    with pytest.raises(TypeError):
        value.terms[next(iter(value.terms))] = 0
    assert str(stab_grid(d, z)[key]) == "t1 - t2"

    tangent = _tangent_factors(d, z)
    form = tangent[key[0]][2][0]
    with pytest.raises(AttributeError):
        form.m = 5
    assert _tangent_factors(d, z)[key[0]][2][0] == form


def test_failed_call_is_not_stored():
    d = BraneDiagram.parse(DIAGRAM)
    for _ in range(2):
        with pytest.raises(DiagramError):
            stab_grid(d, Permutation.identity(d.N + 1))
    not_separated = BraneDiagram.parse("0\\2/3\\4\\4/3\\2/0")
    for _ in range(2):
        with pytest.raises(DiagramError):
            stab_tilde_grid(not_separated)


def test_shared_values_refuse_assignment():
    d = BraneDiagram.parse(DIAGRAM)
    z = Permutation.identity(d.N)
    terms = _pairing_terms(d, z)
    summand = next(s for v in terms.values() for _, s in v if s.denoms)
    for name, value in (("num", MultiPoly.one(d.N)), ("denoms", ())):
        with pytest.raises(AttributeError, match="LocalizedScalar is read-only"):
            setattr(summand, name, value)
        with pytest.raises(AttributeError):
            delattr(summand, name)
    for matrix in (cm_matrix(d, z, 2), cm_matrix_oracle(d, z, 2)):
        with pytest.raises(AttributeError, match="CMMatrix is read-only"):
            matrix.entries = {}
        with pytest.raises(AttributeError):
            matrix.basis = ()
        assert matrix.entries and matrix.basis
    ch = restrict_taut(enumerate_ties(d)[0], 2)
    with pytest.raises(AttributeError, match="Character is read-only"):
        ch.weights = ()
    assert ch.weights
    # a grid entry is shared by every later caller of stab_grid(d, z)
    entry = stab_grid(d, z)[("0110", "0110")]
    with pytest.raises(AttributeError):
        entry.window = 5
    with pytest.raises(AttributeError):
        del entry.window
    assert stab_grid(d, z)[("0110", "0110")].window == d.N == 2
    assert entry + MultiPoly.one(2) - MultiPoly.one(2) == entry
    assert check_orthogonality(d, z) == []


def test_a_diagram_is_read_only():
    # the fixed-point table keeps the first caller's diagram in its tie diagrams
    a = BraneDiagram.parse("0/1/3/5\\3\\2\\0")
    points = enumerate_ties(a)
    with pytest.raises(AttributeError, match="BraneDiagram is read-only"):
        a.labels = (0, 9, 9, 9, 0)
    with pytest.raises(AttributeError):
        del a.colors
    # the blue-line count and each point's key are stored once, read-only
    with pytest.raises(AttributeError):
        a.N = 4
    with pytest.raises(AttributeError):
        points[0]._key = "0" * len(points[0].key())
    assert a.N == 3 and points[0].key() == bct_key(points[0].bct)
    b = BraneDiagram.parse("0/1/3/5\\3\\2\\0")
    assert enumerate_ties(b)[0] is points[0]
    assert points[0].diagram.labels == b.labels == (0, 1, 3, 5, 3, 2, 0)


def test_a_permutation_is_read_only():
    # a memoized matrix keeps the first caller's chamber
    d = BraneDiagram.parse(DIAGRAM)
    z = cm_matrix(d, Permutation.identity(d.N), 2).chamber
    for name, value in (("one_line", (2, 1)), ("n", 3), ("_inv", None), ("_len", 1)):
        with pytest.raises(AttributeError, match="Permutation is read-only"):
            setattr(z, name, value)
    with pytest.raises(AttributeError):
        del z.one_line
    inv = z.inverse()
    assert inv.inverse() is z and z.length() == 0
    assert cm_matrix(d, Permutation.identity(d.N), 2).chamber.one_line == (1, 2)
