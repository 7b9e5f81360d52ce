"""The twisted simple moves of the identity chamber are the plain simple moves
whose rows straddle the interval, each with its move sign."""

from bowcalc.diagrams import (
    BraneDiagram,
    enumerate_ties,
    move_sign,
    simple_moves,
    simple_moves_rel,
)
from bowcalc.permcalc import Permutation


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
