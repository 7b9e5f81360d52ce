import hashlib
import json

import pytest

from bowcalc import chevalley
from bowcalc.cli import MATH_ERROR, USAGE_ERROR, build_parser, main
from bowcalc.diagrams import BraneDiagram
from bowcalc.exactalg import MultiPoly
from bowcalc.permcalc import Permutation
from bowcalc.stabloc import factored_grid

RES = "0/1/3/5\\3\\2\\0"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fixed_points(capsys):
    code, out, _ = run(capsys, "fixed-points", "--diagram", RES, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "bowcalc/1"
    assert data["result"]["count"] == 5
    keys = [p["key"] for p in data["result"]["points"]]
    assert keys == sorted(keys)


def test_byte_identical_output(capsys):
    args = ("stab", "--diagram", RES, "--eval", "101101010", "--arg", "101110001", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_stab_golden(capsys):
    code, out, _ = run(
        capsys,
        "stab",
        "--diagram", RES,
        "--eval", "101101010",
        "--arg", "101110001",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == "t1*t2*h - t1*t3*h + t1*h^2 - t2^2*h + t2*t3*h - t3*h^2 + h^3"


def test_restrict_golden(capsys):
    code, out, _ = run(
        capsys,
        "restrict",
        "--diagram", "0/2/3/4/5\\4/4\\1/0",
        "--tie", "010101101011",
        "--bundle", "2",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["euler"] == "t1*t2 - 4*t1*h - 3*t2*h + 12*h^2"
    assert data["result"]["weights"] == [
        {"t": [0, 1], "h": -4},
        {"t": [1, 0], "h": -3},
    ]


def test_cm_column(capsys):
    code, out, _ = run(
        capsys, "cm", "--diagram", "0/1/3/4/5\\4\\3\\1\\0", "--bundle", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    offdiag = [e for e in data["result"]["entries"] if e["row"] != e["col"]]
    assert all(e["value"] in ("h", "-h") for e in offdiag)


def test_verify_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "0/1/2\\1\\0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["report"]["ok"] is True


def test_verify_json_bytes_are_pinned(capsys):
    # the stdout of the 27-point verify, byte for byte, as in the benchmark
    code, out, _ = run(capsys, "verify", "--json", "--diagram", "0/1/3/4/5\\4\\3\\1\\0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a293b2c920cdc1b1b438527d62a1185e86d74bfe450d43bce1c521ec841d2c6c"
    )


def test_hw(capsys):
    code, out, _ = run(capsys, "hw", "--diagram", "0\\1/0", "--position", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["result"] == "0/0\\0"
    code, _, err = run(capsys, "hw", "--diagram", "0\\2/0", "--position", "2", "--json")
    assert code == 3


def test_separate(capsys):
    code, out, _ = run(capsys, "separate", "--diagram", "0/1/2/4\\4\\4\\4\\4\\4\\4/0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["separated"] == "0/1/2/4/6\\5\\4\\3\\2\\1\\0"
    assert len(data["result"]["moves"]) == 6


def test_inadmissible_diagram(capsys):
    code, _, err = run(capsys, "fixed-points", "--diagram", "0/2\\2\\0", "--json")
    assert code == 3
    assert "inadmissible" in err or "invalid" in err
    code, _, err = run(capsys, "fixed-points", "--diagram", "0/2\\0", "--json")
    assert code == 3
    assert err == "error: inadmissible diagram: no 0/1 table with margins r=[2] c=[2]\n"
    code, _, err = run(capsys, "fixed-points", "--diagram", "0/1\\2\\0", "--json")
    assert code == 3
    assert err == "error: invalid margins: negative margin; diagram is invalid\n"


def test_bad_tie_key(capsys):
    code, _, err = run(capsys, "restrict", "--diagram", RES, "--tie", "111", "--bundle", "2")
    assert code == 3
    assert err == "error: bad tie key '111': not a fixed point of 0/1/3/5\\3\\2\\0\n"
    # the right length, but the margins are not the diagram's
    code, _, err = run(capsys, "render", "--diagram", RES, "--tie", "000000000")
    assert code == 3
    assert err == "error: bad tie key '000000000': not a fixed point of 0/1/3/5\\3\\2\\0\n"


@pytest.mark.parametrize("bundle", ["99", "-1"])
def test_verify_checks_bundle_before_any_work(capsys, monkeypatch, bundle):
    def fail(*args):
        raise AssertionError("orthogonality ran before the bundle check")

    monkeypatch.setattr(chevalley, "check_orthogonality", fail)
    code, out, err = run(capsys, "verify", "--diagram", RES, "--bundle", bundle)
    assert code == 3
    assert out == ""
    assert err == "error: black line index out of range\n"


@pytest.mark.parametrize("diagram", ["0\\2/2/2/1/1\\0", "0\\2/2/2/2\\0\\0"])
def test_verify_factors_tangent_forms_past_the_labels(capsys, diagram):
    # the tangent class at the last fixed point has the form t1 - t2 + 5h,
    # whose |m| is more than the largest label plus 2
    code, out, err = run(capsys, "verify", "--diagram", diagram)
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "overall: pass"


def test_render(capsys):
    code, out, _ = run(
        capsys, "render", "--diagram", RES, "--tie", "101101010", "--bct"
    )
    assert code == 0
    assert "path:" in out


def test_stab_table(capsys):
    code, out, _ = run(capsys, "stab", "--diagram", "0/1/2\\1\\0", "--all", "--json")
    assert code == 0
    data = json.loads(out)
    rows = data["result"]["rows"]
    assert set(rows) == {"0110", "1001"}
    assert rows["1001"]["0110"] == "0"  # triangularity


def test_pair_orthogonality(capsys):
    code, out, _ = run(
        capsys,
        "pair",
        "--diagram", "0/1/2\\1\\0",
        "--tie", "1001",
        "--tie2", "1001",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == "1"
    code, out, _ = run(
        capsys,
        "pair",
        "--diagram", "0/1/2\\1\\0",
        "--tie", "1001",
        "--tie2", "0110",
        "--json",
    )
    assert json.loads(out)["result"]["value"] == "0"


@pytest.mark.parametrize("defect", ["cycle", "zero-diagonal", "zero-diagonal-without-terms"])
def test_cm_oracle_non_triangular_grid(capsys, monkeypatch, defect):
    # a grid that is not triangular is an invariant violation, not a traceback;
    # a zero diagonal fails even at a fixed point whose row has no term to
    # divide, one with no other nonzero entry
    d = BraneDiagram.parse(RES)
    rows, grid = factored_grid(d, Permutation.identity(d.N))
    t, x = min(k for k, v in grid.items() if k[0] != k[1] and not v.is_zero())
    bad = dict(grid)
    if defect == "cycle":
        bad[(x, t)] = MultiPoly.h(d.N)
    elif defect == "zero-diagonal":
        bad[(t, t)] = MultiPoly.zero(d.N)
    else:
        keys = {k[0] for k in grid}
        lone = [k for k in keys if all(grid[(k, y)].is_zero() for y in keys if y != k)]
        assert lone
        bad[(lone[0], lone[0])] = MultiPoly.zero(d.N)
    monkeypatch.setattr(chevalley, "factored_grid", lambda diagram, z, normalized=False: (rows, bad))
    # the oracle and its solve plan are memoized: solve afresh on the patched grid
    monkeypatch.setattr(chevalley, "cm_matrix_oracle", chevalley.cm_matrix_oracle.__wrapped__)
    monkeypatch.setattr(chevalley, "_solve_plan", chevalley._solve_plan.__wrapped__)
    code, out, err = run(capsys, "cm", "--diagram", RES, "--bundle", "2", "--oracle", "--json")
    assert code == MATH_ERROR
    assert out == ""
    assert err.startswith("error: internal invariant violated: ")


def test_one_parser_serves_every_call(capsys):
    # main reads one parser per process: a usage error leaves nothing behind
    # that a later call would see, and each call prints what its first did
    calls = [("stab", "--diagram", RES, "--all", "--bogus"), ("stab", "--diagram", RES, "--all", "--json")]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [USAGE_ERROR, 0]
    assert "unrecognized arguments: --bogus" in first[0][2] and json.loads(first[1][1])["result"]
    assert [run(capsys, *argv) for argv in calls] == first
    assert build_parser() is build_parser()
