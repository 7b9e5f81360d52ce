"""Command line front end.

One binary with subcommands; every command accepts ``--json`` for a canonical
machine-readable envelope (sorted keys, no volatile fields, byte-identical
across runs) and prints a human-readable summary otherwise.

Exit codes: 0 success, 1 usage error, 2 mathematical invariant violation,
3 inadmissible input.
"""

import argparse
import json
import sys
from graphlib import CycleError

from .diagrams import (
    BraneDiagram,
    DiagramError,
    _fixed_points,
    hanany_witten,
    render_ascii,
    render_bct,
    separate,
)
from .exactalg import NonPolynomialError, NotDivisibleError
from .memo import memo
from .permcalc import Permutation
from . import chevalley, stabloc

SCHEMA = "bowcalc/1"

USAGE_ERROR = 1
MATH_ERROR = 2
INADMISSIBLE = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _diagram(args):
    try:
        d = BraneDiagram.parse(args.diagram)
    except DiagramError as e:
        raise CliError("bad diagram: %s" % e, INADMISSIBLE)
    return d


def _admissible_diagram(args):
    d = _diagram(args)
    d.admissible_margins()  # a DiagramError exits INADMISSIBLE in main()
    return d


def _chamber(args, d):
    text = getattr(args, "chamber", None)
    if not text:
        return Permutation.identity(d.N)
    try:
        z = Permutation.parse(text)
    except ValueError as e:
        raise CliError("bad chamber: %s" % e, USAGE_ERROR)
    if z.n != d.N:
        raise CliError(
            "chamber window %d does not match %d blue lines" % (z.n, d.N), USAGE_ERROR
        )
    return z


def _tie(d, key):
    D = _fixed_points(d).get(key)
    if D is None:
        raise CliError("bad tie key %r: not a fixed point of %s" % (key, d.format()), INADMISSIBLE)
    return D


def emit(args, command, inputs, result, pretty_lines=None):
    if args.json:
        envelope = {
            "schema": SCHEMA,
            "command": command,
            "inputs": inputs,
            "result": result,
        }
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    else:
        for line in pretty_lines or [str(result)]:
            print(line)


def cmd_fixed_points(args):
    d = _admissible_diagram(args)
    points = [
        {
            "key": key,
            "bct": [list(row) for row in D.bct],
            "ties": [["%s%d" % a, "%s%d" % b] for a, b in D.sorted_ties()],
        }
        for key, D in _fixed_points(d).items()
    ]
    m = d.margins()
    result = {
        "diagram": d.format(),
        "count": len(points),
        "margins": {"r": list(m.r), "c": list(m.c)},
        "points": points,
    }
    lines = ["%s: %d fixed points, r=%s c=%s" % (d.format(), len(points), list(m.r), list(m.c))]
    lines += ["  %s" % p["key"] for p in points]
    emit(args, "fixed-points", {"diagram": args.diagram}, result, lines)


def cmd_restrict(args):
    d = _admissible_diagram(args)
    D = _tie(d, args.tie)
    ch = stabloc.restrict_taut(D, args.bundle)
    chern = stabloc.taut_chern(D, args.bundle)
    weights = [{"t": [w[i] for i in range(d.N)], "h": w[-1]} for w in ch.weights]
    result = {
        "diagram": d.format(),
        "tie": args.tie,
        "bundle": args.bundle,
        "weights": weights,
        "chern": str(chern),
        "euler": str(ch.euler()) if ch.weights else "1",
    }
    lines = [
        "restriction of bundle %d at %s:" % (args.bundle, args.tie),
        "  character: %s" % ch,
        "  c1: %s" % chern,
    ]
    emit(args, "restrict", {"diagram": args.diagram, "tie": args.tie, "bundle": args.bundle}, result, lines)


def cmd_stab(args):
    d = _admissible_diagram(args)
    z = _chamber(args, d)
    if args.all:
        grid = stabloc.stab_grid(d, z, normalized=args.normalized)
        basis = sorted({k for k, _ in grid})
        rows = {
            e: {a: str(grid[(e, a)]) for a in basis} for e in basis
        }
        result = {
            "diagram": d.format(),
            "chamber": str(z),
            "normalized": bool(args.normalized),
            "rows": rows,
        }
        lines = ["stab table, chamber %s:" % z]
        lines += [
            "  [%s, %s] = %s" % (e, a, rows[e][a])
            for e in basis
            for a in basis
            if rows[e][a] != "0"
        ]
        emit(args, "stab", {"diagram": args.diagram, "chamber": str(z), "all": True}, result, lines)
        return
    if not args.eval or not args.arg:
        raise CliError("need --eval and --arg (or --all)", USAGE_ERROR)
    De = _tie(d, args.eval)
    Da = _tie(d, args.arg)
    value = stabloc.stab_restriction(d, z, De, Da, normalized=args.normalized)
    result = {
        "diagram": d.format(),
        "chamber": str(z),
        "eval": args.eval,
        "arg": args.arg,
        "normalized": bool(args.normalized),
        "value": str(value),
        "structured": value.structured(),
    }
    emit(
        args,
        "stab",
        {k: getattr(args, k) for k in ("diagram", "chamber", "eval", "arg")},
        result,
        ["%s" % value],
    )


def cmd_cm(args):
    d = _admissible_diagram(args)
    z = _chamber(args, d)
    matrix = chevalley.cm_matrix(d, z, args.bundle)
    if args.oracle:
        oracle = chevalley.cm_matrix_oracle(d, z, args.bundle)
        if not matrix == oracle:
            raise CliError("multiplication formula disagrees with the triangular-solve oracle", MATH_ERROR)
    result = matrix.to_json()
    lines = ["cm matrix for bundle %d, chamber %s:" % (args.bundle, z)]
    lines += [
        "  [%s, %s] = %s" % (r, c, v["value"])
        for (r, c), v in zip(sorted(matrix.entries), result["entries"])
    ]
    emit(args, "cm", {"diagram": args.diagram, "bundle": args.bundle, "chamber": str(z)}, result, lines)


def cmd_pair(args):
    d = _admissible_diagram(args)
    z = _chamber(args, d)
    Da = _tie(d, args.tie)
    Db = _tie(d, args.tie2)
    keys = list(_fixed_points(d))
    grid_c = stabloc.stab_grid(d, z)
    grid_op = stabloc.stab_grid(d, stabloc.opposite_chamber(z))
    vec_a = {k: grid_c[(k, Da.key())] for k in keys}
    vec_b = {k: grid_op[(k, Db.key())] for k in keys}
    value = chevalley.virtual_pairing(d, z, vec_a, vec_b)
    result = {
        "diagram": d.format(),
        "chamber": str(z),
        "tie": args.tie,
        "tie2": args.tie2,
        "value": str(value),
        "polynomial": value.is_polynomial(),
    }
    emit(args, "pair", {"diagram": args.diagram, "tie": args.tie, "tie2": args.tie2}, result, [str(value)])


def cmd_verify(args):
    d = _admissible_diagram(args)
    bundles = None
    if args.bundle:
        bundles = [args.bundle]
    report = chevalley.verify(d, bundles=bundles, seed=args.seed)
    result = {"diagram": d.format(), "report": report}
    lines = ["verify %s:" % d.format()]
    for name, entry in sorted(report.items()):
        if isinstance(entry, dict):
            lines.append("  %-18s %s" % (name, "pass" if entry["ok"] else "FAIL"))
    lines.append("overall: %s" % ("pass" if report["ok"] else "FAIL"))
    emit(args, "verify", {"diagram": args.diagram, "seed": args.seed}, result, lines)
    if not report["ok"]:
        raise CliError("verification failed", MATH_ERROR)


def cmd_render(args):
    d = _admissible_diagram(args)
    if args.tie:
        D = _tie(d, args.tie)
        text = render_ascii(D)
        if args.bct:
            text += "\n" + render_bct(D)
    else:
        text = " " + d.format()
    result = {"diagram": d.format(), "text": text}
    emit(args, "render", {"diagram": args.diagram, "tie": args.tie}, result, [text])


def cmd_hw(args):
    d = _diagram(args)
    try:
        d2, j0, i0 = hanany_witten(d, args.position)
    except DiagramError as e:
        raise CliError(str(e), INADMISSIBLE)
    result = {
        "diagram": d.format(),
        "position": args.position,
        "result": d2.format(),
        "blue": j0,
        "red": i0,
    }
    emit(
        args,
        "hw",
        {"diagram": args.diagram, "position": args.position},
        result,
        ["%s -> %s (U%d, V%d)" % (d.format(), d2.format(), j0, i0)],
    )


def cmd_separate(args):
    d = _diagram(args)
    d2, moves = separate(d)
    result = {
        "diagram": d.format(),
        "separated": d2.format(),
        "moves": [{"position": k, "blue": j0, "red": i0} for k, j0, i0 in moves],
    }
    emit(
        args,
        "separate",
        {"diagram": args.diagram},
        result,
        ["%s -> %s in %d moves" % (d.format(), d2.format(), len(moves))],
    )


@memo(lambda: ())
def build_parser():
    parser = argparse.ArgumentParser(
        prog="bowcalc",
        description="Exact fixed-point calculus for type A bow varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, chamber=False, tie=False, bundle=False):
        p.add_argument("--diagram", required=True, help="brane diagram, e.g. 0/1/3/5\\3\\2\\0")
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        if chamber:
            p.add_argument("--chamber", default="", help="one-line permutation, e.g. 1,3,2")
        if tie:
            p.add_argument("--tie", required=True, help="fixed point key (row-major BCT bits)")
        if bundle:
            p.add_argument("--bundle", type=int, required=True, help="1-based black line index")

    p = sub.add_parser("fixed-points", help="enumerate the fixed points")
    common(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("restrict", help="tautological bundle restriction at a fixed point")
    common(p, tie=True, bundle=True)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("stab", help="stable envelope multiplicity")
    common(p, chamber=True)
    p.add_argument("--eval", default="", help="fixed point restricted at")
    p.add_argument("--arg", default="", help="fixed point labeling the class")
    p.add_argument("--all", action="store_true", help="emit the full table")
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_stab)

    p = sub.add_parser("cm", help="multiplication matrix of a first Chern class")
    common(p, chamber=True, bundle=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against the triangular solve on the stable grid")
    p.set_defaults(func=cmd_cm)

    p = sub.add_parser("pair", help="virtual intersection pairing of two stable classes")
    common(p, chamber=True, tie=True)
    p.add_argument("--tie2", required=True, help="second fixed point key")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("verify", help="run the identity checks on a diagram")
    common(p)
    p.add_argument("--bundle", type=int, default=0, help="restrict to one bundle index")
    p.add_argument("--seed", type=int, default=0, help="seed for the random chamber")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="ASCII picture of a diagram or fixed point")
    common(p)
    p.add_argument("--tie", default="", help="fixed point key to draw")
    p.add_argument("--bct", action="store_true", help="also print the table with its lattice path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("hw", help="one transition at a blue/red adjacency")
    common(p)
    p.add_argument("--position", type=int, required=True, help="black line index")
    p.set_defaults(func=cmd_hw)

    p = sub.add_parser("separate", help="full transition sequence to separated form")
    common(p)
    p.set_defaults(func=cmd_separate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        args.func(args)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    except (NotDivisibleError, NonPolynomialError, ZeroDivisionError, CycleError) as e:
        print("error: internal invariant violated: %s" % e, file=sys.stderr)
        return MATH_ERROR
    except DiagramError as e:
        print("error: %s" % e, file=sys.stderr)
        return INADMISSIBLE
    return 0


if __name__ == "__main__":
    sys.exit(main())
