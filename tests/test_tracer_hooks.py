"""The benchmark's tracer wraps bowcalc's functions by name from outside
(``bench/tracer.py``).  Installing and uninstalling it here makes a deleted
or renamed traced name fail the test suite, not only a traced benchmark run,
and checks that uninstalling leaves every function as it was."""

import importlib.util
from pathlib import Path

import bowcalc
from bowcalc import chevalley, cli, diagrams, exactalg, permcalc, stabloc

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
OWNERS = (
    bowcalc, chevalley, cli, diagrams, exactalg, permcalc, stabloc,
    exactalg.MultiPoly, exactalg.LocalizedScalar, exactalg.RingMap,
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bowcalc_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {owner.__name__: dict(vars(owner)) for owner in OWNERS}


def test_tracer_installs_and_uninstalls_cleanly():
    before = _snapshot()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        during = _snapshot()
        for owner, name in (
            ("bowcalc.chevalley", "_pairing_terms"),
            ("bowcalc.chevalley", "gram_matrix"),
            ("bowcalc.exactalg", "factor_s_forms"),
            ("bowcalc.stabloc", "restrict_taut"),
            ("LocalizedScalar", "_reduce"),
            ("MultiPoly", "__mul__"),
            ("MultiPoly", "exact_div"),
            ("RingMap", "__call__"),
        ):
            assert during[owner][name] is not before[owner][name]
    finally:
        tracer.uninstall()
    after = _snapshot()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys()
        assert all(after[owner][k] is v for k, v in names.items()), owner
