"""Spans around calls into bowcalc's public functions, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
module namespace that holds it (``chevalley`` imports ``stab_grid`` from
``stabloc`` by name, the package re-exports most functions, and so on) and
on the classes that own traced methods.  The program itself is not edited.

Each call becomes a span (name, start, end, parent) kept in memory; ``dump``
writes them out at the end of a pass.  A span's self time is its duration
minus the durations of its direct child spans.  Besides calls and self time,
some layers keep counts read off their arguments and results, so ratios are
measured where the work happens.
"""

import gzip
import sys
import time

from bowcalc import chevalley, cli, diagrams, exactalg, permcalc, stabloc

_clock = time.perf_counter


def _terms(p):
    terms = getattr(p, "terms", None)
    return 1 if terms is None else len(terms)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.stats = {}  # name -> {"calls", "self_s", extra counters}
        self._stack = []  # [span id, name, start, child seconds, child spans]
        self._seen = {}  # name -> set of argument keys, for repeat ratios
        self._keep = []  # pairing results already counted, held for identity checks
        self._patched = []

    # -- spans ---------------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "self_s": 0.0, "parents": 0}
        return st

    def count(self, name, key, n=1):
        st = self._stat(name)
        st[key] = st.get(key, 0) + n

    def seen(self, name, key):
        """Count whether this argument key was seen before on this layer."""
        keys = self._seen.setdefault(name, set())
        self.count(name, "repeats", key in keys)
        keys.add(key)

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, name, 0.0, 0.0, 0]
        stack.append(frame)
        frame[2] = start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            dur = end - start
            st = self._stat(name)
            st["calls"] += 1
            st["self_s"] += dur - frame[3]
            st["parents"] += frame[4] > 0
            if stack:
                parent = stack[-1]
                parent[3] += dur
                parent[4] += 1
                self.spans[sid] = (sid, parent[0], name, start, end)
            else:
                self.spans[sid] = (sid, -1, name, start, end)

    # -- installation ----------------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _replace_everywhere(self, original, replacement):
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                if value is original:
                    self._replace(mod, key, replacement)

    def _wrapper(self, name, original, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            result = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__name__ = original.__name__
        wrapper.__doc__ = original.__doc__
        return wrapper

    def wrap_function(self, module, attr, name, before=None, after=None):
        """Wrap module.attr under the span ``name`` in every namespace that
        holds the same function object.  ``before(tracer, args, kwargs)``
        and ``after(tracer, args, result)`` keep counts; ``after`` runs only
        when the call returns."""
        original = getattr(module, attr)
        self._replace_everywhere(original, self._wrapper(name, original, before, after))

    def wrap_method(self, cls, attrs, name, before=None, after=None):
        """Wrap a method of cls, under each of its names in ``attrs``."""
        original = cls.__dict__[attrs[0]]
        wrapper = self._wrapper(name, original, before, after)
        for attr in attrs:
            self._replace(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def install(self):
        """Wrap the public functions of the six layers (and ``_pairing_terms``,
        a layer of its own)."""
        t = self

        # exactalg
        def mul_before(tr, args, kwargs):
            tr.count("exactalg.mul", "term_pairs", _terms(args[0]) * _terms(args[1]))

        t.wrap_method(exactalg.MultiPoly, ("__mul__", "__rmul__"), "exactalg.mul", before=mul_before)
        t.wrap_method(
            exactalg.MultiPoly, ("exact_div",), "exactalg.exact_div",
            after=lambda tr, args, result: tr.count("exactalg.exact_div", "ok"),
        )
        # _reduce cancels denominator forms of the LocalizedScalar in place
        t.wrap_method(
            exactalg.LocalizedScalar, ("_reduce",), "exactalg.localized",
            before=lambda tr, args, kwargs: tr.count("exactalg.localized", "offered", len(args[0].denoms)),
            after=lambda tr, args, result: tr.count("exactalg.localized", "kept", len(args[0].denoms)),
        )
        t.wrap_method(exactalg.RingMap, ("__call__",), "exactalg.ringmap")
        t.wrap_function(exactalg, "factor_s_forms", "exactalg.factor_s_forms")

        # permcalc
        def subword_after(tr, args, result):
            tr.count("permcalc.subword_sums", "targets", len(result))
            tr.count(
                "permcalc.subword_sums",
                "nonzero",
                sum(1 for v in result.values() if not v.is_zero()),
            )

        t.wrap_function(permcalc, "subword_sums", "permcalc.subword_sums", after=subword_after)

        young = permcalc.young_elements

        def young_counted(comp):
            for v in young(comp):
                t.count("permcalc.young_elements", "count")
                yield v

        t._replace_everywhere(young, young_counted)

        # diagrams
        t.wrap_function(diagrams, "enumerate_bct", "diagrams.enumerate_bct")
        t.wrap_function(diagrams, "simple_moves", "diagrams.simple_moves")
        t.wrap_function(diagrams, "simple_moves_rel", "diagrams.simple_moves")
        t.wrap_function(diagrams, "separate", "diagrams.separate")

        # stabloc
        t.wrap_function(stabloc, "stab_tilde_grid", "stabloc.stab_tilde_grid")

        def grid_before(tr, args, kwargs):
            d, z = args[0], args[1]
            normalized = args[2] if len(args) > 2 else kwargs.get("normalized", False)
            tr.seen("stabloc.stab_grid", (d.format(), z.one_line, bool(normalized)))

        t.wrap_function(stabloc, "stab_grid", "stabloc.stab_grid", before=grid_before)
        t.wrap_function(stabloc, "restrict_taut", "stabloc.restrict_taut")

        # chevalley
        def pairing_before(tr, args, kwargs):
            tr.seen("chevalley.pairing_terms", (args[0].format(), args[1].one_line))

        def pairing_after(tr, args, result):
            if any(r is result for r in tr._keep):
                return
            tr._keep.append(result)
            n = round(len(result) ** 0.5)
            tr.count("chevalley.pairing_terms", "summands", sum(len(v) for v in result.values()))
            tr.count("chevalley.pairing_terms", "cube", n ** 3)

        t.wrap_function(
            chevalley, "_pairing_terms", "chevalley.pairing_terms",
            before=pairing_before, after=pairing_after,
        )
        t.wrap_function(chevalley, "cm_matrix_oracle", "chevalley.cm_matrix_oracle")
        t.wrap_function(chevalley, "gram_matrix", "chevalley.gram_matrix")
        t.wrap_function(chevalley, "cm_matrix", "chevalley.cm_matrix")
        t.wrap_function(chevalley, "verify", "chevalley.verify")

        # cli
        t.wrap_function(cli, "main", "cli.main")

    # -- output ------------------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics of this pass, by name."""
        s = self.stats

        def get(name, key="calls"):
            return s.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in (
            "chevalley.pairing_terms", "chevalley.cm_matrix_oracle", "chevalley.cm_matrix",
            "exactalg.mul", "exactalg.exact_div", "exactalg.localized", "exactalg.ringmap",
            "exactalg.factor_s_forms", "permcalc.subword_sums", "stabloc.stab_tilde_grid",
            "stabloc.stab_grid", "stabloc.restrict_taut", "diagrams.enumerate_bct",
            "diagrams.simple_moves", "diagrams.separate", "cli.main",
        ):
            out[name + ".calls"] = get(name)
            out[name + ".self_s"] = get(name, "self_s")
        out["chevalley.gram_matrix.self_s"] = get("chevalley.gram_matrix", "self_s")
        out["chevalley.verify.self_s"] = get("chevalley.verify", "self_s")
        p = "chevalley.pairing_terms"
        out[p + ".repeat_ratio"] = ratio(get(p, "repeats"), get(p))
        out[p + ".nonzero_ratio"] = ratio(get(p, "summands"), get(p, "cube"))
        out["exactalg.mul.term_pairs"] = get("exactalg.mul", "term_pairs")
        out["exactalg.exact_div.ok_ratio"] = ratio(
            get("exactalg.exact_div", "ok"), get("exactalg.exact_div")
        )
        offered = get("exactalg.localized", "offered")
        out["exactalg.localized.cancel_ratio"] = ratio(offered - get("exactalg.localized", "kept"), offered)
        out["permcalc.subword_sums.nonzero_ratio"] = ratio(
            get("permcalc.subword_sums", "nonzero"), get("permcalc.subword_sums", "targets")
        )
        out["permcalc.young_elements.count"] = get("permcalc.young_elements", "count")
        out["stabloc.stab_grid.repeat_ratio"] = ratio(
            get("stabloc.stab_grid", "repeats"), get("stabloc.stab_grid")
        )
        # a call that returns from the memo has no traced child span
        out["stabloc.stab_tilde_grid.builds"] = get("stabloc.stab_tilde_grid", "parents")
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path):
        """Write the spans, gzipped, as tab-separated id, parent, name,
        start_s, end_s; a parent of -1 marks a root span."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in self.spans:
                f.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (sid, parent, name, start, end))
