"""The one memo of the package: a keyed store for the tables that many
queries read, and the one read-only rule for the values it shares.

It holds, per diagram, the fixed-point table (``diagrams._fixed_points``,
which ``enumerate_ties`` lists) and the Chern tables
(``stabloc._chern_table``, which ``taut_chern`` reads); the tautological
restrictions (``restrict_taut``) and, per fixed point, the counting tables
of every blue line (``stabloc._blue_tables``), which the restriction of
every bundle reads again; the stable-envelope grids, factored by rows
(``stab_tilde_grid``, ``stabloc.factored_grid``) and expanded
(``stab_grid``); the tangent Euler classes (``tangent_euler``) and their
factors (``chevalley._tangent_factors``); the Gram matrices
(``gram_matrix``); the Chevalley-Monk matrices of the formula and the oracle
(``cm_matrix``, ``cm_matrix_oracle``) and, per chamber, the oracle's solve
plan (``chevalley._solve_plan``), which the oracle of every bundle reads
again; the polynomial of each linear form in each window
(``LinearForm.as_poly``), which every trial division by a form reads;
the printed factors of each monomial in each window
(``exactalg._monomial_text``), whose table every ``str()`` of a polynomial
reads; and the command line parser (``cli.build_parser``), which every
call of ``cli.main`` reads and none changes.  A table is memoized only
where a workload reads it again."""

import functools
from types import MappingProxyType


class ReadOnly:
    """Base of every class whose instances the memo shares.

    A subclass lists its fields in ``__slots__`` and its constructor sets
    them through ``object.__setattr__``; any later assignment or deletion
    raises ``AttributeError``.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is read-only" % type(self).__name__)

    __delattr__ = __setattr__


def memo(key):
    """Memoize a function under ``key(*args, **kwargs)``.

    Each result is stored once and read-only: a dict result is kept behind a
    ``MappingProxyType``, and the values in it are ``ReadOnly`` instances,
    polynomials (whose term table is read through a view) and tuples, so no
    caller can change what later callers read.
    A repeated call returns the identical object; a call that raises stores
    nothing.  The wrapper's ``store`` is a read-only view of the table,
    keyed like ``key``, for a hot loop that reads it without a call.  The
    store has no bound: every workload reads a handful of tables again and
    again, and evicting one would rebuild it.
    """

    def wrap(fn):
        store = {}

        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            k = key(*args, **kwargs)
            result = store.get(k)
            if result is None:
                result = fn(*args, **kwargs)
                if isinstance(result, dict):
                    result = MappingProxyType(result)
                store[k] = result
            return result

        memoized.store = MappingProxyType(store)
        return memoized

    return wrap
