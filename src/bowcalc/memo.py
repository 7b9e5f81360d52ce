"""The one memo of the package: a keyed store for the tables that many
queries read.

It holds, per diagram, the fixed-point table (``diagrams._fixed_points``,
which ``enumerate_ties`` lists) and the Chern tables
(``stabloc._chern_table``, which ``taut_chern`` reads); the stable-envelope
grids (``stab_tilde_grid``, ``stab_grid``); the tangent Euler classes
(``tangent_euler``) and their factors (``chevalley._tangent_factors``); the
pairing summands (``chevalley._pairing_terms``); and the Chevalley-Monk
matrices of the formula and the oracle (``cm_matrix``,
``cm_matrix_oracle``).  ``restrict_taut`` is not memoized: a ``Character``
is mutable."""

import functools
from types import MappingProxyType


def memo(key):
    """Memoize a function under ``key(*args, **kwargs)``.

    Each result is stored once and read-only: a dict result is kept behind a
    ``MappingProxyType``, and the values in it are immutable down to a
    polynomial's term table and a linear form, so no caller can change what
    later callers read.
    A repeated call returns the identical object; a call that raises stores
    nothing.  The store has no bound: every workload reads a handful of
    tables again and again, and evicting one would rebuild it.
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

        return memoized

    return wrap
