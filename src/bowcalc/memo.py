"""The one memo of the package: a keyed store for the tables that many
queries read (fixed-point tables, stable-envelope grids, pairing summands,
tangent factors, Chern tables)."""

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
