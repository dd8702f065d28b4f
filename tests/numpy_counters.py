"""Wall-clock-free guards: count the numpy calls a code path makes.

A test that must not regress in speed asserts *which* calls a run
makes, not how long it takes.  ``tests/conftest.py`` puts this
directory on ``sys.path``: import it as ``from numpy_counters import
...``.  :func:`numpy_calls` patches one ``np.<name>`` function;
:func:`builtin_calls` also sees ndarray methods, which cannot be
patched.
"""

import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np


def caller_module(frame, args):
    return frame.f_globals["__name__"]


@contextmanager
def numpy_calls(name, note=caller_module):
    """What *note* ``(frame, args)`` says about every ``np.<name>`` call
    made inside the block — by default the calling module's name."""
    notes = []
    real = getattr(np, name)

    def counted(*args, **kwargs):
        notes.append(note(sys._getframe(1), args))
        return real(*args, **kwargs)

    with mock.patch.object(np, name, counted):
        yield notes


def lexsort_callers():
    """Module name of every ``np.lexsort`` caller inside the block
    (ingest sorts unordered rows with it; no block sorts with it)."""
    return numpy_calls("lexsort")


@contextmanager
def builtin_calls(module):
    """``(name, size)`` of every builtin function or method called from
    *module*'s own frames inside the block, in call order; ``size`` is
    that of the ndarray a method is bound to (``head.nonzero()`` notes
    ``("nonzero", head.size)``), else ``None``.  Read from
    ``sys.setprofile``'s ``c_call`` events, so ndarray methods count
    too; numpy functions that dispatch on their arguments
    (``np.bincount``, ``np.concatenate``) are not builtins and do not."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_globals.get("__name__") == module:
            bound = getattr(arg, "__self__", None)
            calls.append((arg.__name__, bound.size if isinstance(bound, np.ndarray)
                          else None))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)
