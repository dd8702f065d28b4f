"""Wall-clock-free guards: count the numpy calls a code path makes.

A test that must not regress in speed asserts *which* calls a run
makes, not how long it takes.  ``tests/conftest.py`` puts this
directory on ``sys.path``: import it as ``from numpy_counters import
...``.
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
