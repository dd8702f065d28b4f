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


@contextmanager
def array_calls():
    """Yield ``(note, calls)``: ``note(array)`` is a view of *array* whose
    numpy operations, and those on every array made from it, are noted
    in ``calls`` as ``(name, sizes)`` -- ufuncs and operators
    (``a - b``; ``a.all()`` is ``logical_and.reduce``), functions that
    dispatch on their arguments (``np.flatnonzero``, ``np.cumsum``) and
    indexing by an array; ``sizes`` are those of the ndarray operands.
    Slices, reshapes and views are not operations.  The counters above
    see none of these calls: a ufunc is no builtin and cannot be patched.
    An array made without a noted operand (``np.zeros``) is not noted.
    """
    calls = []

    class Noted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if method == "__call__":
                return call(ufunc.__name__, ufunc, inputs, kwargs)
            return call(f"{ufunc.__name__}.{method}", getattr(ufunc, method),
                        inputs, kwargs)

        def __array_function__(self, func, types, args, kwargs):
            return call(func.__name__, func, args, kwargs)

        def __getitem__(self, key):
            keys = key if isinstance(key, tuple) else (key,)
            if any(isinstance(part, np.ndarray) for part in keys):
                return call("getitem", lambda array, key: array[key], (self, key), {})
            return super().__getitem__(key)

    def plain(value):
        if isinstance(value, Noted):
            return value.view(np.ndarray)
        if isinstance(value, (tuple, list)):
            return type(value)(plain(part) for part in value)
        return value

    def noted(value):
        if type(value) is np.ndarray:
            return value.view(Noted)
        if isinstance(value, tuple):
            return tuple(noted(part) for part in value)
        return value

    def call(name, func, args, kwargs):
        operands = [*args, *kwargs.values()]
        operands += [part for value in operands if isinstance(value, (tuple, list))
                     for part in value]
        calls.append((name, [value.size for value in operands
                             if isinstance(value, np.ndarray)]))
        return noted(func(*plain(args), **{k: plain(v) for k, v in kwargs.items()}))

    yield (lambda array: array.view(Noted)), calls
