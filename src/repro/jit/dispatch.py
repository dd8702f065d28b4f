"""Env-gated kernel dispatch with a transparent fallback ladder.

The tier a kernel resolves to is decided once, lazily, at the first
:func:`get_kernel` call (so importing :mod:`repro.jit` — or any module
that dispatches through it — never pays for a numba probe):

``REPRO_JIT`` value          resolution
---------------------------  ------------------------------------------
``0`` / ``off`` / ``false``  disabled: every lookup returns ``None`` and
/ ``no``                     callers run their existing numpy/Python
                             paths untouched.
``py`` / ``python``          the pure-Python kernel sources run as-is —
                             slow, but exercises the exact kernel logic
                             on machines without numba (differential
                             tests use this tier).
``numba`` / ``require``      numba or error: raises if numba is not
                             importable (CI's jit leg can fail loudly).
unset / ``1`` / ``auto`` /   numba if importable, otherwise fall back
anything else                to the numpy paths (same as ``off`` except
                             the probe result is recorded in the stats).

Compiled dispatchers use ``@njit(cache=True)`` so machine code persists
on disk across processes: sweep workers and repeated CI rounds load the
cached object file instead of recompiling.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from . import kernels as _sources

ENV_VAR = "REPRO_JIT"

_OFF_MODES = frozenset({"0", "off", "false", "no"})
_PY_MODES = frozenset({"py", "python"})
_REQUIRE_MODES = frozenset({"numba", "require"})

KERNEL_NAMES = (
    "rate1_schedule",
    "compose_rate1",
    "segment_sums",
    "scan_sched",
    "merge_events",
    "repsig_ends",
)

_state: Optional[Dict[str, Any]] = None


def numba_available() -> bool:
    """Whether numba is importable, independent of the ``REPRO_JIT`` mode."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def _configure() -> Dict[str, Any]:
    global _state
    raw = os.environ.get(ENV_VAR, "")
    mode = raw.strip().lower()
    kernels: Dict[str, Callable[..., Any]] = {}
    numba_version: Optional[str] = None
    if mode in _OFF_MODES:
        backend = "off"
    else:
        sources = {name: getattr(_sources, name + "_k") for name in KERNEL_NAMES}
        if mode in _PY_MODES:
            backend = "python"
            kernels = sources
        else:
            try:
                import numba
            except Exception:
                if mode in _REQUIRE_MODES:
                    raise RuntimeError(
                        f"{ENV_VAR}={raw!r} requires numba, which is not importable"
                    )
                backend = "numpy"
            else:
                backend = "numba"
                numba_version = getattr(numba, "__version__", None)
                decorate = numba.njit(cache=True)
                kernels = {name: decorate(fn) for name, fn in sources.items()}
    tier = backend if kernels else ("off" if backend == "off" else "numpy")
    _state = {
        "mode": mode or "auto",
        "backend": backend,
        "numba": numba_version,
        "kernels": kernels,
        "resolved": {name: tier for name in KERNEL_NAMES},
    }
    return _state


def get_kernel(name: str) -> Optional[Callable[..., Any]]:
    """The dispatcher for *name*, or ``None`` to use the numpy path."""
    state = _state
    if state is None:
        state = _configure()
    return state["kernels"].get(name)


def reconfigure() -> None:
    """Drop the resolved state so the next lookup re-reads ``REPRO_JIT``."""
    global _state
    _state = None


def jit_stats() -> Dict[str, Any]:
    """Dispatcher inventory plus cumulative plan-cache counters."""
    state = _state
    if state is None:
        state = _configure()
    from .plan import PLAN_CACHE

    return {
        "enabled": bool(state["kernels"]),
        "mode": state["mode"],
        "backend": state["backend"],
        "numba": state["numba"],
        "kernels": dict(state["resolved"]),
        "plan_cache": PLAN_CACHE.snapshot(),
    }


def warmup() -> List[str]:
    """Force-compile every dispatcher on tiny representative inputs.

    Called from sweep-worker initializers and benchmark warmup rounds so
    numba's compile time lands outside any measured region.  A no-op
    (empty list) unless the numba tier is active.
    """
    state = _state
    if state is None:
        state = _configure()
    if state["backend"] != "numba":
        return []
    k = state["kernels"]
    i64 = np.array([0, 1], dtype=np.int64)
    f64 = np.array([0.0, 1.0], dtype=np.float64)
    one = np.zeros(1, dtype=np.int64)
    try:
        k["rate1_schedule"](i64, 0, 1)
        k["compose_rate1"](i64, one, np.ones(1, dtype=np.int64), one)
        k["segment_sums"](f64, one, np.ones(1, dtype=np.int64))
        k["scan_sched"](one, one, 1, 1, 0, 0, 0)
        # the mergers' composite keys are always int64
        k["merge_events"](i64, i64, i64, i64, 2, 2)
        k["repsig_ends"](i64, -3)
    except Exception:
        return []
    return sorted(k)
