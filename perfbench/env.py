"""Environment fingerprint stored in every result file."""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, Optional


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(root: str, seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were taken.

    ``jit`` is what ``repro.jit.jit_stats()`` resolved in this process
    (tier and kernel inventory), not what ``REPRO_JIT`` asked for.
    """
    import numpy
    import scipy

    from repro.jit import jit_stats

    stats = jit_stats()
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": stats["numba"],
        "jit": {"tier": stats["backend"], "mode": stats["mode"],
                "kernels": stats["kernels"]},
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "git_commit": _git_commit(root),
        "seed": seed,
    }
