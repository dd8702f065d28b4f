"""Experiment records: durable, replayable sweep points.

Every study sweep point is described by an :class:`ExperimentSpec` — the
study name, a JSON-serialisable parameter dict, and the simulation
backend it runs under — and produces an :class:`ExperimentResult`, a
plain-data record that can be cached on disk, reloaded, and re-rendered
into the paper's tables and figures without re-simulating.

Cache keys are content hashes over the canonical spec JSON, the backend,
and a *code version* (a digest of the ``repro`` package sources), so a
cached result is only ever reused when the inputs *and* the simulator
that produced it are unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

#: environment override for the code-version digest (tests use this to
#: force cache hits/misses without editing sources)
CODE_VERSION_ENV_VAR = "REPRO_CODE_VERSION"

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Digest of every ``.py`` file in the ``repro`` package.

    Computed once per process; override with ``$REPRO_CODE_VERSION``.
    Editing any source file changes the digest, invalidating previously
    cached results — stale simulator output is never replayed.
    """
    global _code_version_cache
    override = os.environ.get(CODE_VERSION_ENV_VAR)
    if override:
        return override
    if _code_version_cache is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, _, filenames in sorted(os.walk(package_root)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def _json_default(value: Any):
    """Coerce numpy scalar/array types to native Python for JSON.

    Sweep axes built with ``np.linspace``/``np.arange`` put ``np.int64``/
    ``np.float64`` scalars into spec points; those must canonicalise to
    the same JSON as their native equivalents (so cache keys match) and
    must not crash serialisation.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance.

    Numpy scalars and arrays are coerced to native Python types, so spec
    points produced by ``np.linspace``/``np.arange`` sweeps canonicalise
    identically to hand-written ints/floats.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def as_tuple(value: Any) -> tuple:
    """Normalise a sweep-axis option to a tuple (scalars become 1-tuples,
    so ``--opt k_sweep=1`` works the same as ``--opt k_sweep=1,10``)."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, range)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep point: study name + parameters + backend.

    ``point`` must be JSON-serialisable (numbers, strings, lists, dicts)
    so the spec round-trips through worker processes and the on-disk
    cache.  Studies that do not run block-level simulations (table1,
    table2, fig15) use the ``"-"`` backend sentinel so switching
    ``--engine`` does not spuriously invalidate their cached results.
    """

    study: str
    point: Dict[str, Any] = field(default_factory=dict)
    backend: str = "-"

    def canonical(self) -> str:
        """The spec's canonical JSON, computed once per spec (a sweep keys
        each point several times), so ``point`` must not change after."""
        memo = self.__dict__
        if "_canonical" not in memo:
            memo["_canonical"] = canonical_json(
                {"study": self.study, "point": self.point, "backend": self.backend}
            )
        return memo["_canonical"]

    def key(self, version: Optional[str] = None) -> str:
        """Content-hash cache key: spec + backend + code version (each
        version's key computed once per spec)."""
        version = code_version() if version is None else version
        keys = self.__dict__.setdefault("_keys", {})
        if version not in keys:
            digest = hashlib.sha256()
            digest.update(self.canonical().encode())
            digest.update(version.encode())
            keys[version] = digest.hexdigest()[:24]
        return keys[version]

    def label(self) -> str:
        """Short human-readable tag for logs and progress output."""
        parts = ",".join(f"{k}={v}" for k, v in sorted(self.point.items()))
        return f"{self.study}[{parts}]"

    def to_dict(self) -> Dict[str, Any]:
        return {"study": self.study, "point": self.point, "backend": self.backend}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        return cls(
            study=data["study"],
            point=dict(data["point"]),
            backend=data.get("backend", "-"),
        )


@dataclass
class ExperimentResult:
    """The durable output of executing one :class:`ExperimentSpec`.

    ``payload`` is the study-specific measurement dict (cycles, counts,
    breakdowns, ...); it must be JSON-serialisable.  ``elapsed_s`` is
    the wall-clock time of the execution that produced the payload; a
    cache replay keeps the original value and is marked ``cached=True``.
    """

    spec: ExperimentSpec
    payload: Dict[str, Any]
    elapsed_s: float = 0.0
    code_version: str = ""
    cached: bool = False

    @property
    def key(self) -> str:
        return self.spec.key(self.code_version or None)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "payload": self.payload,
            "elapsed_s": self.elapsed_s,
            "code_version": self.code_version,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], cached: bool = False) -> "ExperimentResult":
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            payload=data["payload"],
            elapsed_s=data.get("elapsed_s", 0.0),
            code_version=data.get("code_version", ""),
            cached=cached,
        )
