"""Content-hashed on-disk result cache.

Layout: one JSON file per result at ``<root>/<study>/<key>.json`` where
``key`` hashes the canonical spec, the backend, and the code version
(:func:`repro.harness.spec.code_version`).  A sweep interrupted halfway
leaves every completed point on disk; the next run loads them as hits
and only executes the remainder — that is the whole resume story, there
is no separate journal.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

from .spec import ExperimentResult, ExperimentSpec, _json_default, code_version

#: environment override for the default cache directory
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: default cache location (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV_VAR) or DEFAULT_CACHE_DIR


def _read_entry(path: str) -> Optional[ExperimentResult]:
    """The result stored at *path*, or None when it does not hold one.

    Unreadable files, a write cut short by a crash that bypassed the
    atomic rename, and JSON that parses but is not a result record
    (``{}``, ``[]``, ``null``, a non-dict spec) are all the same miss.
    """
    try:
        with open(path) as handle:
            return ExperimentResult.from_dict(json.load(handle), cached=True)
    except (OSError, ValueError, KeyError, TypeError):
        return None


class ResultCache:
    """Directory of cached :class:`ExperimentResult` records."""

    def __init__(self, root: Optional[str] = None, version: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.version = version or code_version()

    def path(self, spec: ExperimentSpec) -> str:
        return os.path.join(self.root, spec.study, spec.key(self.version) + ".json")

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return os.path.exists(self.path(spec))

    def load(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """The cached result for *spec*, or None on a miss.

        A malformed entry, or one recording a different spec than its
        key claims, counts as a miss; the next :meth:`store` of the
        re-executed point overwrites it.
        """
        result = _read_entry(self.path(spec))
        if result is None or result.spec.canonical() != spec.canonical():
            return None
        result.code_version = self.version
        return result

    def store(self, result: ExperimentResult) -> str:
        """Persist *result*; atomic via temp-file + rename.

        The entry is compact sorted-key JSON from one ``json.dumps`` call.
        Its temp file, ``.tmp-<pid>-<key>.json`` beside it, is never
        shared by two processes; the study directory is made the first
        time a store finds it missing.
        """
        result.code_version = self.version
        key = result.spec.key(self.version)
        directory = os.path.join(self.root, result.spec.study)
        path = os.path.join(directory, key + ".json")
        tmp = os.path.join(directory, f".tmp-{os.getpid()}-{key}.json")
        text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"),
                          default=_json_default)
        try:
            handle = open(tmp, "w")
        except FileNotFoundError:  # the study's first store
            os.makedirs(directory, exist_ok=True)
            handle = open(tmp, "w")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def evict(self, spec: ExperimentSpec) -> bool:
        """Remove one cached entry; returns whether it existed."""
        path = self.path(spec)
        if os.path.exists(path):
            os.unlink(path)
            return True
        return False

    def iter_entries(self, study: Optional[str] = None) -> Iterator[ExperimentResult]:
        """All readable cached results (optionally for one study)."""
        if not os.path.isdir(self.root):
            return
        studies = [study] if study else sorted(os.listdir(self.root))
        for name in studies:
            study_dir = os.path.join(self.root, name)
            if not os.path.isdir(study_dir):
                continue
            for filename in sorted(os.listdir(study_dir)):
                if not filename.endswith(".json"):
                    continue
                entry = _read_entry(os.path.join(study_dir, filename))
                if entry is not None:
                    yield entry

    def size(self, study: Optional[str] = None) -> int:
        return sum(1 for _ in self.iter_entries(study))

    def prune_stale(self) -> int:
        """Delete entries written under other code versions.

        Keys embed the code version, so every source edit orphans the
        previous sweep's files; this reclaims them (``sweep --prune``).
        Returns the number of files removed.
        """
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for study in sorted(os.listdir(self.root)):
            study_dir = os.path.join(self.root, study)
            if not os.path.isdir(study_dir):
                continue
            for filename in sorted(os.listdir(study_dir)):
                path = os.path.join(study_dir, filename)
                if not filename.endswith(".json"):
                    continue
                entry = _read_entry(path)
                if entry is None or entry.code_version != self.version:
                    os.unlink(path)
                    removed += 1
        return removed
