"""Content-hashed on-disk result cache: one append-only log per study.

Layout: ``<root>/<study>.jsonl``.  Each line is one stored result: its
key (a hash of the canonical spec, the backend and the code version,
:func:`repro.harness.spec.code_version`), one space, then the result's
compact sorted-key JSON.  A store appends its line with one
``os.write`` on an ``O_APPEND`` descriptor, so a cold sweep creates one
file per study, not one per point, and any number of processes may
store into one log at once: on a local file system the kernel never
interleaves two appends.

A sweep killed halfway leaves every completed point's line; the next
run loads them as hits and executes only the remainder — that is the
whole resume story, there is no separate journal.  A :class:`ResultCache`
reads each study's log once, on its first load or store for that study,
into a key → records index; for each key the last well-formed line
wins.  A torn line (an append cut short), a line that does not parse
and a line recording another spec than its key names are misses, and a
store after a torn last line starts its own line first.  ``evict`` and
``prune_stale`` rewrite a log through a temporary file and
``os.replace``: run them while nothing else stores into the cache, or
a line appended during the rewrite is lost (a miss, executed again).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from .spec import ExperimentResult, ExperimentSpec, _json_default, code_version

#: environment override for the default cache directory
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: default cache location (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro-cache"

#: a study's log is ``<root>/<study><LOG_SUFFIX>``
LOG_SUFFIX = ".jsonl"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV_VAR) or DEFAULT_CACHE_DIR


def _read(path: str) -> str:
    """The log at *path*; a missing or unreadable log reads as empty."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8", errors="replace")
    except OSError:
        return ""


def _lines(path: str) -> List[str]:
    """The log's lines at *path*, without the empty ones."""
    return [line for line in _read(path).split("\n") if line]


def _parse(record: str) -> Optional[ExperimentResult]:
    """The result a line's record holds, or None when it holds none.

    A record cut short, text that is not JSON, and JSON that parses but
    is not a result record (``{}``, ``[]``, ``null``, a non-dict spec)
    are all the same miss.
    """
    try:
        return ExperimentResult.from_dict(json.loads(record), cached=True)
    except (ValueError, KeyError, TypeError):
        return None


def _last(records: List[str], fits) -> Optional[ExperimentResult]:
    """The result of the last of *records* that parses and *fits*."""
    for record in reversed(records):
        result = _parse(record)
        if result is not None and fits(result):
            return result
    return None


class _Log:
    """One study's log as a cache read it: each key's records in log
    order, and whether the log ends mid-line."""

    __slots__ = ("records", "torn")

    def __init__(self, text: str):
        self.records: Dict[str, List[str]] = {}
        self.torn = bool(text) and not text.endswith("\n")
        for line in text.split("\n"):
            key, _, record = line.partition(" ")
            if record:
                self.records.setdefault(key, []).append(record)


class ResultCache:
    """Directory of per-study logs of :class:`ExperimentResult` records."""

    def __init__(self, root: Optional[str] = None, version: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.version = version or code_version()
        self._logs: Dict[str, _Log] = {}

    def path(self, spec: ExperimentSpec) -> str:
        """The log *spec*'s record is stored in."""
        return self._log_path(spec.study)

    def _log_path(self, study: str) -> str:
        return os.path.join(self.root, study + LOG_SUFFIX)

    def _log(self, study: str) -> _Log:
        """*study*'s index, read from its log the first time it is asked."""
        log = self._logs.get(study)
        if log is None:
            log = self._logs[study] = _Log(_read(self._log_path(study)))
        return log

    def _studies(self) -> List[str]:
        """The studies that have a log under the root."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [name[: -len(LOG_SUFFIX)] for name in names
                if name.endswith(LOG_SUFFIX) and not name.startswith(".")]

    def old_layout(self) -> List[Tuple[str, int]]:
        """``(directory, file count)`` of each ``<root>/<study>/`` left by
        the older one-file-per-point layout: no load reads them, and
        ``sweep --prune`` names them for the user to delete by hand."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        found = []
        for name in names:
            path = os.path.join(self.root, name)
            if not name.startswith(".") and os.path.isdir(path):
                found.append((path, sum(len(files) for _, _, files in os.walk(path))))
        return found

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.load(spec) is not None

    def load(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """The cached result for *spec*, or None on a miss.

        The last well-formed line under *spec*'s key wins; a line that
        does not parse, or records a different spec than its key
        claims, is passed over.  The next :meth:`store` of the
        re-executed point supersedes it.
        """
        records = self._log(spec.study).records.get(spec.key(self.version), [])
        result = _last(records, lambda r: r.spec.canonical() == spec.canonical())
        if result is not None:
            result.code_version = self.version
        return result

    def store(self, result: ExperimentResult) -> str:
        """Append *result* to its study's log; returns the log's path.

        The record is compact sorted-key JSON from one ``json.dumps``
        call, appended with its key as one line by one ``os.write``; a
        store that raises leaves every earlier line as it was.  The
        cache directory is made the first time a store finds it missing.
        """
        result.code_version = self.version
        spec = result.spec
        key = spec.key(self.version)
        record = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"),
                            default=_json_default)
        log = self._log(spec.study)
        data = (("\n" if log.torn else "") + f"{key} {record}\n").encode()
        path = self.path(spec)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(path, flags, 0o666)
        except FileNotFoundError:  # the cache's first store
            os.makedirs(self.root, exist_ok=True)
            fd = os.open(path, flags, 0o666)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            log.torn = True
            raise OSError(f"{path}: appended {written} of {len(data)} bytes")
        log.torn = False
        log.records.setdefault(key, []).append(record)
        return path

    def _rewrite(self, study: str, lines: List[str]) -> None:
        """Replace *study*'s log by *lines* (removing it when there are
        none) through a temporary file beside it and ``os.replace``."""
        path = self._log_path(study)
        self._logs.pop(study, None)  # the next load reads the new log
        if not lines:
            os.unlink(path)
            return
        tmp = os.path.join(self.root, f".tmp-{os.getpid()}-{study}{LOG_SUFFIX}")
        try:
            with open(tmp, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def evict(self, spec: ExperimentSpec) -> bool:
        """Drop every line under *spec*'s key; returns whether a record
        for *spec* was cached."""
        existed = spec in self
        key = spec.key(self.version)
        lines = _lines(self.path(spec))
        kept = [line for line in lines if line.partition(" ")[0] != key]
        if len(kept) != len(lines):
            self._rewrite(spec.study, kept)
        return existed

    def iter_entries(self, study: Optional[str] = None) -> Iterator[ExperimentResult]:
        """Every key's cached result, of any code version (optionally
        for one study)."""
        for name in [study] if study else self._studies():
            for key, records in self._log(name).records.items():
                result = _last(records, lambda r: r.spec.key(r.code_version) == key)
                if result is not None:
                    yield result

    def size(self, study: Optional[str] = None) -> int:
        return sum(1 for _ in self.iter_entries(study))

    def prune_stale(self) -> int:
        """Drop lines written under other code versions, superseded
        lines and malformed ones.

        Keys embed the code version, so every source edit orphans the
        previous sweep's lines; this reclaims them (``sweep --prune``).
        A log left with no line is removed.  Returns the number of
        lines dropped.
        """
        dropped = 0
        for study in self._studies():
            lines = _lines(self._log_path(study))
            latest: Dict[str, str] = {}
            for line in lines:
                key, _, record = line.partition(" ")
                result = _parse(record)
                if (result is not None and result.code_version == self.version
                        and result.spec.key(self.version) == key):
                    latest[key] = line
            if len(latest) != len(lines):
                self._rewrite(study, list(latest.values()))
                dropped += len(lines) - len(latest)
        return dropped
