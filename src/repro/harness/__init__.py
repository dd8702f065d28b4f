"""Sharded experiment harness with content-hashed result caching.

The pieces (see ``docs/architecture.md`` for the full picture):

* :mod:`~repro.harness.spec` — :class:`ExperimentSpec` (study name +
  parameter dict + backend) and :class:`ExperimentResult` (a durable
  JSON payload per point), keyed by a content hash that includes a
  digest of the package sources;
* :mod:`~repro.harness.cache` — :class:`ResultCache`, one append-only
  log per study (a line per completed point, one ``os.write`` each),
  torn lines read as misses, resume-by-construction;
* :mod:`~repro.harness.runner` — :class:`SweepRunner`, which replays
  hits and shards misses across ``multiprocessing`` workers, plus
  JSON/CSV artifact writers;
* :mod:`~repro.harness.registry` — the :class:`Study` descriptors that
  every module under :mod:`repro.studies` exports as ``STUDY``;
* :mod:`~repro.harness.options` — the :class:`Option` rows each study
  declares its options in (default, quick value, type, range).

CLI: ``repro sweep <study ...> --jobs N`` executes and caches,
``repro report <study ...>`` renders the paper tables/figures from the
cached records (see ``EXPERIMENTS.md``).
"""

from .cache import CACHE_DIR_ENV_VAR, DEFAULT_CACHE_DIR, ResultCache, default_cache_dir
from .options import Option, OptionError
from .registry import STUDY_NAMES, Study, execute_spec, get_study
from .runner import (
    SweepReport,
    SweepRunner,
    write_csv_artifact,
    write_json_artifact,
)
from .spec import (
    CODE_VERSION_ENV_VAR,
    ExperimentResult,
    ExperimentSpec,
    code_version,
)

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CODE_VERSION_ENV_VAR",
    "DEFAULT_CACHE_DIR",
    "ExperimentResult",
    "ExperimentSpec",
    "Option",
    "OptionError",
    "ResultCache",
    "STUDY_NAMES",
    "Study",
    "SweepReport",
    "SweepRunner",
    "code_version",
    "default_cache_dir",
    "execute_spec",
    "get_study",
    "write_csv_artifact",
    "write_json_artifact",
]
