"""Dataset registry: real matrix files with a deterministic synthetic fallback.

The registry maps dataset names to :class:`MatrixSpec` metadata and
resolves each name against a local data directory (``$REPRO_DATA_DIR``,
default ``.repro-datasets``).  If ``<data_dir>/<name>.mtx`` (or
``.mtx.gz``) exists, the real file is loaded through
:mod:`repro.data.io`; otherwise the seeded synthetic stand-in with the
spec's shape/nnz is generated — so studies bind one API
(``load_matrix``) and transparently pick up real SuiteSparse downloads
the moment they are dropped into the cache directory.

There is deliberately no network code: drop files in by hand (or via
``repro datasets --materialize``, which writes the synthetic stand-ins
out as real ``.mtx`` files to document the layout).
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from .io import read_mtx, write_mtx
from .suitesparse import TABLE3, MatrixSpec, generate

#: datasets beyond the paper's Table 3, used by the scale benchmarks and
#: the batched-data-plane CI smoke (studies iterate TABLE3 directly, so
#: these never change study payloads).  torso2 is the canonical
#: ~1e6-nnz SuiteSparse matrix; until the real file is dropped into the
#: data dir, the deterministic synthetic stand-in is used.
EXTRA_DATASETS: Tuple[MatrixSpec, ...] = (
    MatrixSpec("torso2", "2D/3D Problem", (115967, 115967), 1033473),
)

#: environment override for the default dataset directory
DATA_DIR_ENV_VAR = "REPRO_DATA_DIR"

#: default dataset location (relative to the working directory)
DEFAULT_DATA_DIR = ".repro-datasets"


def default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV_VAR) or DEFAULT_DATA_DIR


class DatasetRegistry:
    """Named datasets resolved against a local cache of ``.mtx`` files."""

    def __init__(
        self,
        data_dir: Optional[str] = None,
        specs: Sequence[MatrixSpec] = TABLE3 + EXTRA_DATASETS,
    ):
        self.data_dir = data_dir or default_data_dir()
        self._specs: Dict[str, MatrixSpec] = {spec.name: spec for spec in specs}

    # -- membership ------------------------------------------------------
    def names(self) -> List[str]:
        return list(self._specs)

    def spec(self, name: str) -> MatrixSpec:
        if name not in self._specs:
            raise KeyError(
                f"unknown dataset {name!r}; known: {sorted(self._specs)}"
            )
        return self._specs[name]

    # -- resolution ------------------------------------------------------
    def path(self, name: str) -> Optional[str]:
        """The on-disk file backing *name*, or None if only synthetic."""
        for suffix in (".mtx", ".mtx.gz"):
            candidate = os.path.join(self.data_dir, name + suffix)
            if os.path.exists(candidate):
                return candidate
        return None

    def source(self, name: str) -> str:
        """``"file:<path>"`` when a real file backs *name*, else ``"synthetic"``."""
        self.spec(name)
        path = self.path(name)
        return f"file:{path}" if path else "synthetic"

    def load_matrix(self, name: str, seed: int = 0):
        """Resolve *name* to a ``scipy.sparse.csr_matrix``.

        A cached real file wins over the synthetic stand-in.  A shape
        mismatch against the registered spec fails loudly (same-name
        wrong matrix); an entry-count mismatch only warns, since valid
        downloads may carry explicit zeros or duplicate entries while
        still being the right matrix.
        """
        spec = self.spec(name)
        path = self.path(name)
        if path is None:
            return generate(spec, seed=seed)
        coo = read_mtx(path)
        if coo.shape != spec.shape:
            raise ValueError(
                f"{path}: shape {coo.shape} does not match registered "
                f"spec {spec.shape} for {name!r}"
            )
        if coo.nnz != spec.nnz:
            warnings.warn(
                f"{path}: {coo.nnz} stored entries vs. registered spec "
                f"nnz {spec.nnz} for {name!r} — explicit zeros/duplicates, "
                f"or a different matrix with the same shape",
                stacklevel=2,
            )
        return coo.to_scipy()

    # -- materialisation -------------------------------------------------
    def materialize(self, name: str, seed: int = 0,
                    overwrite: bool = False) -> str:
        """Write the synthetic stand-in for *name* into the data dir.

        After this, :meth:`load_matrix` resolves to the file — the same
        path a real SuiteSparse download would take.  Refuses to clobber
        an existing file (which may be a real download) unless
        ``overwrite=True``.
        """
        spec = self.spec(name)
        existing = self.path(name)
        if existing and not overwrite:
            raise FileExistsError(
                f"{existing} already backs {name!r}; delete it or pass "
                f"overwrite=True to replace it with synthetic data"
            )
        os.makedirs(self.data_dir, exist_ok=True)
        target = os.path.join(self.data_dir, name + ".mtx")
        return write_mtx(
            target, generate(spec, seed=seed),
            comment=f"synthetic stand-in for {name} ({spec.domain}), seed={seed}",
        )

    def rows(self) -> List[Tuple[str, MatrixSpec, str]]:
        """(name, spec, source) listing rows, registry order."""
        return [(name, self._specs[name], self.source(name))
                for name in self._specs]


def default_registry(data_dir: Optional[str] = None) -> DatasetRegistry:
    """A fresh registry over the Table 3 specs and the default data dir."""
    return DatasetRegistry(data_dir=data_dir)
