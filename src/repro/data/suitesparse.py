"""Synthetic stand-ins for the Table 3 SuiteSparse matrices.

The paper's stream analysis (Figure 14) runs the matrix identity
expression over 15 SuiteSparse matrices.  SuiteSparse is not always
available offline, so by default we generate seeded uniform-random
matrices with the *same name, dimensions, nonzero count, and density* as
each Table 3 entry.  The Figure 14 metric — token-type composition of
the level-scanner output streams — depends only on those structural
statistics, so the stand-ins preserve the study's shape (documented in
EXPERIMENTS.md).

Real matrices take precedence when present: :func:`load` resolves each
spec through the dataset registry (:mod:`repro.data.registry`), which
prefers a ``<data_dir>/<name>.mtx`` file over the synthetic generator —
drop actual SuiteSparse downloads into ``$REPRO_DATA_DIR`` and every
study picks them up without code changes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class MatrixSpec:
    """One Table 3 row."""

    name: str
    domain: str
    shape: Tuple[int, int]
    nnz: int

    @property
    def density(self) -> float:
        return self.nnz / (self.shape[0] * self.shape[1])


#: Table 3 of the paper: 5 each from the smallest, median, and largest 50
#: SuiteSparse matrices that fit in memory.
TABLE3: Tuple[MatrixSpec, ...] = (
    MatrixSpec("relat3", "Combinatorics", (8, 5), 24),
    MatrixSpec("lpi_itest6", "Linear Programming", (11, 17), 29),
    MatrixSpec("LFAT5", "Model Reduction", (14, 14), 46),
    MatrixSpec("ch4-4-b1", "Combinatorics", (72, 16), 144),
    MatrixSpec("ch7-6-b1", "Combinatorics", (630, 42), 1260),
    MatrixSpec("bwm2000", "Chemical Process Simulation", (2000, 2000), 7996),
    MatrixSpec("G32", "Undirected Weighted Random Graph", (2000, 2000), 8000),
    MatrixSpec("progas", "Linear Programming", (1650, 1900), 8897),
    MatrixSpec("lp_maros", "Linear Programming", (846, 1966), 10137),
    MatrixSpec("G42", "Undirected Weighted Random Graph", (2000, 2000), 23558),
    MatrixSpec("stormg2-27", "Linear Programming", (14439, 37485), 94274),
    MatrixSpec("lpl3", "Linear Programming", (10828, 33686), 100525),
    MatrixSpec("nemsemm2", "Linear Programming", (6943, 48878), 182012),
    MatrixSpec("rlfdual", "Linear Programming", (8052, 74970), 282031),
    MatrixSpec("rail507", "Linear Programming", (507, 63516), 409856),
)

#: the small/medium/large grouping used in Figure 14's x-axis ordering
SMALL = TABLE3[:5]
MEDIUM = TABLE3[5:10]
LARGE = TABLE3[10:]


def generate(spec: MatrixSpec, seed: int = 0) -> sparse.csr_matrix:
    """Seeded uniform-random stand-in with the spec's shape and nnz.

    The per-matrix seed mixes in ``crc32(name)`` — NOT Python's ``hash``,
    which is salted per process, so the "deterministic" stand-ins used to
    differ from run to run (silently poisoning cached study results).
    """
    from scipy import sparse

    rng = np.random.default_rng(seed ^ zlib.crc32(spec.name.encode()))
    rows, cols = spec.shape
    # Sample without replacement so nnz is exact.
    flat = rng.choice(rows * cols, size=spec.nnz, replace=False)
    vals = rng.uniform(0.1, 1.0, size=spec.nnz)
    matrix = sparse.csr_matrix(
        (vals, (flat // cols, flat % cols)), shape=spec.shape
    )
    return matrix


def load(spec: MatrixSpec, seed: int = 0,
         data_dir: Optional[str] = None) -> sparse.csr_matrix:
    """Registry-backed load: a real cached ``.mtx`` file if present,
    the deterministic synthetic stand-in otherwise."""
    from .registry import DatasetRegistry

    return DatasetRegistry(data_dir=data_dir, specs=(spec,)).load_matrix(
        spec.name, seed=seed
    )


def load_all(
    seed: int = 0, max_nnz: int = None, data_dir: Optional[str] = None
) -> List[Tuple[MatrixSpec, sparse.csr_matrix]]:
    """All Table 3 matrices (optionally capped by nnz for quick runs)."""
    out = []
    for spec in TABLE3:
        if max_nnz is not None and spec.nnz > max_nnz:
            continue
        out.append((spec, load(spec, seed, data_dir=data_dir)))
    return out
