"""Workload generators, real-tensor ingestion, and the expression corpus."""

from .corpus import Corpus, CorpusEntry, generate_corpus
from .io import (
    CooTensor,
    read_mtx,
    write_mtx,
)
from .registry import (
    DATA_DIR_ENV_VAR,
    DatasetRegistry,
    default_data_dir,
    default_registry,
)
from .suitesparse import (
    LARGE,
    MEDIUM,
    SMALL,
    TABLE3,
    MatrixSpec,
    generate,
)
from .synthetic import (
    blocks_vectors,
    extensor_matrix,
    random_sparse_matrix,
    runs_vectors,
    urandom_vector,
)

__all__ = [
    "CooTensor",
    "Corpus",
    "CorpusEntry",
    "DATA_DIR_ENV_VAR",
    "DatasetRegistry",
    "LARGE",
    "MEDIUM",
    "MatrixSpec",
    "SMALL",
    "TABLE3",
    "blocks_vectors",
    "default_data_dir",
    "default_registry",
    "extensor_matrix",
    "generate",
    "generate_corpus",
    "random_sparse_matrix",
    "read_mtx",
    "runs_vectors",
    "urandom_vector",
    "write_mtx",
]
