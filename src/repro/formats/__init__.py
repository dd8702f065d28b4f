"""Fibertree tensor formats (paper section 3.1, Figures 1 and 3)."""

from .bitvector import BitvectorLevel, coords_to_words, popcount
from .compressed import CompressedLevel
from .dense import DenseLevel
from .level import Level
from .linkedlist import LinkedListLevel
from .tensor import FORMAT_NAMES, FiberTensor, scalar_tensor

__all__ = [
    "BitvectorLevel",
    "CompressedLevel",
    "DenseLevel",
    "FORMAT_NAMES",
    "FiberTensor",
    "Level",
    "LinkedListLevel",
    "coords_to_words",
    "popcount",
    "scalar_tensor",
]
