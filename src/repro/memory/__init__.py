"""Finite-memory modelling: tiling, buffer hierarchy, ExTensor recreation."""

from .extensor import ExTensorConfig, ExTensorResult, extensor_spmm_cycles
from .tilegraph import TiledSpMMResult, sequence_tile_pairs, tiled_spmm
from .hierarchy import DramModel, NBufferedPipeline
from .tiling import TiledMatrix

__all__ = [
    "DramModel",
    "ExTensorConfig",
    "ExTensorResult",
    "NBufferedPipeline",
    "TiledMatrix",
    "TiledSpMMResult",
    "extensor_spmm_cycles",
    "sequence_tile_pairs",
    "tiled_spmm",
]
