"""ExTensor-style finite-memory SpM*SpM model (paper section 6.4, Figure 15).

"Although SAM is an abstract machine with infinite resources, it can also
represent finite hardware with finite memory."  This module models the
configuration the paper uses to recreate ExTensor's synthetic-data study:

* two memory-hierarchy levels — a 17 MB last-level buffer (LLB) and
  128x128-element PE tiles;
* DRAM bandwidth of 68.256 GB/s at 1 GHz (68.256 bytes/cycle);
* SAM tile-sequencing (coiteration and merging of tile coordinates),
  hierarchical coordinate skipping, sparse tile skipping, and
  n-buffering.

The model is cycle-approximate and analytical at the tile level: per
B-tile-row step, DRAM loads overlap with compute (n-buffering), tile
pairs whose intersection is provably empty are skipped (sparse tile
skipping), and within a tile pair the intersection cost uses the
coordinate-skipping bound min(nnz_a, nnz_b) plus the multiply work.

Every tile pair is costed at once with array operations over the two
tile maps (see "The tile map as arrays" in ``docs/architecture.md``);
only the LLB residency walk, which is order-dependent, is a loop — over
B tiles, never over pairs or nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hierarchy import DramModel, NBufferedPipeline
from .tiling import TiledMatrix


@dataclass
class ExTensorConfig:
    """The paper's modelling parameters (section 6.4)."""

    pe_tile: int = 128
    llb_bytes: float = 17 * 2**20
    dram: DramModel = field(default_factory=DramModel)
    num_pes: int = 128
    n_buffering: int = 2
    #: per-tile-pair control overhead (tile headers, segment fetch, drain)
    pair_overhead_cycles: float = 64.0
    #: per-tile-ID token cost of the SAM tile sequencing graph
    sequencing_cycles_per_tile: float = 2.0
    value_bytes: int = 8
    index_bytes: int = 4

    def __post_init__(self):
        for name in ("pe_tile", "num_pes", "n_buffering",
                     "llb_bytes", "value_bytes", "index_bytes"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"ExTensorConfig.{name} must be positive, got {getattr(self, name)}"
                )


@dataclass
class ExTensorResult:
    dimension: int
    nnz: int
    cycles: float
    compute_cycles: float
    dram_cycles: float
    sequencing_cycles: float
    nonempty_pairs: int


def extensor_spmm_cycles(B, C, config: ExTensorConfig = None) -> ExTensorResult:
    """Model SpM*SpM runtime on the ExTensor-like two-level hierarchy.

    Per tile pair of Gustavson SpM*SpM: intersection with hierarchical
    coordinate skipping costs the smaller operand's coordinate count,
    and every surviving (i,k) pairs with C's row k, so the multiply work
    is the exact co-product count.
    """
    from scipy import sparse

    config = config or ExTensorConfig()
    B = sparse.csr_matrix(B)
    C = sparse.csr_matrix(C)
    if B.shape[1] != C.shape[0]:
        raise ValueError(
            f"cannot contract B of shape {B.shape} with C of shape {C.shape}: "
            f"B has {B.shape[1]} columns, C has {C.shape[0]} rows"
        )
    tb = TiledMatrix(B, config.pe_tile)
    tc = TiledMatrix(C, config.pe_tile)
    b_tiles, k_tiles = tb.num_nonempty_tiles, tc.grid[0]
    b_bytes = tb.all_tile_bytes(config.value_bytes, config.index_bytes)
    c_bytes = tc.all_tile_bytes(config.value_bytes, config.index_bytes)

    # Group C's nonempty tiles by tile-row (the contracted dimension).
    c_by_k = np.argsort(tc.tile_rows)
    c_per_k = np.bincount(tc.tile_rows, minlength=k_tiles)
    c_start = np.cumsum(c_per_k) - c_per_k
    c_row_bytes = np.bincount(tc.tile_rows, weights=c_bytes, minlength=k_tiles).tolist()

    # Sparse tile skipping: B tile (i, k) pairs with the C tiles under k and
    # nothing else.  Pair p of B tile b is the (p - pair_start[b])-th of them.
    pairs_per_b = c_per_k[tb.tile_cols]
    pair_start = np.cumsum(pairs_per_b) - pairs_per_b
    pair_b = np.repeat(np.arange(b_tiles), pairs_per_b)
    pair_c = c_by_k[
        np.arange(len(pair_b)) - (pair_start - c_start[tb.tile_cols])[pair_b]
    ]
    intersections = np.minimum(tb.tile_nnzs[pair_b], tc.tile_nnzs[pair_c])
    # Multiplies of B tile b summed over its pairs: the C tiles under k
    # partition C's rows there, so each nonzero B entry (i, k) meets every
    # nonzero of C's whole row k — a gather, no pair enters the count.
    c_row_nonzeros = np.bincount(
        tc.matrix.tocoo().row, weights=tc.matrix.data != 0, minlength=C.shape[0]
    )
    multiplies = (tb.matrix.data != 0) * c_row_nonzeros[tb.matrix.indices]
    # Integer-valued terms below 2**53: the float sums are order-free.
    compute_per_b = (
        config.pair_overhead_cycles * pairs_per_b
        + np.bincount(pair_b, weights=intersections, minlength=b_tiles)
        + np.bincount(tb.entry_tile, weights=multiplies, minlength=b_tiles)
    )

    # LLB residency: C tile-rows stay cached across steps until one does
    # not fit, which flushes the buffer.  Order-dependent, so it walks the
    # B tiles in tile-map order (grouped by tile-row, first appearance).
    c_loaded = np.zeros(b_tiles)
    resident_c, resident_bytes = set(), 0.0
    for b, k in enumerate(tb.tile_cols.tolist()):
        if not c_row_bytes[k] or k in resident_c:
            continue  # no C tiles under this k, or already in the LLB
        if resident_bytes + c_row_bytes[k] > config.llb_bytes:
            resident_c.clear()
            resident_bytes = 0.0
        resident_c.add(k)
        resident_bytes += c_row_bytes[k]
        c_loaded[b] = c_row_bytes[k]

    # One pipeline step per nonempty B tile-row: load the row's B tiles
    # plus the C tile-rows it brings in, then compute the row's pairs.
    steps = np.unique(tb.tile_rows)
    load_bytes = np.bincount(tb.tile_rows, weights=b_bytes + c_loaded)[steps]
    step_compute = np.bincount(tb.tile_rows, weights=compute_per_b)[steps]
    loads = config.dram.load_cycles(load_bytes).tolist()
    computes = (step_compute / config.num_pes).tolist()

    overlapped = NBufferedPipeline(config.n_buffering).total_cycles(loads, computes)
    sequencing = config.sequencing_cycles_per_tile * (
        b_tiles + tc.num_nonempty_tiles + len(pair_b)
    )
    return ExTensorResult(
        dimension=B.shape[0],
        nnz=B.nnz,
        cycles=overlapped + sequencing,
        compute_cycles=sum(computes),
        dram_cycles=sum(loads),
        sequencing_cycles=sequencing,
        nonempty_pairs=len(pair_b),
    )
