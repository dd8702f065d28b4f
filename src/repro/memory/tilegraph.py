"""Tiled SpM*SpM with a real SAM tile-sequencing graph (Figure 9).

Section 4.1: "SAM graphs are used in outer levels to sequence the tile
coordinates (tile IDs) for reuse and in the inner levels to perform the
computation.  The tile sequencing is equivalent to tensor iteration and
stream merging, where tile IDs are coordinates and the values are
references to the next level of tiles."

This module executes that structure end to end:

1. each operand is tiled; its *tile map* becomes a two-level FiberTensor
   whose coordinates are tile IDs and whose values reference tiles;
2. a SAM graph — scanners, an intersecter at the contracted tile
   dimension, and a repeater, the Figure 4 iteration section lifted one
   level up — sequences the surviving (B tile, C tile) pairs;
3. each pair runs the compiled Gustavson SpM*SpM graph on its tiles
   (the "SAM computation graph" living in accelerator memory);
4. cycles aggregate: sequencing cycles + per-pair compute overlapped
   with DRAM tile loads by n-buffering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..blocks import (
    Intersect,
    MergeSide,
    RootFeeder,
    Sink,
    make_repeater,
    make_scanner,
)
from ..formats import FiberTensor
from ..sim import run_blocks
from ..streams.channel import Channel
from ..streams.token import is_data
from .hierarchy import DramModel, NBufferedPipeline
from .tiling import TiledMatrix


@dataclass
class TiledSpMMResult:
    output: np.ndarray
    sequencing_cycles: int
    compute_cycles: int
    dram_cycles: float
    total_cycles: float
    pairs: List[Tuple[Tuple[int, int], Tuple[int, int]]] = field(repr=False)


def _tile_map_tensor(tiled: TiledMatrix, name: str):
    """The tile-ID fibertree: coordinates are tile IDs, values tile refs."""
    keys = sorted(tiled.tiles)
    coords = list(keys)
    refs = list(range(len(keys)))
    # Values are tile *references*, so 0 is meaningful — keep_zeros stops
    # the cancelled-duplicate cleanup from dropping tile ref 0.
    tensor = FiberTensor.from_coords(tiled.grid, coords, refs, name=name,
                                     keep_zeros=True)
    return tensor, keys


def sequence_tile_pairs(
    tb: TiledMatrix, tc: TiledMatrix, backend: Optional[str] = None
):
    """Run the SAM tile-sequencing graph on *backend*; returns (pairs, cycles).

    The graph is the Gustavson (i,k,j) iteration-and-merge section over
    tile IDs: scan B's tile rows, intersect the contracted tile dimension
    with C's tile rows, broadcast B's surviving tile reference over C's j
    tiles.  Each surviving (B ref, C ref) token pair is one tile-pair
    computation to schedule.
    """
    bt_tensor, b_keys = _tile_map_tensor(tb, "Bt")
    ct_tensor, c_keys = _tile_map_tensor(tc, "Ct")

    blocks: List = []
    chans = {}

    def ch(name, kind="crd"):
        chans[name] = Channel(name, kind=kind)
        return chans[name]

    blocks.append(RootFeeder(ch("b_root", "ref"), name="root_Bt"))
    blocks.append(RootFeeder(ch("c_root", "ref"), name="root_Ct"))
    blocks.append(
        make_scanner(bt_tensor.levels[0], chans["b_root"], ch("bi_crd"),
                     ch("bi_ref", "ref"), name="scan_Bti")
    )
    blocks.extend(make_repeater(chans["bi_crd"], chans["c_root"],
                                ch("c_rep", "ref"), name="repeat_Cti"))
    blocks.append(
        make_scanner(bt_tensor.levels[1], chans["bi_ref"], ch("bk_crd"),
                     ch("bk_ref", "ref"), name="scan_Btk")
    )
    blocks.append(
        make_scanner(ct_tensor.levels[0], chans["c_rep"], ch("ck_crd"),
                     ch("ck_ref", "ref"), name="scan_Ctk")
    )
    blocks.append(
        Intersect(
            [MergeSide(chans["bk_crd"], [chans["bk_ref"]]),
             MergeSide(chans["ck_crd"], [chans["ck_ref"]])],
            ch("k_crd"), [[ch("kb_ref", "ref")], [ch("kc_ref", "ref")]],
            name="intersect_tk",
        )
    )
    blocks.append(
        make_scanner(ct_tensor.levels[1], chans["kc_ref"], ch("cj_crd"),
                     ch("cj_ref", "ref"), name="scan_Ctj")
    )
    blocks.extend(make_repeater(chans["cj_crd"], chans["kb_ref"],
                                ch("b_pair", "ref"), name="repeat_Btj"))
    blocks.append(Sink(chans["k_crd"], name="sink_k"))
    b_pair_sink = Sink(chans["b_pair"], name="sink_bpair")
    c_pair_sink = Sink(chans["cj_ref"], name="sink_cpair")
    blocks.extend([b_pair_sink, c_pair_sink])
    report = run_blocks(blocks, backend=backend)

    b_positions = [t for t in b_pair_sink.tokens if is_data(t)]
    c_positions = [t for t in c_pair_sink.tokens if is_data(t)]
    assert len(b_positions) == len(c_positions)
    # Tile-map value arrays hold the tile references in position order.
    b_refs = [int(bt_tensor.vals[p]) for p in b_positions]
    c_refs = [int(ct_tensor.vals[p]) for p in c_positions]
    pairs = [(b_keys[b], c_keys[c]) for b, c in zip(b_refs, c_refs)]
    return pairs, report.cycles


def tiled_spmm(
    B: np.ndarray,
    C: np.ndarray,
    tile_size: int = 8,
    dram: DramModel = None,
    n_buffering: int = 2,
    backend: Optional[str] = None,
) -> TiledSpMMResult:
    """Full tiled SpM*SpM: SAM tile sequencing + per-tile SAM compute,
    every graph run on *backend* (see :mod:`repro.sim.backends`)."""
    from ..kernels.spmm import spmm_program

    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    dram = dram or DramModel()
    tb = TiledMatrix(B, tile_size)
    tc = TiledMatrix(C, tile_size)
    pairs, sequencing_cycles = sequence_tile_pairs(tb, tc, backend)

    program = spmm_program("ikj")
    output = np.zeros((B.shape[0], C.shape[1]))
    loads: List[float] = []
    computes: List[float] = []
    total_compute = 0
    for (bi, bk), (ck, cj) in pairs:
        assert bk == ck, "sequencing graph must align contracted tiles"
        b_tile = tb.tile(bi, bk).toarray()
        c_tile = tc.tile(ck, cj).toarray()
        result = program.run({"B": b_tile, "C": c_tile}, backend=backend)
        rows, cols = result.to_numpy().shape
        r0, c0 = bi * tile_size, cj * tile_size
        output[r0 : r0 + rows, c0 : c0 + cols] += result.to_numpy()
        bytes_moved = tb.tile_bytes(bi, bk) + tc.tile_bytes(ck, cj)
        loads.append(dram.load_cycles(bytes_moved))
        computes.append(result.cycles)
        total_compute += result.cycles

    overlapped = NBufferedPipeline(n_buffering).total_cycles(loads, computes)
    return TiledSpMMResult(
        output=output,
        sequencing_cycles=sequencing_cycles,
        compute_cycles=total_compute,
        dram_cycles=sum(loads),
        total_cycles=sequencing_cycles + overlapped,
        pairs=pairs,
    )
