"""Element-wise sparse vector multiply kernels (paper Figure 13).

Six configurations of ``x(i) = b(i) * c(i)`` over size-2000 vectors,
matching section 6.3's accelerator-structure study:

* ``dense``      — one uncompressed level each (dense coiteration);
* ``crd``        — one compressed coordinate level (two-finger merge);
* ``crd_skip``   — compressed with coordinate skipping (galloping);
* ``crd_split``  — two compressed levels (the vector split into chunks);
* ``bv``         — one pseudo-dense bitvector level;
* ``bv_split``   — two bitvector levels (a bit-tree).

Each builder returns a :class:`VecMulResult` with the output values and
the simulated cycle count.  The compressed, dense, skip and split
variants are compiled by Custard (``crd_skip`` with
``coordinate_skipping=True``, which wires the merger's skip channels
back to its scanners); the bitvector variants are hand-wired because
they exercise blocks the compiler does not emit (bitvector mergers and
expanders).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..blocks import (
    ALU,
    ArrayLoad,
    BVExpander,
    BVIntersect,
    BitvectorLevelScanner,
    CompressedLevelWriter,
    RootFeeder,
    ValsWriter,
)
from ..formats import BitvectorLevel
from ..graph.builder import Graph

CONFIGS = ("dense", "crd", "crd_skip", "crd_split", "bv", "bv_split")


@dataclass
class VecMulResult:
    """Output of one vector-multiply kernel run."""

    config: str
    cycles: int
    values: np.ndarray  # float64, what the value writer stored
    coords: np.ndarray  # int64, what the coordinate writer stored (if any)

    def check_against(self, b: np.ndarray, c: np.ndarray) -> bool:
        """Compare nonzero products against the dense reference."""
        product = np.asarray(b) * np.asarray(c)
        expected = [v for v in product[product != 0]]
        got = [v for v in self.values if v != 0]
        return np.allclose(sorted(got), sorted(expected))


def _split_shape(size: int, split: int) -> tuple:
    if size % split:
        raise ValueError(f"split factor {split} must divide the size {size}")
    return (split, size // split)


def _compiled_vecmul(config: str, b, c, split: int,
                     backend: Optional[str] = None) -> VecMulResult:
    from ..lang import compile_expression

    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if config == "dense":
        prog = compile_expression(
            "x(i) = b(i) * c(i)", formats={"b": ["dense"], "c": ["dense"]}
        )
        res = prog.run({"b": b, "c": c}, backend=backend)
    elif config in ("crd", "crd_skip"):
        prog = compile_expression("x(i) = b(i) * c(i)",
                                  coordinate_skipping=config == "crd_skip")
        res = prog.run({"b": b, "c": c}, backend=backend)
    elif config == "crd_split":
        shape = _split_shape(b.size, split)
        prog = compile_expression("x(i,j) = b(i,j) * c(i,j)")
        res = prog.run({"b": b.reshape(shape), "c": c.reshape(shape)},
                       backend=backend)
    else:  # pragma: no cover - guarded by vecmul()
        raise ValueError(config)
    out = res.output
    # x(i) over compressed operands writes one compressed level
    compressed = config in ("crd", "crd_skip")
    coords = out.levels[0].crd if compressed else np.empty(0, dtype=np.int64)
    return VecMulResult(config, res.cycles, out.vals, coords)


def _bv_chain(tag: str, levels: Sequence[BitvectorLevel], g: Graph):
    """Wire root -> bitvector scanners for one operand; returns port names."""
    g.add(RootFeeder(g.out(f"{tag}_root", "ref"), name=f"root_{tag}"))
    upstream = f"{tag}_root"
    for depth, level in enumerate(levels):
        g.add(
            BitvectorLevelScanner(
                level,
                g[upstream],
                g.out(f"{tag}_bv{depth}", "bv"),
                g.out(f"{tag}_base{depth}", "ref"),
                name=f"bvscan_{tag}{depth}",
            )
        )
        upstream = f"{tag}_base{depth}"
    return upstream


def _bv_vecmul(b, c, bits_per_word: int, split: bool,
               backend: Optional[str] = None) -> VecMulResult:
    """Bitvector (and bit-tree) element-wise multiply."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    size = b.size
    g = Graph("vecmul_bv_split" if split else "vecmul_bv")

    def build_levels(vec) -> tuple:
        coords = [int(i) for i in np.flatnonzero(vec)]
        if not split:
            level = BitvectorLevel.from_fibers([coords], size, bits_per_word)
            return [level], list(vec[np.flatnonzero(vec)])
        # Bit-tree: an upper level marks which lower words are nonempty;
        # the lower level stores only the nonempty words (one per fiber).
        num_words = -(-size // bits_per_word)
        by_word: dict = {}
        for crd in coords:
            by_word.setdefault(crd // bits_per_word, []).append(crd % bits_per_word)
        nonzero_words = sorted(by_word)
        upper = BitvectorLevel.from_fibers([nonzero_words], num_words, bits_per_word)
        lower = BitvectorLevel.from_fibers(
            [by_word[w] for w in nonzero_words], bits_per_word, bits_per_word
        )
        return [upper, lower], list(vec[np.flatnonzero(vec)])

    levels_b, vals_b = build_levels(b)
    levels_c, vals_c = build_levels(c)

    # Upper (or only) level: scan + word-wise AND.
    last_b = _bv_chain("b", levels_b[:1], g)
    last_c = _bv_chain("c", levels_c[:1], g)
    g.add(
        BVIntersect(
            g.in_("b_bv0"), g[last_b], g.in_("c_bv0"), g[last_c],
            g.out("and0", "bv"), g.out("wa0", "bv"), g.out("ba0", "ref"),
            g.out("wb0", "bv"), g.out("bb0", "ref"), name="bv_and0",
        )
    )
    g.add(
        BVExpander(
            bits_per_word, g.in_("and0"), g.in_("wa0"), g.in_("ba0"),
            g.in_("wb0"), g.in_("bb0"), g.out("crd0"), g.out("refb0", "ref"),
            g.out("refc0", "ref"), name="bv_expand0",
        )
    )
    if split:
        # Lower level: scan the surviving words and AND again.
        g.add(
            BitvectorLevelScanner(
                levels_b[1], g.in_("refb0"), g.out("b_bv1", "bv"), g.out("b_base1", "ref"),
                name="bvscan_b1",
            )
        )
        g.add(
            BitvectorLevelScanner(
                levels_c[1], g.in_("refc0"), g.out("c_bv1", "bv"), g.out("c_base1", "ref"),
                name="bvscan_c1",
            )
        )
        g.add(
            BVIntersect(
                g.in_("b_bv1"), g.in_("b_base1"), g.in_("c_bv1"), g.in_("c_base1"),
                g.out("and1", "bv"), g.out("wa1", "bv"), g.out("ba1", "ref"),
                g.out("wb1", "bv"), g.out("bb1", "ref"), name="bv_and1",
            )
        )
        g.add(
            BVExpander(
                bits_per_word, g.in_("and1"), g.in_("wa1"), g.in_("ba1"),
                g.in_("wb1"), g.in_("bb1"), g.out("crd1"), g.out("refb1", "ref"),
                g.out("refc1", "ref"), name="bv_expand1",
            )
        )
        ref_b, ref_c, crd_out = "refb1", "refc1", "crd1"
        # Only the lower level's expanded coordinates reach the writer;
        # the upper expander's crd output exists for the non-split graph.
        g.unused("crd0")
    else:
        ref_b, ref_c, crd_out = "refb0", "refc0", "crd0"

    g.add(ArrayLoad(vals_b, g[ref_b], g.out("b_val", "vals"), name="vals_b"))
    g.add(ArrayLoad(vals_c, g[ref_c], g.out("c_val", "vals"), name="vals_c"))
    g.add(ALU("mul", g.in_("b_val"), g.in_("c_val"), g.out("x_val", "vals"), name="mul"))
    crd_writer = g.add(CompressedLevelWriter(g[crd_out], name="write_crd"))
    val_writer = g.add(ValsWriter(g.in_("x_val"), name="write_vals"))
    report = g.run(backend=backend)
    config = "bv_split" if split else "bv"
    return VecMulResult(config, report.cycles, val_writer.vals, crd_writer.crd)


def vecmul(
    config: str,
    b,
    c,
    split: int = 64,
    bits_per_word: int = 64,
    backend: Optional[str] = None,
) -> VecMulResult:
    """Run one Figure 13 configuration of ``x(i) = b(i) * c(i)``."""
    if config not in CONFIGS:
        raise ValueError(f"unknown config {config!r}; choose from {CONFIGS}")
    if config in ("dense", "crd", "crd_skip", "crd_split"):
        return _compiled_vecmul(config, b, c, split, backend=backend)
    return _bv_vecmul(b, c, bits_per_word, split=config == "bv_split",
                      backend=backend)
