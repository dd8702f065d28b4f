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
back to its scanners); the bitvector variants are declared graphs
(:func:`bv_graph`) because they use nodes the compiler does not emit
(bitvector mergers and expanders).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..formats import BitvectorLevel, FiberTensor
from ..graph.bind import bind
from ..graph.ir import SamGraph
from ..lang.compile import check_extents

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


@functools.lru_cache(maxsize=None)
def bv_graph(split: bool) -> SamGraph:
    """Bitvector (*split*: bit-tree) ``x(i) = b(i) * c(i)`` over tensors
    ``b`` and ``c`` with one bitvector level each (two when *split*)."""
    g = SamGraph("vecmul_bv_split" if split else "vecmul_bv")
    refs = {}
    for tag in "bc":
        root = g.add("root", name=f"root_{tag}")
        scan = g.add("level_scanner", name=f"bvscan_{tag}0", tensor=tag, depth=0,
                     var="i", stream_kind="bv")
        g.connect(root, "ref", scan, "ref")
        refs[tag] = scan
    expand = None
    for depth in range(2 if split else 1):
        if depth:
            # Lower level: scan the surviving words and AND again.
            for side, tag in enumerate("bc"):
                refs[tag] = g.add("level_scanner", name=f"bvscan_{tag}{depth}",
                                  tensor=tag, depth=depth, var="i", stream_kind="bv")
                g.connect(expand, f"ref{side}", refs[tag], "ref")
        # Scan + word-wise AND, then expand the surviving bits.
        merge = g.add("bv_intersect", name=f"bv_and{depth}")
        for side, tag in enumerate("bc"):
            g.connect(refs[tag], "crd", merge, f"bv{side}")
            g.connect(refs[tag], "ref", merge, f"base{side}")
        expand = g.add("bv_expand", name=f"bv_expand{depth}", tensor="b",
                       depth=depth)
        g.connect(merge, "bv", expand, "bv")
        for side in range(2):
            g.connect(merge, f"word{side}", expand, f"word{side}")
            g.connect(merge, f"base{side}", expand, f"base{side}")
    # Only the last level's expanded coordinates reach the writer; an
    # upper expander's coordinates stay unconsumed.
    vals = []
    for side, tag in enumerate("bc"):
        vals.append(g.add("array", name=f"vals_{tag}", tensor=tag))
        g.connect(expand, f"ref{side}", vals[-1], "ref")
    mul = g.add("alu", name="mul", op="mul")
    g.connect(vals[0], "val", mul, "a")
    g.connect(vals[1], "val", mul, "b")
    g.connect(expand, "crd", g.add("level_writer", name="write_crd"), "crd")
    g.connect(mul, "val", g.add("vals_writer", name="write_vals"), "val")
    g.freeze()
    return g


def _bv_tensor(vec: np.ndarray, bits_per_word: int, split: bool,
               name: str) -> FiberTensor:
    """*vec* over one bitvector level, or as a bit-tree when *split*: an
    upper level marks which lower words are nonempty, and the lower
    level stores only the nonempty words (one per fiber)."""
    size = vec.size
    nonzero = np.flatnonzero(vec)
    vals = vec[nonzero]
    coords = [int(i) for i in nonzero]
    if not split:
        level = BitvectorLevel.from_fibers([coords], size, bits_per_word)
        return FiberTensor((size,), [level], vals, name=name)
    num_words = -(-size // bits_per_word)
    by_word: dict = {}
    for crd in coords:
        by_word.setdefault(crd // bits_per_word, []).append(crd % bits_per_word)
    nonzero_words = sorted(by_word)
    upper = BitvectorLevel.from_fibers([nonzero_words], num_words, bits_per_word)
    lower = BitvectorLevel.from_fibers(
        [by_word[w] for w in nonzero_words], bits_per_word, bits_per_word
    )
    return FiberTensor((num_words, bits_per_word), [upper, lower], vals, name=name)


def _bv_vecmul(b, c, bits_per_word: int, split: bool,
               backend: Optional[str] = None) -> VecMulResult:
    """Bitvector (and bit-tree) element-wise multiply."""
    tensors = {tag: _bv_tensor(vec, bits_per_word, split, tag)
               for tag, vec in (("b", b), ("c", c))}
    bound = bind(bv_graph(split), tensors)
    report = bound.run(backend=backend)
    config = "bv_split" if split else "bv"
    return VecMulResult(config, report.cycles, bound.writers["write_vals"].vals,
                        bound.writers["write_crd"].crd)


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
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    check_extents((("b", "i", b.shape), ("c", "i", c.shape)))
    if config in ("dense", "crd", "crd_skip", "crd_split"):
        return _compiled_vecmul(config, b, c, split, backend=backend)
    return _bv_vecmul(b, c, bits_per_word, split=config == "bv_split",
                      backend=backend)
