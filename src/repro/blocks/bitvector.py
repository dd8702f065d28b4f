"""Bitvector stream blocks (paper section 4.3).

Bitvector streams are an alternative compression protocol on the wires:
one data token carries ``b`` coordinates as a bit mask, so merging and
iteration run ``b`` coordinates per cycle (pseudo-dense, but massively
parallel).  :class:`~repro.blocks.scanner.BitvectorLevelScanner` reads
the words out of a bitvector level; these blocks merge and unpack them:

* :class:`BVIntersect` — the word-wise AND merge, which also forwards
  each side's word and popcount base so references can be recovered;
* :class:`BVExpander` — unpacks merged words back into coordinate and
  per-side reference streams using the popcount protocol.
"""

from __future__ import annotations

from ..formats.bitvector import popcount
from ..streams.channel import Channel
from ..streams.token import DONE, EMPTY, is_data, is_done, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer


class BVIntersect(Block):
    """Word-wise AND of two aligned bitvector streams."""

    primitive = "intersect"

    port_specs = (
        PortSpec('in_bv_a', 'in', kind='bv'),
        PortSpec('in_base_a', 'in', kind='ref'),
        PortSpec('in_bv_b', 'in', kind='bv'),
        PortSpec('in_base_b', 'in', kind='ref'),
        PortSpec('out_bv', 'out', kind='bv'),
        PortSpec('out_word_a', 'out', kind='bv'),
        PortSpec('out_base_a', 'out', kind='ref'),
        PortSpec('out_word_b', 'out', kind='bv'),
        PortSpec('out_base_b', 'out', kind='ref'),
    )
    # Word-granular merge of two aligned bitvector streams: every input
    # and output stream shares one nesting depth.
    stream_xfer = StreamXfer(
        ins=(("in_bv_a", "d"), ("in_base_a", "d"),
             ("in_bv_b", "d"), ("in_base_b", "d")),
        outs=(("out_bv", "bv", "d"), ("out_word_a", "bv", "d"),
              ("out_base_a", "ref", "d"), ("out_word_b", "bv", "d"),
              ("out_base_b", "ref", "d")),
    )

    def __init__(
        self,
        in_bv_a: Channel,
        in_base_a: Channel,
        in_bv_b: Channel,
        in_base_b: Channel,
        out_bv: Channel,
        out_word_a: Channel,
        out_base_a: Channel,
        out_word_b: Channel,
        out_base_b: Channel,
        name: str = "bvmerge",
    ):
        super().__init__(name)
        self.in_bv_a = self._in("in_bv_a", in_bv_a)
        self.in_base_a = self._in("in_base_a", in_base_a)
        self.in_bv_b = self._in("in_bv_b", in_bv_b)
        self.in_base_b = self._in("in_base_b", in_base_b)
        self.out_bv = self._out("out_bv", out_bv)
        self.out_word_a = self._out("out_word_a", out_word_a)
        self.out_base_a = self._out("out_base_a", out_base_a)
        self.out_word_b = self._out("out_word_b", out_word_b)
        self.out_base_b = self._out("out_base_b", out_base_b)

    def _outs(self):
        return (
            self.out_bv,
            self.out_word_a,
            self.out_base_a,
            self.out_word_b,
            self.out_base_b,
        )

    def _run(self):
        while True:
            wa = yield from self._get(self.in_bv_a)
            ba = yield from self._get(self.in_base_a)
            wb = yield from self._get(self.in_bv_b)
            bb = yield from self._get(self.in_base_b)
            if is_done(wa) and is_done(wb):
                yield from self._emit_all(self._outs(), DONE)
                yield True
                return
            if is_stop(wa) and is_stop(wb):
                if wa.level != wb.level:
                    raise BlockError(f"{self.name}: misaligned stops {wa!r}/{wb!r}")
                yield from self._emit_all(self._outs(), wa)
                yield True
                continue
            if is_data(wa) and is_data(wb):
                self.out_bv.push(wa & wb)
                self.out_word_a.push(wa)
                self.out_base_a.push(ba)
                self.out_word_b.push(wb)
                self.out_base_b.push(bb)
                yield True
                continue
            raise BlockError(
                f"{self.name}: bitvector streams not word-aligned ({wa!r} vs {wb!r})"
            )


class BVExpander(Block):
    """Expand merged bitvector words into coordinate and reference streams.

    References follow the popcount protocol: the reference of bit ``i``
    on a side is the side's word base plus the popcount of the side's
    word below bit ``i``.  Bits absent on a side expand to ``N``.
    """

    primitive = "bv_expand"

    port_specs = (
        PortSpec('in_bv', 'in', kind='bv'),
        PortSpec('in_word_a', 'in', kind='bv'),
        PortSpec('in_base_a', 'in', kind='ref'),
        PortSpec('in_word_b', 'in', kind='bv'),
        PortSpec('in_base_b', 'in', kind='ref'),
        PortSpec('out_crd', 'out', kind='crd'),
        PortSpec('out_ref_a', 'out', kind='ref'),
        PortSpec('out_ref_b', 'out', kind='ref'),
    )
    # Each word expands into its set-bit coordinates within the same
    # fiber, so boundary structure (and depth) is preserved.
    stream_xfer = StreamXfer(
        ins=(("in_bv", "d"), ("in_word_a", "d"), ("in_base_a", "d"),
             ("in_word_b", "d"), ("in_base_b", "d")),
        outs=(("out_crd", "crd", "d"), ("out_ref_a", "ref", "d"),
              ("out_ref_b", "ref", "d")),
    )

    def __init__(
        self,
        bits_per_word: int,
        in_bv: Channel,
        in_word_a: Channel,
        in_base_a: Channel,
        in_word_b: Channel,
        in_base_b: Channel,
        out_crd: Channel,
        out_ref_a: Channel,
        out_ref_b: Channel,
        name: str = "bvexpand",
    ):
        super().__init__(name)
        self.bits_per_word = bits_per_word
        self.in_bv = self._in("in_bv", in_bv)
        self.in_word_a = self._in("in_word_a", in_word_a)
        self.in_base_a = self._in("in_base_a", in_base_a)
        self.in_word_b = self._in("in_word_b", in_word_b)
        self.in_base_b = self._in("in_base_b", in_base_b)
        self.out_crd = self._out("out_crd", out_crd)
        self.out_ref_a = self._out("out_ref_a", out_ref_a)
        self.out_ref_b = self._out("out_ref_b", out_ref_b)

    def _outs(self):
        return (self.out_crd, self.out_ref_a, self.out_ref_b)

    def _run(self):
        word_index = 0
        while True:
            merged = yield from self._get(self.in_bv)
            if is_done(merged):
                yield from self._emit_all(self._outs(), DONE)
                yield True
                return
            if is_stop(merged):
                for channel in (
                    self.in_word_a,
                    self.in_base_a,
                    self.in_word_b,
                    self.in_base_b,
                ):
                    yield from self._get(channel)
                yield from self._emit_all(self._outs(), merged)
                word_index = 0
                yield True
                continue
            word_a = yield from self._get(self.in_word_a)
            base_a = yield from self._get(self.in_base_a)
            word_b = yield from self._get(self.in_word_b)
            base_b = yield from self._get(self.in_base_b)
            if merged:
                base = word_index * self.bits_per_word
                for bit in range(self.bits_per_word):
                    if not merged >> bit & 1:
                        continue
                    below = (1 << bit) - 1
                    self.out_crd.push(base + bit)
                    if word_a >> bit & 1:
                        self.out_ref_a.push(base_a + popcount(word_a & below))
                    else:
                        self.out_ref_a.push(EMPTY)
                    if word_b >> bit & 1:
                        self.out_ref_b.push(base_b + popcount(word_b & below))
                    else:
                        self.out_ref_b.push(EMPTY)
                    yield True
            word_index += 1
            yield True
