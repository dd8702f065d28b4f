"""Array (Definition 3.5) and level writer (Definition 3.8) tests."""

import pytest

from repro.blocks import (
    ArrayLoad,
    ArrayStore,
    BlockError,
    CompressedLevelWriter,
    LinkedListLevelWriter,
    ScatterValsWriter,
    StreamFeeder,
    UncompressedLevelWriter,
    ValsWriter,
)
from repro.sim import BACKENDS, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop


class TestArrayLoad:
    def test_load_by_reference(self):
        refs = Channel("r", kind="ref")
        out = Channel("o", kind="vals", record=True)
        block = ArrayLoad([1.0, 2.0, 3.0], refs, out)
        run_blocks([StreamFeeder([2, 0, Stop(0), DONE], refs), block])
        assert list(out.history) == [3.0, 1.0, Stop(0), DONE]
        assert block.loads == 2

    def test_empty_reference_loads_zero(self):
        refs = Channel("r", kind="ref")
        out = Channel("o", kind="vals", record=True)
        run_blocks([
            StreamFeeder([EMPTY, 1, DONE], refs),
            ArrayLoad([5.0, 6.0], refs, out),
        ])
        assert list(out.history) == [0.0, 6.0, DONE]

    def test_control_tokens_pass_through(self):
        refs = Channel("r", kind="ref")
        out = Channel("o", kind="vals", record=True)
        run_blocks([StreamFeeder([Stop(2), DONE], refs), ArrayLoad([], refs, out)])
        assert list(out.history) == [Stop(2), DONE]


class TestArrayStore:
    def test_store_side_effect(self):
        refs, data = Channel("r", kind="ref"), Channel("d", kind="vals")
        block = ArrayStore(refs, data)
        run_blocks([
            StreamFeeder([1, 3, Stop(0), DONE], refs, name="fr"),
            StreamFeeder([7.0, 9.0, Stop(0), DONE], data, name="fd"),
            block,
        ])
        assert block.memory == [0.0, 7.0, 0.0, 9.0]
        assert block.stores == 2

    def test_ref_paired_with_stop_rejected(self):
        refs, data = Channel("r", kind="ref"), Channel("d", kind="vals")
        with pytest.raises(BlockError):
            run_blocks([
                StreamFeeder([1, DONE], refs, name="fr"),
                StreamFeeder([Stop(0), DONE], data, name="fd"),
                ArrayStore(refs, data),
            ])


class TestCompressedWriter:
    def test_builds_segments_per_stop(self, harness):
        crd = Channel("c")
        writer = CompressedLevelWriter(crd)
        run_blocks([
            StreamFeeder(harness.paper("D, S1, 3, 1, S0, 2, 0, S0, 1"), crd),
            writer,
        ])
        assert writer.level.seg.tolist() == [0, 1, 3, 5]
        assert writer.level.crd.tolist() == [1, 0, 2, 1, 3]

    def test_empty_fibers_become_empty_segments(self):
        crd = Channel("c")
        writer = CompressedLevelWriter(crd)
        run_blocks([StreamFeeder([0, Stop(0), Stop(0), 1, Stop(1), DONE], crd), writer])
        assert writer.level.seg.tolist() == [0, 1, 1, 2]

    def test_level_unavailable_before_done(self):
        writer = CompressedLevelWriter(Channel("c"))
        with pytest.raises(BlockError):
            _ = writer.level


class TestOtherWriters:
    def test_vals_writer_arrival_order(self):
        val = Channel("v", kind="vals")
        writer = ValsWriter(val)
        run_blocks([
            StreamFeeder([1.0, Stop(0), EMPTY, 2.0, Stop(1), DONE], val), writer
        ])
        assert writer.vals == [1.0, 0.0, 2.0]

    def test_uncompressed_writer_counts_fibers(self):
        crd = Channel("c")
        writer = UncompressedLevelWriter(4, crd)
        run_blocks([StreamFeeder([0, 2, Stop(0), 1, Stop(0), DONE], crd), writer])
        assert writer.level.size == 4
        assert writer.level.num_fibers() == 2

    def test_scatter_writer_accumulates(self):
        refs, val = Channel("r", kind="ref"), Channel("v", kind="vals")
        writer = ScatterValsWriter(4, refs, val)
        run_blocks([
            StreamFeeder([1, 1, 3, Stop(0), DONE], refs, name="fr"),
            StreamFeeder([2.0, 3.0, 4.0, Stop(0), DONE], val, name="fv"),
            writer,
        ])
        assert writer.vals == [0.0, 5.0, 0.0, 4.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scatter_writer_pairs_n_and_stops(self, backend):
        # an N on either side is a datum that scatters nothing; a stop
        # pairs with a stop of any level
        refs, val = Channel("r", kind="ref"), Channel("v", kind="vals")
        writer = ScatterValsWriter(3, refs, val)
        run_blocks([
            StreamFeeder([0, EMPTY, 2, Stop(0), 1, Stop(1), DONE], refs, name="fr"),
            StreamFeeder([1.0, 5.0, EMPTY, Stop(1), 2.0, Stop(0), DONE], val,
                         name="fv"),
            writer,
        ], backend=backend)
        assert writer.vals == [1.0, 2.0, 0.0]

    #: refs, vals -> the error every engine raises (it used to scatter
    #: what it could and drop the rest, or wait for ever at D)
    SCATTER_ERRORS = {
        "wr_scatter: misaligned inputs (1 vs S0)":
            ([0, 1, Stop(0), DONE], [1.0, Stop(0), 2.0, DONE]),
        "wr_scatter: misaligned inputs (D vs 3.0)":
            ([0, 1, DONE], [1.0, 2.0, 3.0, DONE]),
        "wr_scatter: misaligned inputs (S0 vs 0.0)":
            ([Stop(0), DONE], [EMPTY, Stop(0), DONE]),
        "wr_scatter: misaligned inputs (N vs D)":
            ([EMPTY, Stop(0), DONE], [DONE]),
        "wr_scatter: misaligned inputs (S1 vs D)":
            ([0, Stop(1), DONE], [1.0, DONE]),
        "wr_scatter: misaligned inputs (D vs S0)":
            ([0, DONE], [1.0, Stop(0), DONE]),
    }

    @pytest.mark.parametrize("message", SCATTER_ERRORS)
    def test_scatter_writer_misaligned_inputs(self, message):
        for backend in BACKENDS:
            refs, val = Channel("r", kind="ref"), Channel("v", kind="vals")
            ref_tokens, val_tokens = self.SCATTER_ERRORS[message]
            blocks = [
                StreamFeeder(ref_tokens, refs, name="fr"),
                StreamFeeder(val_tokens, val, name="fv"),
                ScatterValsWriter(3, refs, val),
            ]
            with pytest.raises(BlockError) as caught:
                run_blocks(blocks, backend=backend)
            assert str(caught.value) == message, backend

    def test_linked_list_writer_discordant(self):
        parent, crd = Channel("p", kind="ref"), Channel("c")
        writer = LinkedListLevelWriter(parent, crd)
        run_blocks([
            StreamFeeder([2, 0, 2, Stop(0), DONE], parent, name="fp"),
            StreamFeeder([10, 11, 12, Stop(0), DONE], crd, name="fc"),
            writer,
        ])
        assert [c for c, _ in writer.level.fiber(2)] == [10, 12]
        assert [c for c, _ in writer.level.fiber(0)] == [11]
        assert writer.child_refs == [0, 1, 2]
