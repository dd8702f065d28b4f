"""Level scanner tests, built on the paper's Figure 2 example."""

import pytest

from repro.blocks import BlockError, make_scanner
from repro.blocks.scanner import BitvectorLevelScanner, LevelScanner
from repro.formats import BitvectorLevel, CompressedLevel, DenseLevel
from repro.streams import Channel, DONE, EMPTY, Stop

FIG1_I = CompressedLevel([0, 3], [0, 1, 3])
FIG1_J = CompressedLevel([0, 1, 3, 5], [1, 0, 2, 1, 3])


def scan(level, input_tokens, skip_tokens=None, *, backend):
    from repro.blocks import StreamFeeder
    from repro.sim import run_blocks

    in_ref = Channel("in_ref", kind="ref")
    out_crd = Channel("crd", record=True)
    out_ref = Channel("ref", kind="ref", record=True)
    blocks = [StreamFeeder(input_tokens, in_ref, name="feed")]
    in_skip = None
    if skip_tokens is not None:
        in_skip = Channel("skip")
        for token in skip_tokens:
            in_skip.push(token)
    blocks.append(make_scanner(level, in_ref, out_crd, out_ref, in_skip=in_skip))
    run_blocks(blocks, backend=backend)
    return list(out_crd.history), list(out_ref.history)


class TestFigure2:
    def test_outer_scanner(self, harness, engine):
        # Root "D, 0" in, coordinates "D, S0, 3, 1, 0" out.
        crd, ref = scan(FIG1_I, harness.paper("D, 0"), backend=engine)
        assert crd == harness.paper("D, S0, 3, 1, 0")
        assert ref == harness.paper("D, S0, 2, 1, 0")

    def test_inner_scanner(self, harness, engine):
        # References "D, S0, 2, 1, 0" in, "D, S1, 3, 1, S0, 2, 0, S0, 1" out.
        crd, ref = scan(FIG1_J, harness.paper("D, S0, 2, 1, 0"), backend=engine)
        assert crd == harness.paper("D, S1, 3, 1, S0, 2, 0, S0, 1")
        assert ref == harness.paper("D, S1, 4, 3, S0, 2, 1, S0, 0")


class TestStopSemantics:
    def test_input_stop_incremented(self, harness, engine):
        crd, _ = scan(FIG1_J, harness.paper("D, S1, 2, S0, 1, 0"), backend=engine)
        # The S1 after ref 2 becomes S2 on the output.
        assert Stop(2) in crd
        assert crd[-1] is DONE

    def test_empty_ref_scans_empty_fiber(self, harness, engine):
        crd, _ = scan(FIG1_J, [0, EMPTY, 2, Stop(0), DONE], backend=engine)
        # N scans as an empty fiber: two consecutive stops appear.
        assert crd == [1, Stop(0), Stop(0), 1, 3, Stop(1), DONE]

    def test_stray_stop_elevated(self, harness, engine):
        # A bare stop region (empty fiber upstream) re-emits one level up.
        crd, _ = scan(FIG1_J, [Stop(0), 1, Stop(0), DONE], backend=engine)
        assert crd == [Stop(1), 0, 2, Stop(1), DONE]


class TestDenseScanner:
    def test_enumerates_dimension(self, harness, engine):
        crd, ref = scan(DenseLevel(3), harness.paper("D, 0"), backend=engine)
        assert crd == [0, 1, 2, Stop(0), DONE]
        assert ref == [0, 1, 2, Stop(0), DONE]

    def test_affine_child_refs(self, harness, engine):
        _, ref = scan(DenseLevel(3), harness.paper("D, S0, 1, 0"), backend=engine)
        assert ref == [0, 1, 2, Stop(0), 3, 4, 5, Stop(1), DONE]


class TestSkipping:
    def test_skip_jumps_ahead(self, harness, engine):
        level = CompressedLevel.from_fibers([list(range(0, 100, 2))])
        # Ask to skip to coordinate 90 before scanning starts.
        crd, _ = scan(level, harness.paper("D, 0"), skip_tokens=[90], backend=engine)
        data = [t for t in crd if isinstance(t, int)]
        assert data[0] == 90
        assert len(data) == 5  # 90..98

    def test_skip_statistics(self, engine):
        from repro.blocks import StreamFeeder
        from repro.sim import run_blocks

        level = CompressedLevel.from_fibers([list(range(10))])
        in_ref = Channel("r", kind="ref")
        skip = Channel("s")
        skip.push(8)
        scanner = make_scanner(level, in_ref, Channel("c"), Channel("f"), in_skip=skip)
        run_blocks([StreamFeeder([0, DONE], in_ref), scanner], backend=engine)
        assert scanner.skipped_coordinates == 8


class TestBitvectorScanner:
    def test_section_4_3_example(self, harness, engine):
        # b = {0,2,6,8,9} at b=4: words "D, S0, 0011, 0100, 0101",
        # popcount references "D, S0, 3, 2, 0".
        level = BitvectorLevel.from_fibers([[0, 2, 6, 8, 9]], 11, 4)
        in_ref = Channel("r", kind="ref")
        out_bv = Channel("bv", kind="bv", record=True)
        out_ref = Channel("ref", kind="ref", record=True)
        from repro.blocks import StreamFeeder
        from repro.sim import run_blocks

        scanner = BitvectorLevelScanner(level, in_ref, out_bv, out_ref)
        run_blocks([StreamFeeder(harness.paper("D, 0"), in_ref), scanner],
                   backend=engine)
        assert list(out_bv.history) == [0b0101, 0b0100, 0b0011, Stop(0), DONE]
        assert list(out_ref.history) == [0, 2, 3, Stop(0), DONE]


class TestErrors:
    def test_format_mismatch(self):
        from repro.blocks.scanner import UncompressedLevelScanner

        level = CompressedLevel.from_fibers([[0, 2]])
        with pytest.raises(BlockError, match="needs a dense level"):
            UncompressedLevelScanner(level, Channel("r"), Channel("c"), Channel("f"))

    def test_bitvector_skip_unsupported(self):
        level = BitvectorLevel.from_fibers([[0]], 4, 4)
        with pytest.raises(BlockError):
            make_scanner(level, Channel("r"), Channel("c"), Channel("f"),
                         in_skip=Channel("s"))
