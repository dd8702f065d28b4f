"""The three analysis passes over real kernel graphs.

Protocol inference must resolve and accept every stock kernel; the
deadlock pass must prove them capacity-deadlock-free; the rate pass must
predict busy cycles that the timed backend's counters confirm.  The
bottleneck pins (satellite acceptance) live in
``test_bottleneck.py``; mutation sensitivity in ``test_mutations.py``.
"""

import pytest

from repro.analysis import (
    analyze_deadlock,
    analyze_rates,
    infer_protocol,
    lint_blocks,
)
from repro.analysis.targets import (
    EXPRESSION_TARGETS,
    capture_expression,
    capture_kernel,
)


@pytest.fixture(scope="module")
def spmv_graphs():
    return capture_kernel("spmv", backend="timed-batch")


class TestProtocolPass:
    def test_spmv_signatures(self, spmv_graphs):
        report = infer_protocol(spmv_graphs[0].blocks)
        assert report.findings == []
        sigs = report.meta["protocol"]["signatures"]
        # the canonical SpMV streams, straight from the paper's Fig. 4
        assert sigs["scan_Bi.crd->drop_zero.outer"] == "crd@1"
        assert sigs["scan_Bj.crd->locate_c.crd"] == "crd@2"
        assert sigs["scan_Bj.ref->locate_c.ref"] == "ref@2"
        assert sigs["vals_B.val->mul.a"] == "vals@2"
        # ScalarReducer drops one level
        assert sigs["reduce_j.val->drop_zero.inner"] == "vals@1"
        assert sigs["drop_zero.inner->write_x_vals.val"] == "vals@1"
        assert report.meta["protocol"]["unresolved"] == []

    @pytest.mark.parametrize("expression,schedule", EXPRESSION_TARGETS,
                             ids=[e for e, _ in EXPRESSION_TARGETS])
    def test_lowered_expressions_are_protocol_clean(self, expression,
                                                    schedule):
        for graph in capture_expression(expression, backend="timed-batch",
                                        schedule=schedule):
            report = infer_protocol(graph.blocks)
            assert report.findings == [], [
                f.render() for f in report.findings]


class TestDeadlockPass:
    def test_spmv_proved_free(self, spmv_graphs):
        report = analyze_deadlock(spmv_graphs[0].blocks)
        assert report.findings == []
        assert report.meta["deadlock"]["proved_free"]

    def test_skip_channels_do_not_trip_cycle_detection(self):
        # elementwise intersect graphs carry backwards skip channels;
        # the scanner's nonblocking skip input keeps them cycle-safe
        for graph in capture_kernel("elementwise", backend="timed-batch"):
            report = analyze_deadlock(graph.blocks)
            assert report.findings == [], graph.label
            assert report.meta["deadlock"]["proved_free"]


class TestRatePass:
    def test_uncalibrated_graph_reports_note_not_findings(self):
        from repro.blocks import Sink, StreamFeeder
        from repro.streams.channel import Channel

        chan = Channel("c", kind="vals")
        blocks = [StreamFeeder([], chan, name="feed"),
                  Sink(chan, name="sink")]
        report = analyze_rates(blocks)
        assert report.findings == []
        assert not report.meta["rate"]["calibrated"]
        assert "note" in report.meta["rate"]

    def test_spmv_prediction_matches_timed_counters(self):
        graph = capture_kernel("spmv", backend="timed-batch")[0]
        measured = graph.measured_busy()
        report = analyze_rates(graph.blocks, measured=measured)
        meta = report.meta["rate"]
        assert meta["calibrated"]
        assert report.findings == [], [f.render() for f in report.findings]
        assert meta["bottleneck"] == meta["bottleneck_chain"][0]
        # utilization is normalised to the bottleneck
        assert meta["utilization"][meta["bottleneck"]] == 1.0

    def test_lint_blocks_composes_all_passes(self, spmv_graphs):
        report = lint_blocks(spmv_graphs[0].blocks, rate=True)
        assert "protocol" in report.meta
        assert "deadlock" in report.meta
        assert "rate" in report.meta
        assert report.findings == []
