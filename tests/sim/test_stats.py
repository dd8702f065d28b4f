"""Token-breakdown statistics tests (Figure 14 machinery)."""

from repro.sim.stats import TokenBreakdown, channel_breakdown
from repro.streams import Channel, DONE, EMPTY, Stop


class TestTokenBreakdown:
    def test_fractions_sum_to_one(self):
        bd = TokenBreakdown(data=6, stop=2, done=1, empty=1, idle=10)
        assert abs(sum(bd.fractions().values()) - 1.0) < 1e-12

    def test_control_overhead_excludes_idle(self):
        bd = TokenBreakdown(data=8, stop=1, done=1, empty=0, idle=90)
        assert bd.control_overhead() == 0.2

    def test_empty_breakdown(self):
        bd = TokenBreakdown(0, 0, 0, 0, 0)
        assert bd.control_overhead() == 0.0
        assert bd.fractions()["data"] == 0.0


class TestChannelBreakdown:
    def test_counts_and_idle(self):
        ch = Channel("c")
        for token in [1, 2, Stop(0), EMPTY, DONE]:
            ch.push(token)
        bd = channel_breakdown(ch, total_cycles=10)
        assert (bd.data, bd.stop, bd.done, bd.empty) == (2, 1, 1, 1)
        assert bd.idle == 5
        assert bd.total == 10

    def test_idle_never_negative(self):
        ch = Channel("c")
        ch.push(1)
        ch.push(DONE)
        assert channel_breakdown(ch, total_cycles=1).idle == 0
