"""The structure-keyed plan cache: accounting, key semantics, reporting."""

import re

from repro.analysis.targets import capture_expression, capture_kernel
from repro.cli import main
from repro.graph.bind import partition_segments, segment_plan_key
from repro.jit import PlanCache, plan_digest
from repro.sim.backends.plan import plan_blocks


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache()
        first = cache.get(("k",))
        again = cache.get(("k",))
        assert first == again == plan_digest(("k",))
        assert cache.snapshot() == {"hits": 1, "misses": 1, "size": 1}
        assert ("k",) in cache and len(cache) == 1
        cache.clear()
        assert cache.snapshot() == {"hits": 0, "misses": 0, "size": 0}

    def test_digest_is_stable_and_short(self):
        key = (("Intersect", "head"), (1, 0, 1))
        assert plan_digest(key) == plan_digest(key)
        assert len(plan_digest(key)) == 12
        assert plan_digest(key) != plan_digest(key + ((),))


class TestSegmentPlanKey:
    def _segment_keys(self, name):
        captured = capture_kernel(name, backend="timed-batch", seed=7)
        blocks = captured[0].blocks
        return blocks, [
            (seg, segment_plan_key(blocks, seg))
            for seg in partition_segments(blocks)
        ]

    def test_key_is_deterministic_across_bindings(self):
        _, first = self._segment_keys("spmv")
        _, second = self._segment_keys("spmv")
        assert [k for _, k in first] == [k for _, k in second]

    def test_key_ignores_run_state_but_sees_structure(self):
        blocks, keyed = self._segment_keys("spmv")
        # the key must not embed anything run-specific: rebinding the
        # same expression (fresh block instances, fresh channels) above
        # already proved stability.  Now flip one structural attribute —
        # an ALU's op — and the containing segment's key must change.
        target = None
        for seg, key in keyed:
            for i in seg.members:
                if getattr(blocks[i], "op", None) in ("mul", "add"):
                    target = (seg, key, blocks[i])
                    break
            if target:
                break
        assert target is not None, "spmv graph should contain an ALU"
        seg, old_key, alu = target
        saved = alu.op
        try:
            alu.op = "max"
            assert segment_plan_key(blocks, seg) != old_key
        finally:
            alu.op = saved
        assert segment_plan_key(blocks, seg) == old_key

    def test_different_kernels_do_not_collide_everywhere(self):
        _, spmv = self._segment_keys("spmv")
        _, gamma = self._segment_keys("gamma")
        spmv_keys = {k for _, k in spmv}
        gamma_keys = {k for _, k in gamma}
        assert spmv_keys != gamma_keys


class TestReportPlans:
    def test_rerun_of_the_same_shape_hits(self):
        capture_kernel("spmv", backend="compiled", seed=7)
        plans = capture_kernel("spmv", backend="compiled", seed=7)[0].report.plans
        assert plans["segments"], "compiled spmv should produce fused segments"
        assert plans["run_misses"] == 0
        assert plans["run_hits"] == len(plans["segments"])
        assert all(segment["cached"] for segment in plans["segments"])

    def test_digests_match_dump_plan(self, capsys):
        expression = "x(i) = B(i,j) * c(j)"
        report = capture_expression(expression, backend="compiled")[0].report
        assert main(["--engine", "compiled", "graph", expression, "--dump-plan"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"plan cache: \d+ plans, \d+ hits, \d+ misses", lines[0])
        dumped = [
            re.fullmatch(r"segment (\S+) \[([0-9a-f]{12})\] warm: .+", line).groups()
            for line in lines[1:] if line.startswith("segment ")
        ]
        assert dumped == [
            (segment["kind"], segment["key"])
            for segment in report.plans["segments"]
        ]

    def test_dump_plan_names_each_blocks_plane(self, capsys):
        """One line per block, in block order: the plane and the reason a
        fresh plan of the run's blocks gives, its fused blocks the ones
        the compiled run fused."""
        expression = "x(i) = B(i,j) * c(j)"
        run = capture_expression(expression, backend="compiled")[0]
        assert main(["--engine", "compiled", "graph", expression, "--dump-plan"]) == 0
        dumped = [
            re.fullmatch(r"block (\S+): (\w+) \((.+)\)", line).groups()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("block ")
        ]
        fresh = plan_blocks(run.blocks)[0].planes(run.blocks)
        assert dumped == [(block.name, plane, reason)
                          for block, (plane, reason) in zip(run.blocks, fresh)]
        planes = [plane for _, plane, _ in dumped]
        assert planes.count("fused") == run.report.fusion["fused_blocks"] > 0
        assert set(planes) == {"timed", "fused"}

    def test_a_handed_off_plan_puts_every_block_on_cycle(self):
        expression = "x(i) = B(i,j) * c(j)"
        run = capture_expression(expression, backend="compiled")[0]
        run.blocks[0].timed_capable = lambda: False
        plan = plan_blocks(run.blocks)[0]
        planes = plan.planes(run.blocks)
        assert plan.handoff and plan.handoff.startswith(f"block {run.blocks[0].name!r}")
        assert planes[0] == ("cycle", plan.handoff)
        assert all(plane == "cycle" for plane, _ in planes)
        assert all(reason == f"the run is handed off: {plan.handoff}"
                   for _, reason in planes[1:])
