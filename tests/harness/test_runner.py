"""SweepRunner: sharding invariance, resume, force, artifacts."""

import csv
import json

import pytest

from repro.harness import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    get_study,
    write_csv_artifact,
    write_json_artifact,
)

QUICK_FIG11 = {"size": 12, "k_sweep": (1, 4)}


def fig11_specs():
    return get_study("fig11").enumerate(backend="cycle", options=QUICK_FIG11)


class TestExecution:
    def test_results_align_with_spec_order(self):
        specs = fig11_specs()
        report = SweepRunner().run(specs)
        assert [r.spec for r in report.results] == specs

    def test_worker_count_invariance(self):
        """--jobs 1 and --jobs 4 must produce bit-identical payloads."""
        specs = fig11_specs()
        serial = SweepRunner(jobs=1).run(specs)
        sharded = SweepRunner(jobs=4).run(specs)
        assert [r.payload for r in serial.results] == [
            r.payload for r in sharded.results
        ]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestCachingAndResume:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"), version="v-test")

    def test_second_run_is_pure_replay(self, cache):
        specs = fig11_specs()
        cold = SweepRunner(cache=cache).run(specs)
        assert (cold.hits, cold.executed) == (0, len(specs))
        warm = SweepRunner(cache=cache).run(specs)
        assert (warm.hits, warm.executed) == (len(specs), 0)
        assert [r.payload for r in warm.results] == [
            r.payload for r in cold.results
        ]
        assert all(r.cached for r in warm.results)

    def test_resume_after_interrupt(self, cache):
        """Only the points missing from the cache are executed."""
        specs = fig11_specs()
        # Simulate an interrupted sweep: half the points completed.
        SweepRunner(cache=cache).run(specs[: len(specs) // 2])
        resumed = SweepRunner(cache=cache).run(specs)
        assert resumed.hits == len(specs) // 2
        assert resumed.executed == len(specs) - len(specs) // 2

    def test_partial_evict_reruns_only_evicted(self, cache):
        specs = fig11_specs()
        SweepRunner(cache=cache).run(specs)
        cache.evict(specs[0])
        cache.evict(specs[3])
        rerun = SweepRunner(cache=cache).run(specs)
        assert rerun.executed == 2 and rerun.hits == len(specs) - 2

    @pytest.mark.parametrize("text", ["{}", "[]", "null", '{"spec": 3}', '{"sp'])
    def test_malformed_entry_is_reexecuted_and_overwritten(self, cache, text):
        specs = fig11_specs()
        cold = SweepRunner(cache=cache).run(specs)
        with open(cache.path(specs[1]), "w") as handle:
            handle.write(text)
        rerun = SweepRunner(cache=cache).run(specs)
        assert (rerun.executed, rerun.hits) == (1, len(specs) - 1)
        assert [r.payload for r in rerun.results] == [r.payload for r in cold.results]
        assert cache.load(specs[1]).payload == cold.results[1].payload

    def test_force_reexecutes_everything(self, cache):
        specs = fig11_specs()
        SweepRunner(cache=cache).run(specs)
        forced = SweepRunner(cache=cache, force=True).run(specs)
        assert (forced.hits, forced.executed) == (0, len(specs))

    def test_sharded_run_persists_every_point(self, cache):
        specs = fig11_specs()
        SweepRunner(cache=cache, jobs=2).run(specs)
        assert all(spec in cache for spec in specs)

    def test_summary_mentions_counts(self, cache):
        report = SweepRunner(cache=cache).run(fig11_specs())
        assert "cached" in report.summary() and "executed" in report.summary()


class TestArtifacts:
    def test_json_artifact_round_trips(self, tmp_path):
        report = SweepRunner().run(fig11_specs())
        path = write_json_artifact(report.results, str(tmp_path / "fig11.json"))
        records = json.load(open(path))
        assert len(records) == len(report.results)
        assert records[0]["spec"]["study"] == "fig11"
        assert "cycles" in records[0]["payload"]

    def test_csv_artifact_flattens_payload(self, tmp_path):
        report = SweepRunner().run(fig11_specs())
        path = write_csv_artifact(report.results, str(tmp_path / "fig11.csv"))
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == len(report.results)
        assert {"study", "backend", "k", "variant", "cycles"} <= set(rows[0])

    def test_csv_flattens_nested_dicts(self, tmp_path):
        spec = ExperimentSpec("fig14", {"matrix": "m"})
        from repro.harness.spec import ExperimentResult

        result = ExperimentResult(spec, {"outer": {"idle": 3, "data": 1}})
        path = write_csv_artifact([result], str(tmp_path / "x.csv"))
        rows = list(csv.DictReader(open(path)))
        assert rows[0]["outer.idle"] == "3"
