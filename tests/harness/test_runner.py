"""SweepRunner: sharding invariance, resume, force, artifacts."""

import csv
import json
import os
import signal
import subprocess
import sys
import time

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
        fresh = ResultCache(cache.root, version=cache.version)
        assert [spec in fresh for spec in specs].count(False) == 2
        rerun = SweepRunner(cache=cache).run(specs)
        assert rerun.executed == 2 and rerun.hits == len(specs) - 2

    @pytest.mark.parametrize("text", ["{}", "[]", "null", '{"spec": 3}', '{"sp'])
    def test_malformed_entry_is_reexecuted_and_superseded(self, cache, text):
        specs = fig11_specs()
        cold = SweepRunner(cache=cache).run(specs)
        cache.evict(specs[1])
        with open(cache.path(specs[1]), "a") as handle:  # the point's only line
            handle.write(f"{specs[1].key(cache.version)} {text}\n")
        fresh = ResultCache(cache.root, version=cache.version)
        rerun = SweepRunner(cache=fresh).run(specs)
        assert (rerun.executed, rerun.hits) == (1, len(specs) - 1)
        assert [r.payload for r in rerun.results] == [r.payload for r in cold.results]
        again = ResultCache(cache.root, version=cache.version)
        assert again.load(specs[1]).payload == cold.results[1].payload

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


def two_study_specs():
    return [spec for name in ("table2", "fig11")
            for spec in get_study(name).enumerate(
                backend="cycle", options=get_study(name).quick_options)]


class TestOneLogPerStudy:
    """A cold sweep creates one file per study, not one per point, and a
    warm pass reads each study's log once."""

    def test_a_cold_sweep_leaves_one_file_per_study(self, tmp_path):
        specs = two_study_specs()
        cold = SweepRunner(ResultCache(str(tmp_path), version="v-test")).run(specs)
        assert cold.executed == len(specs) > 2
        files = [os.path.join(d, f) for d, _, names in os.walk(tmp_path) for f in names]
        assert sorted(os.path.relpath(f, tmp_path) for f in files) == [
            "fig11.jsonl", "table2.jsonl"]

    def test_a_warm_pass_reads_each_log_once(self, tmp_path, monkeypatch):
        from repro.harness import cache as cache_module

        specs = two_study_specs()
        cold = SweepRunner(ResultCache(str(tmp_path), version="v-test")).run(specs)
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
        monkeypatch.setattr(os, "open", lambda *a, **k: pytest.fail("a store"))
        warm = SweepRunner(ResultCache(str(tmp_path), version="v-test")).run(specs)
        assert (warm.hits, warm.executed) == (len(specs), 0)
        assert sorted(opened) == ["fig11.jsonl", "table2.jsonl"]
        assert [r.payload for r in warm.results] == [r.payload for r in cold.results]


#: a 12-point fig11 grid of ~1 s under ``cycle``, its points growing
#: with k: long enough to kill its sweep after the first points land
KILLED_GRID = {"size": 20, "k_sweep": (1, 8, 16, 24)}


def test_a_sweep_killed_mid_run_reruns_only_the_missing_points(tmp_path):
    root = str(tmp_path / "cache")
    log = os.path.join(root, "fig11.jsonl")
    k_sweep = ",".join(map(str, KILLED_GRID["k_sweep"]))
    argv = [sys.executable, "-m", "repro", "--engine", "cycle", "sweep", "fig11",
            "--cache-dir", root, "--opt", f"size={KILLED_GRID['size']}",
            "--opt", f"k_sweep={k_sweep}"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while _lines(log) < 2 and child.poll() is None and time.monotonic() < deadline:
            time.sleep(0.002)
        child.send_signal(signal.SIGKILL)
    finally:
        _, err = child.communicate(timeout=60)
    assert child.returncode == -signal.SIGKILL, err
    with open(log) as handle:
        completed = {line.split(" ", 1)[0] for line in handle if line.endswith("\n")}
    specs = get_study("fig11").enumerate(backend="cycle", options=KILLED_GRID)
    assert 2 <= len(completed) < len(specs)  # killed mid-sweep
    cache = ResultCache(root)
    assert {spec.key(cache.version) for spec in specs if spec in cache} == completed
    rerun = SweepRunner(cache=cache).run(specs)
    assert (rerun.hits, rerun.executed) == (len(completed), len(specs) - len(completed))
    assert all(r.payload["correct"] for r in rerun.results)


def _lines(path) -> int:
    try:
        with open(path, "rb") as handle:
            return handle.read().count(b"\n")
    except FileNotFoundError:
        return 0


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
