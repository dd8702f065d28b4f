"""ExperimentSpec keying and ResultCache hit/miss semantics."""

import json
import multiprocessing
import os

import pytest

from repro.harness import (
    CODE_VERSION_ENV_VAR,
    ExperimentResult,
    ExperimentSpec,
    ResultCache,
    code_version,
)


class TestSpecKeys:
    def test_canonical_is_key_order_independent(self):
        a = ExperimentSpec("fig11", {"size": 12, "k": 1, "variant": "unfused"})
        b = ExperimentSpec("fig11", {"variant": "unfused", "k": 1, "size": 12})
        assert a.canonical() == b.canonical()
        assert a.key() == b.key()

    def test_key_depends_on_point(self):
        a = ExperimentSpec("fig11", {"k": 1})
        b = ExperimentSpec("fig11", {"k": 2})
        assert a.key() != b.key()

    def test_key_depends_on_backend(self):
        a = ExperimentSpec("fig11", {"k": 1}, backend="cycle")
        b = ExperimentSpec("fig11", {"k": 1}, backend="timed-batch")
        assert a.key() != b.key()

    def test_key_depends_on_code_version(self):
        spec = ExperimentSpec("fig11", {"k": 1})
        assert spec.key("v1") != spec.key("v2")

    def test_numpy_scalar_points_canonicalise(self):
        # np.linspace/np.arange sweeps put numpy scalars into points;
        # they must serialise and hash identically to native values.
        import numpy as np

        native = ExperimentSpec("fig15", {"dim": 1024, "frac": 0.5})
        numpied = ExperimentSpec(
            "fig15", {"dim": np.int64(1024), "frac": np.float64(0.5)}
        )
        assert numpied.canonical() == native.canonical()
        assert numpied.key() == native.key()

    def test_numpy_array_point_canonicalises_as_list(self):
        import numpy as np

        from repro.harness.spec import canonical_json

        assert canonical_json({"k": np.arange(3)}) == '{"k":[0,1,2]}'
        assert canonical_json({"flag": np.bool_(True)}) == '{"flag":true}'

    def test_non_serialisable_point_still_rejected(self):
        from repro.harness.spec import canonical_json

        with pytest.raises(TypeError):
            canonical_json({"bad": object()})

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV_VAR, "testing-digest")
        assert code_version() == "testing-digest"

    def test_code_version_digests_sources(self, monkeypatch):
        monkeypatch.delenv(CODE_VERSION_ENV_VAR, raising=False)
        version = code_version()
        assert version and len(version) == 16
        # Stable across calls within one process (memoized).
        assert code_version() == version

    def test_round_trip(self):
        spec = ExperimentSpec("fig12", {"i": 20, "order": "ikj"},
                              backend="timed-batch")
        again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec


#: records each of two writer processes appends to one log at once
STORES_PER_WRITER = 200


def store_many(root, barrier, writer):
    """Append STORES_PER_WRITER records to fig11's log, from a process
    of its own, started at the same moment as the other writer."""
    cache = ResultCache(root, version="v-test")
    barrier.wait(timeout=30)
    for i in range(STORES_PER_WRITER):
        spec = ExperimentSpec("fig11", {"w": writer, "i": i})
        cache.store(ExperimentResult(spec, {"i": i, "pad": "x" * 3000}))


def two_specs():
    return ExperimentSpec("fig11", {"k": 1}), ExperimentSpec("fig11", {"k": 2})


def reopen(cache):
    """A new cache on *cache*'s root: it reads every log afresh."""
    return ResultCache(cache.root, version=cache.version)


def append(cache, spec, text):
    """Append *text* as a line under *spec*'s key to its study's log."""
    os.makedirs(cache.root, exist_ok=True)
    with open(cache.path(spec), "a") as handle:
        handle.write(f"{spec.key(cache.version)} {text}\n")


def log_bytes(cache, spec):
    with open(cache.path(spec), "rb") as handle:
        return handle.read()


class TestResultCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"), version="v-test")

    def test_miss_then_hit(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        assert spec not in cache
        assert cache.load(spec) is None
        cache.store(ExperimentResult(spec, {"cycles": 42}, elapsed_s=0.5))
        for view in (cache, reopen(cache)):
            assert spec in view
            loaded = view.load(spec)
            assert loaded.payload == {"cycles": 42}
            assert loaded.cached is True
            assert loaded.spec == spec

    def test_version_partitions_entries(self, tmp_path):
        spec = ExperimentSpec("fig11", {"k": 1})
        old = ResultCache(str(tmp_path), version="v-old")
        old.store(ExperimentResult(spec, {"cycles": 1}))
        assert old.load(spec) is not None
        new = ResultCache(str(tmp_path), version="v-new")
        assert new.load(spec) is None

    def test_corrupt_entry_is_a_miss(self, cache):
        spec, other = two_specs()
        cache.store(ExperimentResult(other, {"cycles": 7}))
        append(cache, spec, "{truncated")
        fresh = reopen(cache)
        assert fresh.load(spec) is None
        assert fresh.load(other).payload == {"cycles": 7}

    @pytest.mark.parametrize(
        "text",
        ["{}", "[]", "null", '{"spec": 3}', '{"spec": {"study": "fig11", "poi'],
        ids=["empty-dict", "list", "null", "non-dict-spec", "truncated"],
    )
    def test_entry_that_is_not_a_result_is_a_miss(self, cache, text):
        spec = ExperimentSpec("fig11", {"k": 1})
        append(cache, spec, text)
        assert cache.load(spec) is None
        assert cache.size() == 0
        # the re-executed point's store supersedes the bad line
        assert cache.store(ExperimentResult(spec, {"cycles": 43})) == cache.path(spec)
        assert cache.load(spec).payload == {"cycles": 43}
        assert reopen(cache).load(spec).payload == {"cycles": 43}
        assert cache.prune_stale() == 1  # the bad line
        assert cache.prune_stale() == 0
        assert reopen(cache).load(spec).payload == {"cycles": 43}

    def test_entry_recording_another_spec_is_a_miss(self, cache):
        spec, other = two_specs()
        cache.store(ExperimentResult(other, {"cycles": 7}))
        record = log_bytes(cache, other).decode().split(" ", 1)[1].rstrip("\n")
        append(cache, spec, record)  # other's record under spec's key
        fresh = reopen(cache)
        assert fresh.load(spec) is None
        assert fresh.load(other).payload == {"cycles": 7}
        assert fresh.size() == 1
        assert fresh.prune_stale() == 1

    def test_last_well_formed_line_wins(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        cache.store(ExperimentResult(spec, {"cycles": 1}))
        cache.store(ExperimentResult(spec, {"cycles": 2}))
        append(cache, spec, "[]")
        fresh = reopen(cache)
        assert fresh.load(spec).payload == {"cycles": 2}
        assert fresh.size() == 1
        assert fresh.prune_stale() == 2  # the superseded line and the bad one
        assert log_bytes(cache, spec).count(b"\n") == 1
        assert reopen(cache).load(spec).payload == {"cycles": 2}

    def test_prune_stale_removes_malformed_entries(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        append(cache, spec, "[]")
        assert cache.prune_stale() == 1
        assert spec not in cache
        assert not os.path.exists(cache.path(spec))  # no line left: no log

    def test_evict(self, cache):
        spec, other = two_specs()
        cache.store(ExperimentResult(spec, {"cycles": 42}))
        cache.store(ExperimentResult(other, {"cycles": 7}))
        assert cache.evict(spec) is True
        assert cache.evict(spec) is False
        assert spec not in cache
        fresh = reopen(cache)
        assert spec not in fresh
        assert fresh.load(other).payload == {"cycles": 7}

    def test_iter_entries_and_size(self, cache):
        for k in (1, 2, 3):
            cache.store(ExperimentResult(ExperimentSpec("fig11", {"k": k}), {"c": k}))
        cache.store(ExperimentResult(ExperimentSpec("table2", {"s": "adder"}), {}))
        for view in (cache, reopen(cache)):
            assert view.size() == 4
            assert view.size("fig11") == 3
            payloads = sorted(r.payload["c"] for r in view.iter_entries("fig11"))
            assert payloads == [1, 2, 3]

    def test_prune_stale_keeps_current_version(self, tmp_path):
        spec = ExperimentSpec("fig11", {"k": 1})
        old = ResultCache(str(tmp_path), version="v-old")
        old.store(ExperimentResult(spec, {"cycles": 1}))
        new = ResultCache(str(tmp_path), version="v-new")
        new.store(ExperimentResult(spec, {"cycles": 2}))
        assert new.prune_stale() == 1
        assert reopen(old).load(spec) is None
        assert new.load(spec).payload == {"cycles": 2}
        assert reopen(new).load(spec).payload == {"cycles": 2}
        assert new.prune_stale() == 0

    def test_prune_names_the_old_layout_and_deletes_none_of_it(self, tmp_path,
                                                                capsys):
        from repro.cli import main

        old = tmp_path / "table2"  # the older <root>/<study>/<key>.json files
        (old / "deep").mkdir(parents=True)
        for name in ("a.json", "b.json", "deep/c.json"):
            (old / name).write_text("{}\n")
        argv = ["--engine", "timed-batch", "sweep", "table2", "--quick",
                "--cache-dir", str(tmp_path)]
        assert main(argv + ["--prune"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "pruned 0 stale cache entries",
            f"{old}{os.sep} holds 3 files of the older per-point cache layout, "
            "which no sweep reads: delete it by hand",
        ]
        assert sorted(p.name for p in old.rglob("*")) == ["a.json", "b.json",
                                                          "c.json", "deep"]
        assert main(argv) == 0  # only --prune looks for it
        assert "per-point" not in capsys.readouterr().out

    def test_a_study_is_one_log_and_nothing_else(self, cache):
        for k in range(5):
            cache.store(ExperimentResult(ExperimentSpec("fig11", {"k": k}), {"c": k}))
        cache.store(ExperimentResult(ExperimentSpec("table2", {"s": "adder"}), {}))
        assert sorted(os.listdir(cache.root)) == ["fig11.jsonl", "table2.jsonl"]
        text = log_bytes(cache, ExperimentSpec("fig11")).decode()
        assert text.endswith("\n") and text.count("\n") == 5

    def test_a_store_whose_dumps_raises_leaves_the_log_byte_identical(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        cache.store(ExperimentResult(spec, {"cycles": 1}))
        before = log_bytes(cache, spec)
        with pytest.raises(TypeError):  # fails before the log is opened
            cache.store(ExperimentResult(spec, {"cycles": object()}))
        assert log_bytes(cache, spec) == before
        assert os.listdir(cache.root) == ["fig11.jsonl"]
        assert reopen(cache).load(spec).payload == {"cycles": 1}

    def test_a_failed_write_leaves_earlier_records_loadable(self, cache, monkeypatch):
        spec, other = two_specs()
        cache.store(ExperimentResult(spec, {"cycles": 1}))

        def refuse(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.store(ExperimentResult(other, {"cycles": 2}))
        monkeypatch.undo()
        assert os.listdir(cache.root) == ["fig11.jsonl"]
        fresh = reopen(cache)
        assert fresh.load(spec).payload == {"cycles": 1}
        assert fresh.load(other) is None

    def test_a_short_write_is_a_torn_line_the_next_store_steps_over(
            self, cache, monkeypatch):
        spec, other = two_specs()
        cache.store(ExperimentResult(spec, {"cycles": 1}))
        real = os.write
        monkeypatch.setattr(os, "write",
                            lambda fd, data: real(fd, data[: len(data) // 2]))
        with pytest.raises(OSError, match="appended"):
            cache.store(ExperimentResult(other, {"cycles": 2}))
        monkeypatch.undo()
        assert not log_bytes(cache, spec).endswith(b"\n")
        assert reopen(cache).load(spec).payload == {"cycles": 1}
        assert reopen(cache).load(other) is None
        # the same cache knows its log is torn; so does a fresh one
        cache.store(ExperimentResult(other, {"cycles": 2}))
        third = ExperimentSpec("fig11", {"k": 3})
        reopen(cache).store(ExperimentResult(third, {"cycles": 3}))
        fresh = reopen(cache)
        loaded = [fresh.load(s).payload["cycles"] for s in (spec, other, third)]
        assert loaded == [1, 2, 3]

    def test_a_log_cut_mid_record_misses_only_the_cut_record(self, cache):
        specs = [ExperimentSpec("fig11", {"k": k}) for k in range(3)]
        for k, spec in enumerate(specs):
            cache.store(ExperimentResult(spec, {"cycles": k}))
        data = log_bytes(cache, specs[0])
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in (last + 10, last + 30, len(data) - 5):  # inside the last line
            with open(cache.path(specs[0]), "wb") as handle:
                handle.write(data[:cut])
            fresh = reopen(cache)
            assert [fresh.load(s) is not None for s in specs] == [True, True, False]
            assert fresh.size() == 2
            fresh.store(ExperimentResult(specs[2], {"cycles": 2}))
            again = reopen(cache)
            assert [again.load(s).payload["cycles"] for s in specs] == [0, 1, 2]

    def test_two_processes_append_to_one_log(self, cache):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        writers = [ctx.Process(target=store_many, args=(cache.root, barrier, w))
                   for w in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert [w.is_alive() or w.exitcode for w in writers] == [0, 0]
        fresh = reopen(cache)
        specs = [ExperimentSpec("fig11", {"w": w, "i": i})
                 for w in range(2) for i in range(STORES_PER_WRITER)]
        assert all(fresh.load(spec).payload["i"] == spec.point["i"] for spec in specs)
        assert fresh.size() == 2 * STORES_PER_WRITER
        assert os.listdir(cache.root) == ["fig11.jsonl"]

    def test_entry_is_compact_sorted_json(self, cache):
        result = ExperimentResult(ExperimentSpec("fig11", {"k": 1, "a": 2}),
                                  {"cycles": 42, "b": [1, 2]}, elapsed_s=0.5)
        cache.store(result)
        text = log_bytes(cache, result.spec).decode()
        assert text == result.spec.key("v-test") + " " + json.dumps(
            result.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def test_a_spec_is_keyed_once(self, cache, monkeypatch):
        from repro.harness import spec as spec_module

        calls = []
        real = spec_module.canonical_json
        monkeypatch.setattr(spec_module, "canonical_json",
                            lambda value: calls.append(value) or real(value))
        spec = ExperimentSpec("fig11", {"k": 1})
        assert cache.load(spec) is None  # the cold pass looks first
        cache.store(ExperimentResult(spec, {"cycles": 42}))
        assert cache.load(spec).payload == {"cycles": 42}  # the warm pass
        # once for this spec, once for the spec the entry records (load's
        # guard compares the two)
        assert len(calls) == 2

    def test_numpy_payload_round_trips(self, cache):
        # Studies routinely hand back np.int64 cycles / np.float64 stats;
        # storing them must not crash and must reload as native values.
        import numpy as np

        spec = ExperimentSpec("fig11", {"size": np.int64(12)})
        cache.store(ExperimentResult(
            spec, {"cycles": np.int64(42), "frac": np.float64(0.25)}
        ))
        loaded = cache.load(spec)
        assert loaded.payload == {"cycles": 42, "frac": 0.25}
