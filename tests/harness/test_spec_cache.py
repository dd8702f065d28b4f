"""ExperimentSpec keying and ResultCache hit/miss semantics."""

import json
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

    def test_label_mentions_study_and_point(self):
        spec = ExperimentSpec("fig11", {"k": 10, "variant": "unfused"})
        assert "fig11" in spec.label() and "k=10" in spec.label()


class TestResultCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"), version="v-test")

    def test_miss_then_hit(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        assert spec not in cache
        assert cache.load(spec) is None
        cache.store(ExperimentResult(spec, {"cycles": 42}, elapsed_s=0.5))
        assert spec in cache
        loaded = cache.load(spec)
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
        spec = ExperimentSpec("fig11", {"k": 1})
        cache.store(ExperimentResult(spec, {"cycles": 42}))
        with open(cache.path(spec), "w") as handle:
            handle.write("{truncated")
        assert cache.load(spec) is None

    @pytest.mark.parametrize(
        "text",
        ["{}", "[]", "null", '{"spec": 3}', '{"spec": {"study": "fig11", "poi'],
        ids=["empty-dict", "list", "null", "non-dict-spec", "truncated"],
    )
    def test_entry_that_is_not_a_result_is_a_miss(self, cache, text):
        spec = ExperimentSpec("fig11", {"k": 1})
        path = cache.store(ExperimentResult(spec, {"cycles": 42}))
        with open(path, "w") as handle:
            handle.write(text)
        assert cache.load(spec) is None
        assert cache.size() == 0
        # the re-executed point's store overwrites the bad file
        assert cache.store(ExperimentResult(spec, {"cycles": 43})) == path
        assert cache.load(spec).payload == {"cycles": 43}
        assert cache.prune_stale() == 0

    def test_entry_recording_another_spec_is_a_miss(self, cache):
        spec, other = ExperimentSpec("fig11", {"k": 1}), ExperimentSpec("fig11", {"k": 2})
        cache.store(ExperimentResult(other, {"cycles": 7}))
        os.replace(cache.path(other), cache.path(spec))
        assert cache.load(spec) is None

    def test_prune_stale_removes_malformed_entries(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        with open(cache.store(ExperimentResult(spec, {"cycles": 42})), "w") as handle:
            handle.write("[]")
        assert cache.prune_stale() == 1
        assert spec not in cache

    def test_evict(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        cache.store(ExperimentResult(spec, {"cycles": 42}))
        assert cache.evict(spec) is True
        assert cache.evict(spec) is False
        assert spec not in cache

    def test_iter_entries_and_size(self, cache):
        for k in (1, 2, 3):
            cache.store(ExperimentResult(ExperimentSpec("fig11", {"k": k}), {"c": k}))
        cache.store(ExperimentResult(ExperimentSpec("table2", {"s": "adder"}), {}))
        assert cache.size() == 4
        assert cache.size("fig11") == 3
        payloads = sorted(r.payload["c"] for r in cache.iter_entries("fig11"))
        assert payloads == [1, 2, 3]

    def test_prune_stale_keeps_current_version(self, tmp_path):
        spec = ExperimentSpec("fig11", {"k": 1})
        old = ResultCache(str(tmp_path), version="v-old")
        old.store(ExperimentResult(spec, {"cycles": 1}))
        new = ResultCache(str(tmp_path), version="v-new")
        new.store(ExperimentResult(spec, {"cycles": 2}))
        assert new.prune_stale() == 1
        assert old.load(spec) is None
        assert new.load(spec).payload == {"cycles": 2}
        assert new.prune_stale() == 0

    def test_store_is_atomic_no_temp_residue(self, cache):
        spec = ExperimentSpec("fig11", {"k": 1})
        path = cache.store(ExperimentResult(spec, {"cycles": 42}))
        directory = os.path.dirname(path)
        assert [f for f in os.listdir(directory) if f.startswith(".tmp-")] == []

    def test_a_failed_store_leaves_no_temp_file(self, cache, monkeypatch):
        spec = ExperimentSpec("fig11", {"k": 1})
        cache.store(ExperimentResult(spec, {"cycles": 1}))
        directory = os.path.dirname(cache.path(spec))
        with pytest.raises(TypeError):  # fails before the temp file is opened
            cache.store(ExperimentResult(spec, {"cycles": object()}))

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):  # fails after
            cache.store(ExperimentResult(spec, {"cycles": 2}))
        assert os.listdir(directory) == [os.path.basename(cache.path(spec))]
        assert cache.load(spec).payload == {"cycles": 1}

    def test_entry_is_compact_sorted_json(self, cache):
        result = ExperimentResult(ExperimentSpec("fig11", {"k": 1, "a": 2}),
                                  {"cycles": 42, "b": [1, 2]}, elapsed_s=0.5)
        with open(cache.store(result)) as handle:
            text = handle.read()
        assert text == json.dumps(result.to_dict(), sort_keys=True,
                                  separators=(",", ":"))

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
