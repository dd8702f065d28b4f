"""Smoke test of the benchmark itself (collected by tier-1, a few seconds).

Runs every workload at reduced size with two ops each, in this process,
and checks the shape of what the benchmark reports — not how fast
anything is.
"""

import copy
import json
import os

import pytest

from perfbench import compare, metrics, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def records():
    return {
        name: run.run_workload(name, 3, ops=2, trace=True, smoke=True,
                               setup_children=0)
        for name in metrics.WORKLOADS
    }


def test_every_metric_is_emitted_with_its_unit(records):
    for name, record in records.items():
        assert (record["attempted"], record["failed"]) == (4, 0), name
        assert list(record["end_to_end"]) == [m.name for m in metrics.END_TO_END]
        assert list(record["per_layer"]) == [m.name for m in metrics.PER_LAYER]
        for trace in (0, 1):
            line = json.loads(run.contract_line(dict(record, trace=trace)))
            assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
            assert line["correct"] is True and line["metrics"]
            for metric, entry in line["metrics"].items():
                assert entry["unit"] == metrics.BY_NAME[metric].unit
                assert isinstance(entry["value"], (int, float))
        assert all(record["end_to_end"].values()), "an end-to-end metric is 0"


def test_each_workload_enters_its_layers(records):
    entered = {
        "mtx_spmv": ["data.read_mtx_s", "data.write_mtx_s", "formats.from_coords_s",
                     "graph.build_s", "sim.run_s.timed-batch"],
        "gamma_spmm": ["data.synthetic_s", "graph.build_s", "formats.to_numpy_s",
                       "sim.fused_blocks", "graph.segments"],
        "table1_mix": ["lang.parse_s", "lang.lower_s", "lang.ir_nodes",
                       "graph.bind_s", "graph.validate_s", "formats.from_numpy_s"]
                      + [f"sim.run_s.{engine}" for engine in metrics.ENGINES],
        "sweep_quick": ["memory.extensor_s", "harness.store_s", "harness.load_s",
                        "harness.warm_pass_s", "harness.cache_bytes",
                        "harness.code_version_s"]
                       + [f"studies.{study}.cold_s" for study in metrics.STUDIES],
    }
    everywhere = ["streams.rate1_schedule_s", "streams.segment_sums_small_s",
                  "cli.startup_s", "sim.cycles", "trace.coverage",
                  "trace.overhead_ratio", "host.speed", "host.op_wall_s.p50"]
    for name, record in records.items():
        for metric in entered[name] + everywhere:
            assert record["per_layer"][metric] > 0, (name, metric)
    for name in ("mtx_spmv", "gamma_spmm", "table1_mix"):
        assert records[name]["per_layer"]["jit.plan_hit_ratio"] == 1.0
    assert records["sweep_quick"]["per_layer"]["harness.hit_ratio"] == 1.0
    assert records["mtx_spmv"]["per_layer"]["lang.parse_s"] == 0  # never entered


def test_benchmark_json_matches_the_registry_and_its_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert doc == metrics.benchmark_json(doc["command"], doc["run_seconds"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in doc[key]]
    assert len(set(names)) == len(names)
    assert all(metrics.NAME_RE.match(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in doc["end_to_end"])
    assert any(entry["name"] == "setup_s" for entry in doc["end_to_end"])


def test_a_wrong_reference_is_a_failed_op():
    record = run.run_workload("mtx_spmv", 3, ops=2, smoke=True, corrupt=True,
                              setup_children=0)
    assert record["failed_share"] > 0
    assert json.loads(run.contract_line(record))["correct"] is False


def test_temporary_files_are_gone(records):
    assert not os.path.exists(run.WORK)


def _result_set(records, seed=3):
    return {"seed": seed, "fingerprint": records["mtx_spmv"]["fingerprint"],
            "workloads": {name: {"runs": [record], "traced": record}
                          for name, record in records.items()}}


def test_compare_verdicts(records):
    base = _result_set(records)
    assert all(row[-1] == "ok" for row in compare.compare(base, base))

    slower = copy.deepcopy(base)
    slower["workloads"]["gamma_spmm"]["runs"][0]["end_to_end"]["op_s.p50"] *= 2
    slower["workloads"]["table1_mix"]["traced"]["per_layer"]["sim.cycles"] += 1
    bad = {row[:2] for row in compare.compare(base, slower) if row[-1] == "regressed"}
    assert bad == {("gamma_spmm", "op_s.p50"), ("table1_mix", "sim.cycles")}

    noisy = copy.deepcopy(base)
    runs = noisy["workloads"]["gamma_spmm"]["runs"]
    for factor in (0.5, 1.5, 2.5):
        runs.append(copy.deepcopy(runs[0]))
        runs[-1]["end_to_end"]["op_s.p50"] *= factor
    rows = {row[:2]: row[-1] for row in compare.compare(noisy, base)}
    assert rows[("gamma_spmm", "op_s.p50")] == "unresolved"

    other_tier = copy.deepcopy(base)
    other_tier["fingerprint"]["jit"]["tier"] = "some-other-tier"
    assert "tier" in compare.refusal(base, other_tier)
    assert "seed" in compare.refusal(base, _result_set(records, seed=4))
