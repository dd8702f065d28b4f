"""Every study plugs into the harness: enumerate → execute → render."""

import json

import pytest

from blockkit import ENGINES
from repro.harness import STUDY_NAMES, SweepRunner, get_study

STUDIES = [get_study(name) for name in STUDY_NAMES]

#: reduced-scale options per study so the whole matrix stays fast;
#: falls back to the study's own quick_options
TEST_OPTIONS = {
    "fig13": {"size": 200, "nnz": 40, "split": 10,
              "nnz_sweep": (10,), "run_sweep": (2,), "block_sweep": (2,)},
    "fig14": {"max_nnz": 200},
    "fig15": {"dimensions": (512, 1024, 2048), "nnzs": (1000,)},
    "table2": {"distinct": 20, "total": 200},
}


class TestRegistry:
    def test_all_seven_studies_resolve(self):
        assert len(STUDY_NAMES) == 7
        for study in STUDIES:
            assert study.name in STUDY_NAMES
            assert study.title

    def test_unknown_study_rejected(self):
        with pytest.raises(KeyError):
            get_study("fig99")

    def test_unknown_options_are_filtered(self):
        study = get_study("table1")
        specs = study.enumerate(options={"size": 999, "bogus": True})
        assert len(specs) == 12

    def test_backend_stamped_only_on_sim_studies(self):
        sim = get_study("fig11").enumerate(backend="timed-batch",
                                           options={"k_sweep": (1,)})
        assert all(s.backend == "timed-batch" for s in sim)
        analytic = get_study("fig15").enumerate(
            backend="timed-batch", options=TEST_OPTIONS["fig15"])
        assert all(s.backend == "-" for s in analytic)


#: each study on every engine when it simulates, once when it does not
STUDY_RUNS = [
    pytest.param(name, engine, id=f"{name}-{engine}" if engine else name)
    for name in STUDY_NAMES
    for engine in (ENGINES if get_study(name).uses_backend else (None,))
]


@pytest.mark.parametrize("name, engine", STUDY_RUNS)
class TestEveryStudy:
    def _options(self, study):
        return TEST_OPTIONS.get(study.name, study.quick_options)

    def test_enumerate_execute_render(self, name, engine, request):
        if name == "table1":  # its differential trials run on the default engine
            request.getfixturevalue("default_engine")
        study = get_study(name)
        specs = study.enumerate(backend=engine, options=self._options(study))
        assert specs, f"{name} enumerated no sweep points"
        assert all(s.study == name for s in specs)
        report = SweepRunner().run(specs)
        # Payloads must survive the JSON cache round-trip bit-exactly.
        for result in report.results:
            assert result.payload == json.loads(json.dumps(result.payload))
        text = study.render(report.results)
        assert isinstance(text, str) and text.strip()

    def test_specs_have_unique_keys(self, name, engine):
        study = get_study(name)
        specs = study.enumerate(backend=engine, options=self._options(study))
        keys = {spec.key("v") for spec in specs}
        assert len(keys) == len(specs)
