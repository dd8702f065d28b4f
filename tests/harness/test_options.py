"""Study options: every value ends in a named error or in checked specs.

Each study declares its options once (``STUDY.options``, rows of
:class:`repro.harness.Option`).  The properties draw values for every
option of every study — wrong types, negatives, zero, NaN, values out of
range, unknown keys — and push them through ``--opt`` parsing and
``Study.enumerate``, running no point: each ends in an
:class:`OptionError` that names the study and the option at fault, or in
specs whose every value passes its row's check.  The table at the end
runs the bad inputs once seen through ``repro`` itself: each is one
``repro: error:`` line and status 2, before any point runs.
"""

import contextlib
import io
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cli import _study_specs, build_parser, main
from repro.harness import STUDY_NAMES, Option, OptionError, get_study

STUDIES = [get_study(name) for name in STUDY_NAMES]

#: (study, option) for every option of every study
ROWS = [pytest.param(study, option, id=f"{study.name}.{option.name}")
        for study in STUDIES for option in study.options]

SCALARS = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 0.0, -0.5, 1.5, float("nan"), True, None, ""]),
    st.text(max_size=8),
    st.sampled_from(["nnz", "run_length", "block_size"]),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4),
                   st.lists(SCALARS, max_size=4).map(tuple))
TEXTS = st.one_of(
    st.text(max_size=12),
    st.lists(st.integers(-5, 3000).map(str), max_size=4).map(",".join),
    st.sampled_from(["0", "-2", "nan", "inf", "1.5", "1e3", "none", "abc",
                     "1,,4", ",", "nnz,block_size"]),
)


def named(study, option, err):
    """The option an OptionError names, after checking its form."""
    match = re.match(rf"{study.name}: option (\w+)=.*: \S", str(err), re.DOTALL)
    assert match, str(err)
    return match.group(1)


def at_fault(study, option):
    """The options a bad *option* value may fault: itself, and every row
    whose range ends at it."""
    return {option.name} | {o.name for o in study.options
                            if option.name in (o.low, o.high)}


def in_range(row, value, values, many):
    """Whether *value* lies in *row*'s range, read off the row's fields
    (the oracle beside ``Option.check``); *values* holds the others."""
    if value is None:
        return row.none
    if many:
        return isinstance(value, tuple) and bool(value) and all(
            in_range(row, item, values, False) for item in value)
    if row.kind is str:
        return value in row.choices
    low, high = (values[b] if isinstance(b, str) else b for b in (row.low, row.high))
    return (type(value) is row.kind and (row.kind is int or math.isfinite(value))
            and (low is None or value >= low) and (high is None or value <= high))


def enumerate_and_verify(study, option, options):
    """Enumerate *options*: a named OptionError, or specs whose values
    lie in their rows' ranges."""
    try:
        specs = study.enumerate(backend="cycle", options=options)
    except OptionError as err:
        assert named(study, option, err) in at_fault(study, option)
        return
    assert specs and all(spec.study == study.name for spec in specs)
    drawn = options.get(option.name)
    items = drawn if option.many and isinstance(drawn, (list, tuple)) else [drawn]
    assert not any(isinstance(item, bool) for item in items)  # no bool is a count
    values = {}
    for row in study.options:
        values[row.name] = row.check(study.name, options.get(row.name, row.default),
                                     values)
        assert in_range(row, values[row.name], values, row.many), row.name
    for spec in specs:
        for key, value in spec.point.items():
            row = next((o for o in study.options if o.name == key), None)
            if row is not None:
                assert in_range(row, value, values, False), (key, value)


@pytest.mark.parametrize("study, option", ROWS)
class TestEveryOption:
    @given(value=VALUES)
    @example(value=float("nan"))
    @example(value=-2)
    @example(value=())
    def test_enumerate_time(self, study, option, value):
        enumerate_and_verify(study, option, {option.name: value})

    @given(text=TEXTS)
    @example(text="abc")
    @example(text="0")
    def test_parse_time(self, study, option, text):
        try:
            parsed = study.parse({option.name: text})
        except OptionError as err:
            assert named(study, option, err) == option.name
            return
        enumerate_and_verify(study, option, parsed)


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_defaults_and_quick_values_pass_their_rows(name):
    study = get_study(name)
    assert study.enumerate(backend="cycle")
    assert study.enumerate(backend="cycle", options=study.quick_options)


@pytest.mark.parametrize("name", STUDY_NAMES)
@given(key=st.text(min_size=1, max_size=10), value=VALUES)
def test_enumerate_ignores_undeclared_keys(name, key, value):
    study = get_study(name)
    if any(o.name == key for o in study.options):
        return
    plain = study.enumerate(backend="cycle")
    assert study.enumerate(backend="cycle", options={key: value}) == plain


def test_quick_options_are_the_rows_quick_values():
    quick = {study.name: study.quick_options for study in STUDIES}
    assert quick == {
        "table1": {},
        "table2": {"distinct": 40, "total": 500},
        "fig11": {"size": 12, "k_sweep": (1, 4)},
        "fig12": {"i": 20, "j": 20, "k": 10},
        "fig13": {"size": 200, "nnz": 40, "split": 10, "nnz_sweep": (10, 40),
                  "run_sweep": (2, 20), "block_sweep": (2, 8)},
        "fig14": {"max_nnz": 200},
        "fig15": {"dimensions": (1024, 3696, 7704, 11712, 15720),
                  "nnzs": (5000, 10000)},
    }


class TestParse:
    FIG11 = get_study("fig11")

    def test_an_axis_takes_one_value_or_several(self):
        assert self.FIG11.parse({"k_sweep": "1"}) == {"k_sweep": (1,)}
        assert self.FIG11.parse({"k_sweep": "1,10,"}) == {"k_sweep": (1, 10)}
        specs = self.FIG11.enumerate("cycle", {"k_sweep": (4, 1, 4)})
        assert [spec.point["k"] for spec in specs] == [4] * 3 + [1] * 3

    def test_none_where_declared(self):
        fig14 = get_study("fig14")
        assert fig14.parse({"max_nnz": "none"}) == {"max_nnz": None}
        assert len(fig14.enumerate("cycle", {"max_nnz": None})) == 15
        with pytest.raises(OptionError, match="^fig11: option size=none: "):
            self.FIG11.parse({"size": "none"})

    def test_range_named_by_another_option(self):
        option = Option("nnz", int, 4, low=1, high="size")
        assert option.allowed() == "an integer in [1, size]"
        with pytest.raises(OptionError, match=r"nnz=9: an integer in \[1, size=8\]"):
            option.check("s", 9, {"size": 8})
        assert option.check("s", 8, {"size": 8}) == 8


#: (argv, the stderr line): bad inputs, each once a traceback or a
#: silent run of something else
REFUSED = [
    (["sweep", "fig11", "--quick", "--opt", "k_sweep=abc"],
     "fig11: option k_sweep=abc: comma-separated values, each an integer "
     "in [1, 1000]"),
    (["sweep", "fig12", "--quick", "--opt", "k=-2"],
     "fig12: option k=-2: an integer in [1, 1000]"),
    (["sweep", "fig11", "--quick", "--opt", "sparsity=1.5"],
     "fig11: option sparsity=1.5: a number in [0, 1]"),
    (["report", "table2", "--quick", "--opt", "distinct=0"],
     "table2: option distinct=0: an integer in [1, 10000]"),
    (["sweep", "fig11", "--quick", "--opt", "szie=250"],
     "fig11: option szie=250: no such option; declared: size, k_sweep, "
     "sparsity, seed"),
    (["report", "table1", "fig12", "--opt", "size=3"],
     "table1, fig12: option size=3: no such option; declared: i, j, k, "
     "sparsity, seed"),
    (["sweep", "table2", "--opt", "total=10"],
     "table2: option total=10: an integer in [distinct=400, 100000]"),
    (["sweep", "fig11", "--quick", "--opt", "size=100000"],
     "fig11: option size=100000: an integer in [1, 1000]"),
    (["sweep", "fig15", "--quick", "--opt", "dimensions=1024,1000000000"],
     "fig15: option dimensions=1024,1000000000: comma-separated values, each "
     "an integer in [1, 100000]"),
]


@pytest.mark.parametrize("argv, line", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_refused_is_one_line_and_status_2(capsys, argv, line):
    assert main(["--engine", "cycle", *argv, "--cache-dir", "none"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"repro: error: {line}\n"


def test_a_key_goes_only_to_the_studies_that_declare_it():
    args = build_parser().parse_args(
        ["--engine", "cycle", "sweep", "all", "--quick", "--opt", "seed=3"])
    by_name = {study.name: specs for study, specs in _study_specs(args)}
    assert list(by_name) == list(STUDY_NAMES)
    assert by_name["table1"] == get_study("table1").enumerate()
    for name, specs in by_name.items():
        if name != "table1":
            assert specs and all(spec.point["seed"] == 3 for spec in specs)


#: (study, option) for every option with an upper bound
BOUNDED = [pytest.param(study, option, id=f"{study.name}.{option.name}")
           for study in STUDIES for option in study.options
           if option.high is not None]


def quick_end(study, bound):
    """A range end under ``--quick``: a number, or the value the option
    it names takes there."""
    if not isinstance(bound, str):
        return bound
    row = next(o for o in study.options if o.name == bound)
    return study.quick_options.get(row.name, row.default)


def test_every_option_that_sizes_an_operand_is_bounded():
    sizing = {("fig11", "size"), ("fig11", "k_sweep"), ("fig12", "i"),
              ("fig12", "j"), ("fig12", "k"), ("fig13", "size"),
              ("fig15", "dimensions"), ("fig15", "nnzs"),
              ("table2", "distinct"), ("table2", "total")}
    bounded = {(p.values[0].name, p.values[1].name) for p in BOUNDED}
    assert sizing <= bounded


@pytest.mark.parametrize("study, option", BOUNDED)
@given(data=st.data())
def test_a_value_above_the_bound_is_one_error_line(study, option, data):
    high = quick_end(study, option.high)
    if option.kind is int:
        above = data.draw(st.integers(high + 1, high * 10**6))
        inside = st.integers(max(quick_end(study, option.low) or 0, high // 2), high)
    else:
        above = data.draw(st.floats(high, high * 10**6, exclude_min=True))
        inside = st.just(float(high))
    values = [above]
    if option.many:  # the value out of range may come among values in range
        values += data.draw(st.lists(inside, max_size=2))
        values = data.draw(st.permutations(values))
    text = ",".join(map(str, values))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(err):
        status = main(["--engine", "cycle", "sweep", study.name, "--quick",
                       "--opt", f"{option.name}={text}", "--cache-dir", "none"])
    assert (status, out.getvalue()) == (2, "")
    assert re.fullmatch(rf"repro: error: {study.name}: option {option.name}="
                        rf"{re.escape(text)}: [^\n]+\n", err.getvalue())
