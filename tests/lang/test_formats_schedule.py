"""Unit tests for the format language and scheduling language."""

import pytest

from repro.lang import (
    Access,
    ExpressionError,
    FormatSpec,
    Schedule,
    TensorFormat,
    apply_schedule,
    default_order,
    parse,
)


class TestTensorFormat:
    def test_make_with_abbreviations(self):
        fmt = TensorFormat.make(["comp.", "Dense"])
        assert fmt.formats == ("compressed", "dense")

    def test_sparse_and_short_names(self):
        assert TensorFormat.make(["s", "d"]).formats == ("compressed", "dense")
        assert TensorFormat.make(["bv"]).formats == ("bitvector",)

    def test_unknown_format_rejected(self):
        with pytest.raises(ExpressionError):
            TensorFormat.make(["csr"])

    def test_default_mode_order_identity(self):
        assert TensorFormat.make(["c", "c"]).mode_order == (0, 1)

    def test_bad_mode_order_rejected(self):
        with pytest.raises(ExpressionError):
            TensorFormat.make(["c", "c"], mode_order=(0, 0))

    def test_storage_vars_respects_mode_order(self):
        fmt = TensorFormat.make(["c", "c"], mode_order=(1, 0))
        access = Access("B", ("i", "j"))
        assert fmt.storage_vars(access) == ("j", "i")
        assert fmt.level_var(access, 0) == "j"

    def test_constructors(self):
        assert TensorFormat.compressed(2).formats == ("compressed",) * 2


class TestFormatSpec:
    def test_default_is_all_compressed(self):
        spec = FormatSpec()
        fmt = spec.for_access(Access("B", ("i", "j")))
        assert fmt.formats == ("compressed", "compressed")

    def test_coerce_from_dict(self):
        spec = FormatSpec.coerce({"B": ["dense", "compressed"]})
        assert spec.for_access(Access("B", ("i", "j"))).formats == (
            "dense", "compressed",
        )

    def test_coerce_with_mode_order_pair(self):
        spec = FormatSpec.coerce({"C": (["c", "c"], (1, 0))})
        assert spec.for_access(Access("C", ("k", "j"))).mode_order == (1, 0)

    def test_coerce_passthrough(self):
        spec = FormatSpec()
        assert FormatSpec.coerce(spec) is spec
        assert FormatSpec.coerce(None).formats == {}

    def test_order_mismatch_rejected(self):
        spec = FormatSpec.coerce({"B": ["compressed"]})
        with pytest.raises(ExpressionError):
            spec.for_access(Access("B", ("i", "j")))


class TestSchedule:
    def test_default_order_alphabetical(self):
        asg = parse("X(j,i) = B(j,k) * C(k,i)")
        assert default_order(asg) == ("i", "j", "k")

    def test_apply_schedule_reorder(self):
        asg = parse("X(i,j) = B(i,k) * C(k,j)")
        cin = apply_schedule(asg, Schedule(reorder=("k", "i", "j")))
        assert cin.order == ("k", "i", "j")
        assert "forall k forall i forall j" in str(cin)

    def test_reorder_must_be_permutation(self):
        asg = parse("x(i) = b(i)")
        with pytest.raises(ExpressionError):
            apply_schedule(asg, Schedule(reorder=("i", "j")))

    def test_coerce(self):
        assert Schedule.coerce(None).reorder is None
        assert Schedule.coerce(("i", "j")).reorder == ("i", "j")
        sched = Schedule(reorder=("i",))
        assert Schedule.coerce(sched) is sched
