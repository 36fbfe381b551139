"""The abstract value lattice under the proof tier (ISSUE 8).

Lattice-law tests (join is an upper bound, widening reaches a
fixpoint), string-shape classification, and the shape-preserving
concat/slice transfer functions the heap-spray proof depends on.
"""

import pytest

from repro.js.values import UNDEFINED
from repro.jsast import lattice as lat

pytestmark = pytest.mark.absint


class TestInterval:
    def test_exact_roundtrip(self):
        assert lat.Interval.exact(5.0).exact_value == 5.0
        assert lat.Interval(1.0, 2.0).exact_value is None
        assert lat.Interval.at_least(3.0).exact_value is None

    def test_join_is_upper_bound(self):
        a = lat.Interval.exact(2.0)
        b = lat.Interval.exact(10.0)
        joined = a.join(b)
        assert joined.lo <= 2.0
        assert joined.hi is not None and joined.hi >= 10.0

    def test_widen_drops_unstable_bounds(self):
        a = lat.Interval(0.0, 4.0)
        grown = lat.Interval(0.0, 8.0)
        widened = a.widen(grown)
        # The upper bound grew, so widening must discard it.
        assert widened.hi is None
        assert widened.lo == 0.0

    def test_widen_is_fixpoint_on_stable(self):
        a = lat.Interval(1.0, 7.0)
        assert a.widen(a) == a

    def test_clamp_lo_refines(self):
        assert lat.Interval(0.0, None).clamp_lo(100.0).lo == 100.0
        # Clamping never loosens an already-stronger bound.
        assert lat.Interval(200.0, None).clamp_lo(100.0).lo == 200.0

    def test_arithmetic_lower_bounds(self):
        a = lat.Interval(4.0, None)
        b = lat.Interval(3.0, None)
        assert a.add(b).lo == 7.0
        assert a.mul_nonneg(b).lo == 12.0


class TestClassifyString:
    def test_sled_is_repeated_unit(self):
        shape = lat.classify_string("邐" * 4096)
        assert shape.kind == lat.SHAPE_REPEATED
        assert shape.length.exact_value == 4096

    def test_percent_u_shape(self):
        shape = lat.classify_string("%u9090" * 64)
        assert shape.kind in (lat.SHAPE_PERCENT_U, lat.SHAPE_REPEATED)

    def test_plain_text(self):
        assert lat.classify_string("hello world").kind == lat.SHAPE_TEXT

    def test_numeric_string(self):
        assert lat.classify_string("123456").kind in (
            lat.SHAPE_NUMERIC,
            lat.SHAPE_HEX,
            lat.SHAPE_REPEATED,
        )


class TestJoinValue:
    def test_join_identical_consts_is_exact(self):
        v = lat.join_value(lat.AbsConst("a"), lat.AbsConst("a"))
        assert isinstance(v, lat.AbsConst)

    def test_join_different_consts_generalises_not_top(self):
        v = lat.join_value(lat.AbsConst("aaaa"), lat.AbsConst("bbbb"))
        assert not isinstance(v, lat.AbsConst)
        assert v is not lat.TOP  # length info survives as a shape

    def test_join_with_top_is_top(self):
        assert lat.join_value(lat.TOP, lat.AbsConst(1.0)) is lat.TOP

    @pytest.mark.parametrize(
        "a, b",
        [(1.0, True), (0.0, -0.0), (0.0, False), (None, UNDEFINED), ("1", 1.0)],
    )
    def test_distinct_constants_stay_apart(self, a, b):
        """Constants merge only when SameValue: Python's ``==`` merged
        ``1`` with ``true`` and ``0`` with ``-0``, and a loop that
        switched between them kept one constant that the runtime
        does not compute."""
        joined = lat.join_value(lat.AbsConst(a), lat.AbsConst(b))
        assert not isinstance(joined, lat.AbsConst)

    def test_booleans_join_with_no_number(self):
        assert lat.join_value(lat.AbsConst(True), lat.AbsConst(False)) is lat.TOP
        assert lat.join_value(lat.AbsConst(True), lat.AbsNum(lat.Interval(0.0, 1.0))) is lat.TOP
        assert lat.join_value(lat.AbsConst(1.0), lat.AbsConst(2.0)) == lat.AbsNum(
            lat.Interval(1.0, 2.0)
        )

    def test_nan_joins_with_itself(self):
        nan = lat.AbsConst(float("nan"))
        assert lat.join_value(nan, lat.AbsConst(float("nan"))) is nan

    def test_join_with_bottom_is_identity(self):
        c = lat.AbsConst(1.0)
        assert lat.join_value(lat.BOTTOM, c) is c

    def test_widen_value_terminates_growth(self):
        a = lat.AbsStr(
            lat.SHAPE_REPEATED,
            lat.Interval(16.0, 16.0),
            unit="邐",
            sled_chars=lat.Interval(16.0, 16.0),
        )
        b = lat.AbsStr(
            lat.SHAPE_REPEATED,
            lat.Interval(16.0, 32.0),
            unit="邐",
            sled_chars=lat.Interval(16.0, 32.0),
        )
        w = lat.widen_value(a, b)
        w2 = lat.widen_value(w, w)
        assert w2 == w  # widening reached its fixpoint


class TestConcat:
    def test_both_const_raises(self):
        # The interpreter folds const+const exactly *before* the
        # lattice concat; reaching here with two consts is a bug.
        with pytest.raises(ValueError):
            lat.concat(lat.AbsConst("a"), lat.AbsConst("b"))

    def test_sled_concat_payload_keeps_sled_prefix(self):
        sled = lat.classify_string("邐" * 0x8000)
        out = lat.concat(sled, lat.TOP)
        prefix = lat.sled_prefix_of(out)
        assert prefix.lo >= 0x8000

    def test_prefix_slice_preserves_sled_unit(self):
        sled = lat.classify_string("邐" * 0x8000)
        sliced = lat.prefix_slice(sled, lat.Interval.exact(0x4000))
        assert lat.sled_prefix_of(sliced).lo >= 0x4000
        assert lat.sled_unit_of(sliced) == "邐"

    def test_length_of_top_is_nonneg(self):
        assert lat.length_of(lat.TOP).lo == 0.0
        assert lat.length_of(lat.TOP).hi is None
