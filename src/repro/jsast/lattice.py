"""Value lattice for the abstract interpreter (:mod:`repro.jsast.absint`).

The domain is deliberately small — it exists to prove two families of
facts about obfuscated droppers:

* *benign* facts: every string fed to ``eval`` is a known constant, so
  each obfuscation layer can be peeled and re-analysed;
* *malicious* facts: a spray block provably carries ``L ≥ threshold``
  characters of shellcode/NOP sled and is copied ``N ≥ bound`` times,
  so the allocation lower bound ``2·L·N`` exceeds the detector's
  memory threshold without running anything.

Elements (partial order ``BOTTOM ⊑ AbsConst ⊑ shape ⊑ TOP``):

``BOTTOM``
    unreachable / no value yet.
``AbsConst``
    one exact JS primitive, as the runtime represents it
    (:data:`repro.jsast.consts.Const`: ``undefined`` apart from
    ``null``).
``AbsNum``
    a number within a (possibly unbounded) :class:`Interval`.
``AbsStr``
    a string of known *shape*: repeated unit, sled-carrier (a sled
    prefix plus unknown tail), numeric/hex/percent-u text, or unknown
    content with length bounds.  ``sled_chars`` is a proven *lower*
    bound on the contiguous non-printable payload prefix.
``AbsFunc`` / ``LOCAL_OBJ``
    a user-defined function / a locally-allocated array or object
    (their *contents* are unknown, but they are not host API objects).
``TOP``
    anything, including host objects.

Joins generalise: two distinct constant strings sharing a primitive
period join to a ``repeated-unit`` shape (that is how a doubling loop
``s += s`` converges in two abstract iterations), distinct numbers join
to an interval, and widening pushes unstable interval bounds to ±∞ so
every loop reaches a fixed point in a bounded number of steps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.jsast.consts import Const, same_value

#: Shape kinds carried by :class:`AbsStr`.
SHAPE_REPEATED = "repeated-unit"
SHAPE_SLED_CARRIER = "sled-carrier"
SHAPE_NUMERIC = "numeric"
SHAPE_HEX = "hex"
SHAPE_PERCENT_U = "percent-u"
SHAPE_TEXT = "text"

_PCT_U_RE = re.compile(r"%u[0-9a-fA-F]{4}")
_HEX_RE = re.compile(r"[0-9a-fA-F]+\Z")
_NUMERIC_RE = re.compile(r"[0-9]+\Z")


# ---------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True)
class Interval:
    """A closed interval over JS numbers; ``None`` bounds are ±∞."""

    lo: Optional[float]
    hi: Optional[float]

    @classmethod
    def exact(cls, value: float) -> "Interval":
        return cls(value, value)

    @classmethod
    def at_least(cls, value: float) -> "Interval":
        return cls(value, None)

    @classmethod
    def top(cls) -> "Interval":
        return cls(None, None)

    @property
    def exact_value(self) -> Optional[float]:
        if self.lo is not None and self.lo == self.hi:
            return self.lo
        return None

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Keep stable bounds, drop the ones still moving."""
        lo = self.lo if (self.lo is not None and other.lo is not None and other.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and other.hi is not None and other.hi <= self.hi) else None
        return Interval(lo, hi)

    def clamp_lo(self, bound: float) -> "Interval":
        """Refine: the value is additionally known to be ≥ ``bound``."""
        lo = bound if self.lo is None else max(self.lo, bound)
        return Interval(lo, self.hi)

    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def mul_nonneg(self, other: "Interval") -> "Interval":
        """Product assuming both intervals are non-negative (lengths,
        trip counts); anything else degrades to ⊤."""
        if (self.lo is not None and self.lo < 0) or (
            other.lo is not None and other.lo < 0
        ):
            return Interval.top()
        lo = 0.0 if self.lo is None or other.lo is None else self.lo * other.lo
        hi = None if self.hi is None or other.hi is None else self.hi * other.hi
        return Interval(lo, hi)


NONNEG = Interval(0.0, None)
ZERO = Interval.exact(0.0)


# ---------------------------------------------------------------------------
# Abstract values


class AbsValue:
    """Base class of every lattice element."""

    __slots__ = ()


@dataclass(frozen=True)
class _Bottom(AbsValue):
    pass


@dataclass(frozen=True)
class _Top(AbsValue):
    pass


@dataclass(frozen=True)
class _LocalObj(AbsValue):
    """A locally-allocated array/object literal (not a host object)."""


BOTTOM = _Bottom()
TOP = _Top()
LOCAL_OBJ = _LocalObj()


@dataclass(frozen=True)
class AbsConst(AbsValue):
    value: Const


@dataclass(frozen=True)
class AbsNum(AbsValue):
    range: Interval


@dataclass(frozen=True)
class AbsFunc(AbsValue):
    name: str = ""


@dataclass(frozen=True)
class AbsStr(AbsValue):
    """A string of known shape but (partially) unknown content."""

    kind: str
    length: Interval
    #: The repeating unit for ``repeated-unit`` / the sled unit for
    #: ``sled-carrier`` (a short exact string, e.g. ``"邐"``).
    unit: Optional[str] = None
    #: Proven lower/upper bounds on the sled-character *prefix*.
    sled_chars: Interval = field(default_factory=lambda: ZERO)

    def describe(self) -> str:
        lo = int(self.length.lo) if self.length.lo is not None else 0
        hi = "∞" if self.length.hi is None else str(int(self.length.hi))
        unit = f" unit={self.unit!r}" if self.unit else ""
        sled = ""
        if self.sled_chars.lo:
            sled = f" sled≥{int(self.sled_chars.lo)}"
        return f"{self.kind}[{lo}..{hi}]{unit}{sled}"


# ---------------------------------------------------------------------------
# String classification


def primitive_period(text: str) -> str:
    """Smallest unit ``u`` with ``text == u * k`` (may be ``text``)."""
    if not text:
        return text
    # Classic trick: the earliest non-trivial occurrence of text in
    # (text + text) reveals the primitive period.
    shift = (text + text).find(text, 1)
    if shift != -1 and len(text) % shift == 0:
        return text[:shift]
    return text


def is_sled_unit(unit: str) -> bool:
    """Does this unit look like shellcode/NOP-sled material rather than
    printable text?  ``unescape("%u9090")`` produces ``"邐"``."""
    if not unit or len(unit) > 8:
        return False
    return all(ord(ch) >= 0x80 or ord(ch) < 0x20 for ch in unit)


def classify_string(text: str) -> AbsStr:
    """Shape summary of an exact string (used when a constant must be
    generalised — joins, oversized folds)."""
    length = Interval.exact(float(len(text)))
    if not text:
        return AbsStr(SHAPE_TEXT, length)
    unit = primitive_period(text)
    if len(unit) < len(text) and is_sled_unit(unit):
        return AbsStr(SHAPE_REPEATED, length, unit=unit, sled_chars=length)
    if _PCT_U_RE.search(text) and len(_PCT_U_RE.findall(text)) * 6 >= len(text) // 2:
        return AbsStr(SHAPE_PERCENT_U, length)
    if _NUMERIC_RE.match(text):
        return AbsStr(SHAPE_NUMERIC, length)
    if len(text) >= 16 and _HEX_RE.match(text):
        return AbsStr(SHAPE_HEX, length)
    if len(unit) < len(text):
        return AbsStr(SHAPE_REPEATED, length, unit=unit)
    return AbsStr(SHAPE_TEXT, length)


def length_of(value: AbsValue) -> Interval:
    """Interval of ``value.length`` for string-ish abstract values."""
    if isinstance(value, AbsConst) and isinstance(value.value, str):
        return Interval.exact(float(len(value.value)))
    if isinstance(value, AbsStr):
        return value.length
    return NONNEG


def sled_prefix_of(value: AbsValue) -> Interval:
    """Proven bounds on the sled-character prefix of a string value."""
    if isinstance(value, AbsConst) and isinstance(value.value, str):
        return classify_string(value.value).sled_chars
    if isinstance(value, AbsStr):
        return value.sled_chars
    return ZERO


def sled_unit_of(value: AbsValue) -> Optional[str]:
    if isinstance(value, AbsConst) and isinstance(value.value, str):
        shape = classify_string(value.value)
        return shape.unit if shape.sled_chars.lo else None
    if isinstance(value, AbsStr):
        return value.unit
    return None


def number_range(value: AbsValue) -> Optional[Interval]:
    """Interval view of a numeric abstract value (``None`` if not a
    number)."""
    if isinstance(value, AbsConst):
        if isinstance(value.value, bool):
            return Interval.exact(1.0 if value.value else 0.0)
        if isinstance(value.value, float):
            return Interval.exact(value.value)
        return None
    if isinstance(value, AbsNum):
        return value.range
    return None


# ---------------------------------------------------------------------------
# Join / widen


def _join_const_strings(a: str, b: str) -> AbsValue:
    """Generalise two distinct exact strings.

    The doubling-loop case matters most: ``a`` and ``b = a + a`` share
    a primitive period, so the join is a ``repeated-unit`` shape whose
    length interval spans both — widening then lifts the upper bound
    and the loop converges.
    """
    length = Interval.exact(float(len(a))).join(Interval.exact(float(len(b))))
    unit_a = primitive_period(a) if a else None
    unit_b = primitive_period(b) if b else None
    if unit_a and unit_a == unit_b:
        sled = length if is_sled_unit(unit_a) else ZERO
        return AbsStr(SHAPE_REPEATED, length, unit=unit_a, sled_chars=sled)
    shape_a, shape_b = classify_string(a), classify_string(b)
    kind = shape_a.kind if shape_a.kind == shape_b.kind else SHAPE_TEXT
    if kind in (SHAPE_REPEATED, SHAPE_SLED_CARRIER):
        kind = SHAPE_TEXT
    return AbsStr(kind, length)


def _join_str_shapes(a: AbsStr, b: AbsStr) -> AbsStr:
    length = a.length.join(b.length)
    sled = a.sled_chars.join(b.sled_chars)
    if a.kind == b.kind and a.unit == b.unit:
        return AbsStr(a.kind, length, unit=a.unit, sled_chars=sled)
    kinds = {a.kind, b.kind}
    if kinds <= {SHAPE_REPEATED, SHAPE_SLED_CARRIER} and a.unit == b.unit:
        return AbsStr(SHAPE_SLED_CARRIER, length, unit=a.unit, sled_chars=sled)
    return AbsStr(SHAPE_TEXT, length, sled_chars=sled)


def as_str_shape(value: AbsValue) -> Optional[AbsStr]:
    if isinstance(value, AbsStr):
        return value
    if isinstance(value, AbsConst) and isinstance(value.value, str):
        return classify_string(value.value)
    return None


def _number_interval(value: AbsValue) -> Optional[Interval]:
    """:func:`number_range` of a number: a boolean joins with no number,
    since ``'' + true`` is not ``'1'``."""
    if isinstance(value, AbsConst) and isinstance(value.value, bool):
        return None
    return number_range(value)


def join_value(a: AbsValue, b: AbsValue) -> AbsValue:
    if isinstance(a, AbsConst) and isinstance(b, AbsConst):
        # Python's ``==`` would merge 1 with true and 0 with -0.
        if same_value(a.value, b.value):
            return a
        if isinstance(a.value, str) and isinstance(b.value, str):
            return _join_const_strings(a.value, b.value)
    elif a == b:
        return a
    if isinstance(a, _Bottom):
        return b
    if isinstance(b, _Bottom):
        return a
    if isinstance(a, _Top) or isinstance(b, _Top):
        return TOP
    sa, sb = as_str_shape(a), as_str_shape(b)
    if sa is not None and sb is not None:
        return _join_str_shapes(sa, sb)
    ra, rb = _number_interval(a), _number_interval(b)
    if ra is not None and rb is not None:
        return AbsNum(ra.join(rb))
    if isinstance(a, _LocalObj) and isinstance(b, _LocalObj):
        return LOCAL_OBJ
    if isinstance(a, AbsFunc) and isinstance(b, AbsFunc):
        return AbsFunc("")
    return TOP


def widen_value(a: AbsValue, b: AbsValue) -> AbsValue:
    """Widening: like join, but interval bounds that moved go to ±∞."""
    joined = join_value(a, b)
    if joined == a:
        return a
    if isinstance(joined, AbsNum):
        base = number_range(a)
        if base is not None:
            return AbsNum(base.widen(joined.range))
        return AbsNum(Interval.top())
    if isinstance(joined, AbsStr):
        base = as_str_shape(a)
        if base is not None:
            return replace(
                joined,
                length=base.length.widen(joined.length),
                sled_chars=base.sled_chars.widen(joined.sled_chars),
            )
        return replace(
            joined, length=NONNEG, sled_chars=ZERO
        )
    return joined


# ---------------------------------------------------------------------------
# Abstract string operations (the few the spray idiom needs)


def concat(a: AbsValue, b: AbsValue) -> AbsValue:
    """Abstract ``a + b`` where at least one side is string-ish."""
    if isinstance(a, AbsConst) and isinstance(b, AbsConst):
        raise ValueError("constant concat must be done exactly by the caller")
    sa, sb = as_str_shape(a), as_str_shape(b)
    if sa is None or sb is None:
        known = sa or sb
        if known is None:
            return TOP
        # One side is an unknown string-convertible value: keep the
        # known side's sled prefix only when it comes first.
        if known is sa:
            return AbsStr(
                SHAPE_SLED_CARRIER if known.sled_chars.lo else SHAPE_TEXT,
                Interval(known.length.lo, None),
                unit=known.unit,
                sled_chars=Interval(known.sled_chars.lo, None)
                if known.sled_chars.lo
                else ZERO,
            )
        return AbsStr(SHAPE_TEXT, Interval(known.length.lo, None))
    length = sa.length.add(sb.length)
    # The left side's sled prefix survives concatenation; if the left
    # side is *pure* sled (repeated unit), the right side's sled would
    # only extend it when units match.
    sled = sa.sled_chars
    if (
        sa.kind == SHAPE_REPEATED
        and sa.unit is not None
        and sa.unit == sb.unit
        and sb.sled_chars.lo
    ):
        sled = sa.sled_chars.add(sb.sled_chars)
        return AbsStr(SHAPE_REPEATED, length, unit=sa.unit, sled_chars=sled)
    if sled.lo:
        return AbsStr(SHAPE_SLED_CARRIER, length, unit=sa.unit, sled_chars=sled)
    return AbsStr(SHAPE_TEXT, length)


def prefix_slice(value: AbsValue, count: Interval) -> AbsValue:
    """Abstract ``s.substring(0, n)`` / ``s.substr(0, n)``.

    The result is a prefix of ``value`` of length ``min(n, len(s))``;
    sled prefixes survive prefix slicing exactly.
    """
    shape = as_str_shape(value)
    if shape is None:
        return TOP
    len_lo = 0.0
    if count.lo is not None and shape.length.lo is not None:
        len_lo = min(count.lo, shape.length.lo)
    len_hi: Optional[float] = count.hi
    if shape.length.hi is not None:
        len_hi = shape.length.hi if len_hi is None else min(len_hi, shape.length.hi)
    length = Interval(len_lo, len_hi)
    sled_lo = 0.0
    if shape.sled_chars.lo is not None:
        sled_lo = min(shape.sled_chars.lo, len_lo)
    kind = shape.kind
    if kind == SHAPE_SLED_CARRIER and not sled_lo:
        kind = SHAPE_TEXT
    return AbsStr(
        kind,
        length,
        unit=shape.unit,
        sled_chars=Interval(sled_lo, length.hi),
    )
