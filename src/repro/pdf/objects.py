"""The PDF object model.

Eight object types exist in PDF: booleans, numbers, strings, names,
arrays, dictionaries, streams and the null object.  Python booleans,
ints and floats represent the first two directly; the rest get small
dedicated classes so the parser can round-trip documents byte-exactly
enough for instrumentation and so the static features can see syntax
details (most importantly the ``#xx`` hex escapes inside names, which
feed the paper's "Hexadecimal Code in Keyword" feature).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Union


class PDFNullType:
    """The PDF ``null`` object (a singleton, like Python's ``None``)."""

    _instance: Optional["PDFNullType"] = None

    def __new__(cls) -> "PDFNullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PDFNull"

    def __bool__(self) -> bool:
        return False


PDFNull = PDFNullType()


class PDFName(str):
    """A PDF name object such as ``/JavaScript``.

    The value of the instance is always the *decoded* name (hex escapes
    resolved), so ``PDFName.from_raw("JavaScr#69pt") == PDFName("JavaScript")``.
    The original spelling is retained in :attr:`raw` so static analysis
    can flag hex-code obfuscation.
    """

    raw: str

    def __new__(cls, decoded: str, raw: Optional[str] = None) -> "PDFName":
        obj = super().__new__(cls, decoded)
        obj.raw = raw if raw is not None else cls.encode_default(decoded)
        return obj

    @staticmethod
    def encode_default(decoded: str) -> str:
        """Encode a decoded name minimally (delimiters and ``#`` escaped)."""
        out: List[str] = []
        for ch in decoded:
            code = ord(ch)
            if ch == "#" or code < 0x21 or code > 0x7E or ch in "()<>[]{}/%":
                out.append("#%02X" % code)
            else:
                out.append(ch)
        return "".join(out)

    @classmethod
    def from_raw(cls, raw: str) -> "PDFName":
        """Build a name from its raw on-disk spelling, resolving ``#xx``."""
        decoded: List[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch == "#" and i + 2 < len(raw) + 1:
                hex_digits = raw[i + 1 : i + 3]
                if len(hex_digits) == 2 and all(
                    c in "0123456789abcdefABCDEF" for c in hex_digits
                ):
                    decoded.append(chr(int(hex_digits, 16)))
                    i += 3
                    continue
            decoded.append(ch)
            i += 1
        return cls("".join(decoded), raw=raw)

    @property
    def uses_hex_escape(self) -> bool:
        """True when the on-disk spelling hides characters behind ``#xx``."""
        return "#" in self.raw

    def __repr__(self) -> str:
        return f"PDFName(/{str(self)})"


@dataclass(frozen=True)
class PDFRef:
    """An indirect reference, e.g. ``4 0 R``."""

    num: int
    gen: int = 0

    def __repr__(self) -> str:
        return f"PDFRef({self.num} {self.gen} R)"


class PDFString(bytes):
    """A PDF string object.

    PDF strings are byte strings; they may appear as literal ``(...)``
    or hexadecimal ``<...>`` strings.  :attr:`hex_form` records which
    spelling the document used (writers preserve it).
    """

    hex_form: bool

    def __new__(cls, data: Union[bytes, str], hex_form: bool = False) -> "PDFString":
        if isinstance(data, str):
            data = data.encode("latin-1", errors="replace")
        obj = super().__new__(cls, data)
        obj.hex_form = hex_form
        return obj

    def to_text(self) -> str:
        """Decode to text (UTF-16BE when BOM-prefixed, else Latin-1)."""
        if self.startswith(b"\xfe\xff"):
            return self[2:].decode("utf-16-be", errors="replace")
        return self.decode("latin-1")

    def __repr__(self) -> str:
        return f"PDFString({bytes(self)!r})"


class PDFArray(list):
    """A PDF array object (a plain list with a marker type)."""

    def __repr__(self) -> str:
        return f"PDFArray({list(self)!r})"


class PDFDict(dict):
    """A PDF dictionary object keyed by :class:`PDFName` (or str).

    Lookups accept plain strings; keys are stored as given by the
    parser so hex-escaped spellings survive round-trips.
    """

    def get_name(self, key: str) -> Optional[PDFName]:
        value = self.get(key)
        return value if isinstance(value, PDFName) else None

    def __repr__(self) -> str:
        return f"PDFDict({dict(self)!r})"


class PDFStream:
    """A PDF stream: a dictionary plus raw (encoded) byte data.

    :attr:`raw_data` holds the bytes exactly as they appear between
    ``stream`` and ``endstream``.  Use :meth:`decoded_data` (see
    :mod:`repro.pdf.filters`) for filter-cascade decoding.

    :attr:`budget_key` is a construction-time ordinal giving the stream
    a stable identity for per-document decompression accounting.
    ``id(stream)`` is unusable for that: CPython reuses ids after GC,
    so long batch scans silently merged distinct streams' charges.
    """

    _budget_keys = itertools.count(1)

    def __init__(self, dictionary: Optional[PDFDict] = None, raw_data: bytes = b"") -> None:
        self.dictionary = dictionary if dictionary is not None else PDFDict()
        self.raw_data = raw_data
        self.budget_key = next(PDFStream._budget_keys)

    @property
    def filters(self) -> List[PDFName]:
        """The filter cascade as a list (empty, one, or many)."""
        entry = self.dictionary.get("Filter")
        if entry is None or entry is PDFNull:
            return []
        if isinstance(entry, PDFName):
            return [entry]
        if isinstance(entry, PDFArray):
            return [f for f in entry if isinstance(f, PDFName)]
        return []

    @property
    def encoding_levels(self) -> int:
        """Number of filters applied — the paper's "levels of encoding"."""
        return len(self.filters)

    def decoded_data(self) -> bytes:
        from repro.pdf import filters as _filters

        return _filters.decode_stream(self)

    def set_decoded_data(self, data: bytes, filters: Optional[List[str]] = None) -> None:
        """Replace the payload, re-encoding through ``filters`` (if any)."""
        from repro.pdf import filters as _filters

        names = [PDFName(f) for f in (filters if filters is not None else [])]
        encoded = data
        for name in reversed(names):
            encoded = _filters.encode(name, encoded)
        self.raw_data = encoded
        if names:
            if len(names) == 1:
                self.dictionary["Filter"] = names[0]
            else:
                self.dictionary["Filter"] = PDFArray(names)
        else:
            self.dictionary.pop("Filter", None)
        self.dictionary["Length"] = len(encoded)

    def __repr__(self) -> str:
        return f"PDFStream(dict={dict(self.dictionary)!r}, {len(self.raw_data)} raw bytes)"


PDFObject = Union[
    bool, int, float, PDFNullType, PDFString, PDFName, PDFArray, PDFDict, PDFStream, PDFRef
]


@dataclass
class IndirectObject:
    """A numbered object as stored in the document body."""

    num: int
    gen: int
    value: PDFObject

    @property
    def ref(self) -> PDFRef:
        return PDFRef(self.num, self.gen)


_NUM_GEN = attrgetter("num", "gen")


@dataclass
class ObjectStore:
    """All indirect objects of a document, addressable by reference."""

    objects: Dict[PDFRef, IndirectObject] = field(default_factory=dict)

    def add(self, obj: IndirectObject) -> PDFRef:
        ref = obj.ref
        self.objects[ref] = obj
        return ref

    def resolve(self, value: PDFObject) -> PDFObject:
        """Follow a reference one hop (missing targets become null)."""
        if isinstance(value, PDFRef):
            entry = self.objects.get(value)
            if entry is None and value.gen != 0:
                entry = self.objects.get(PDFRef(value.num, 0))
            return entry.value if entry is not None else PDFNull
        return value

    def deep_resolve(self, value: PDFObject, max_hops: Optional[int] = None) -> PDFObject:
        """Resolve references transitively (bounded against cycles).

        A chain that is still a reference after ``max_hops`` hops is a
        cycle or an absurdly long indirection ladder.  Under an active
        scan budget that blows the ``ref-hops`` budget (the scan aborts
        with structured evidence); otherwise it resolves to ``PDFNull``
        — callers expect a *resolved* value and must never see a leaked
        :class:`PDFRef`.
        """
        if not isinstance(value, PDFRef):
            return value
        budget = None
        if max_hops is None:
            from repro import limits as limits_mod

            budget = limits_mod.active()
            max_hops = (
                budget.limits.max_ref_hops if budget is not None
                else limits_mod.DEFAULT_LIMITS.max_ref_hops
            )
        hops = 0
        while isinstance(value, PDFRef) and hops < max_hops:
            value = self.resolve(value)
            hops += 1
        if isinstance(value, PDFRef):
            if budget is not None:
                budget.exhaust_ref_hops(hops)
            return PDFNull
        return value

    def next_num(self) -> int:
        if not self.objects:
            return 1
        return max(ref.num for ref in self.objects) + 1

    def __iter__(self) -> Iterator[IndirectObject]:
        return iter(sorted(self.objects.values(), key=_NUM_GEN))

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, ref: PDFRef) -> bool:
        return ref in self.objects

    def __getitem__(self, ref: PDFRef) -> IndirectObject:
        return self.objects[ref]
