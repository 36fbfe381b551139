"""PDF serializer.

Writes an :class:`~repro.pdf.objects.ObjectStore` + trailer back into a
byte buffer with a classic cross-reference table.  Obfuscation knobs
(header displacement, invalid versions) exist because the corpus
generator needs to *produce* the evasions the paper's static features
detect.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Optional, Tuple

from repro.pdf.objects import (
    ObjectStore,
    PDFArray,
    PDFDict,
    PDFName,
    PDFNullType,
    PDFRef,
    PDFStream,
    PDFString,
)


def serialize_value(value: object) -> bytes:
    """Serialize one PDF object (not including ``obj``/``endobj``)."""
    if isinstance(value, bool):
        return b"true" if value else b"false"
    if isinstance(value, int):
        return str(value).encode("ascii")
    if isinstance(value, float):
        text = f"{value:.6f}".rstrip("0").rstrip(".")
        return (text or "0").encode("ascii")
    if isinstance(value, PDFNullType):
        return b"null"
    if isinstance(value, PDFName):
        return b"/" + value.raw.encode("latin-1")
    if isinstance(value, PDFString):
        return _serialize_string(value)
    if isinstance(value, PDFRef):
        return f"{value.num} {value.gen} R".encode("ascii")
    if isinstance(value, PDFArray):
        inner = b" ".join(serialize_value(item) for item in value)
        return b"[" + inner + b"]"
    if isinstance(value, PDFStream):
        return _serialize_stream(value)
    if isinstance(value, PDFDict):
        return _serialize_dict(value)
    if isinstance(value, str):  # tolerate plain strings as names-in-waiting
        return _serialize_string(PDFString(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")


#: The escape a literal string writes for each control or non-ASCII
#: byte other than ``\\n`` and ``\\r``: three octal digits.
_OCTAL_ESCAPES = [b"\\%03o" % byte for byte in range(256)]
#: A run of bytes a literal string writes as octal escapes.
_UNPRINTABLE_RUN = re.compile(rb"[\x00-\x1f\x7f-\xff]+")
_PRINTABLE = bytes(range(0x20, 0x7F))


def _escape_run(match: "re.Match[bytes]") -> bytes:
    return b"".join([_OCTAL_ESCAPES[byte] for byte in match[0]])


def _serialize_string(value: PDFString) -> bytes:
    if value.hex_form:
        return b"<" + bytes(value).hex().upper().encode("ascii") + b">"
    # Backslash first, so the escapes added after it stay single.
    data = (
        value.replace(b"\\", b"\\\\")
        .replace(b"(", b"\\(")
        .replace(b")", b"\\)")
        .replace(b"\n", b"\\n")
        .replace(b"\r", b"\\r")
    )
    # One C-level pass finds whether any other byte needs an escape;
    # the regex scan, several times slower, runs only then.
    if data.translate(None, _PRINTABLE):
        data = _UNPRINTABLE_RUN.sub(_escape_run, data)
    return b"(" + data + b")"


def _serialize_dict(value: PDFDict) -> bytes:
    parts = [b"<<"]
    for key, item in value.items():
        name = key if isinstance(key, PDFName) else PDFName(str(key))
        parts.append(b"/" + name.raw.encode("latin-1") + b" " + serialize_value(item))
    parts.append(b">>")
    return b" ".join(parts)


def _serialize_stream(stream: PDFStream) -> bytes:
    info = PDFDict(stream.dictionary)
    info["Length"] = len(stream.raw_data)
    head = _serialize_dict(info)
    return head + b"\nstream\n" + stream.raw_data + b"\nendstream"


def write_pdf(
    store: ObjectStore,
    trailer: PDFDict,
    version: Tuple[int, int] = (1, 4),
    header_prefix: Optional[bytes] = None,
    header_version_text: Optional[str] = None,
) -> bytes:
    """Serialize a full document.

    ``header_prefix`` shifts the ``%PDF`` header away from byte 0 (an
    obfuscation) and ``header_version_text`` overrides the version
    digits (e.g. ``"9.9"`` — an invalid version, another obfuscation).
    """
    buf = io.BytesIO()
    if header_prefix:
        buf.write(header_prefix)
    version_text = header_version_text or f"{version[0]}.{version[1]}"
    buf.write(f"%PDF-{version_text}\n".encode("ascii"))
    buf.write(b"%\xe2\xe3\xcf\xd3\n")  # binary-marker comment

    offsets: dict[Tuple[int, int], int] = {}
    for entry in store:
        offsets[(entry.num, entry.gen)] = buf.tell()
        buf.write(f"{entry.num} {entry.gen} obj\n".encode("ascii"))
        buf.write(serialize_value(entry.value))
        buf.write(b"\nendobj\n")

    xref_offset = buf.tell()
    max_num = max((num for num, _gen in offsets), default=0)
    buf.write(b"xref\n")
    buf.write(f"0 {max_num + 1}\n".encode("ascii"))
    buf.write(b"0000000000 65535 f \n")
    for num in range(1, max_num + 1):
        gens = [g for (n, g) in offsets if n == num]
        if gens:
            gen = min(gens)
            buf.write(f"{offsets[(num, gen)]:010d} {gen:05d} n \n".encode("ascii"))
        else:
            buf.write(b"0000000000 65535 f \n")

    out_trailer = PDFDict(trailer)
    out_trailer["Size"] = max_num + 1
    out_trailer.pop("Prev", None)
    buf.write(b"trailer\n")
    buf.write(_serialize_dict(out_trailer))
    buf.write(f"\nstartxref\n{xref_offset}\n".encode("ascii"))
    buf.write(b"%%EOF\n")
    return buf.getvalue()


def write_incremental_update(
    original: bytes,
    store: ObjectStore,
    trailer: PDFDict,
    changed_refs: Iterable[PDFRef],
) -> bytes:
    """Append an incremental update carrying only ``changed_refs``.

    The original bytes stay untouched (the PDF idiom for modifying
    signed or large documents); a new body section, cross-reference
    table and trailer with ``/Prev`` are appended.  Readers resolve the
    newest definition of each object first, so the updated objects
    shadow the originals.
    """
    refs = sorted(set(changed_refs), key=lambda r: (r.num, r.gen))
    buf = io.BytesIO()
    buf.write(original)
    if not original.endswith(b"\n"):
        buf.write(b"\n")

    offsets: dict[PDFRef, int] = {}
    for ref in refs:
        entry = store.objects.get(ref)
        if entry is None:
            continue
        offsets[ref] = buf.tell()
        buf.write(f"{entry.num} {entry.gen} obj\n".encode("ascii"))
        buf.write(serialize_value(entry.value))
        buf.write(b"\nendobj\n")

    xref_offset = buf.tell()
    buf.write(b"xref\n")
    # One subsection per contiguous run of object numbers.
    run: list[PDFRef] = []
    runs: list[list[PDFRef]] = []
    for ref in refs:
        if ref not in offsets:
            continue
        if run and ref.num == run[-1].num + 1:
            run.append(ref)
        else:
            if run:
                runs.append(run)
            run = [ref]
    if run:
        runs.append(run)
    for subsection in runs:
        buf.write(f"{subsection[0].num} {len(subsection)}\n".encode("ascii"))
        for ref in subsection:
            buf.write(f"{offsets[ref]:010d} {ref.gen:05d} n \n".encode("ascii"))

    prev_offset = _find_startxref(original)
    out_trailer = PDFDict(trailer)
    out_trailer["Size"] = store.next_num()
    if prev_offset is not None:
        out_trailer["Prev"] = prev_offset
    buf.write(b"trailer\n")
    buf.write(_serialize_dict(out_trailer))
    buf.write(f"\nstartxref\n{xref_offset}\n".encode("ascii"))
    buf.write(b"%%EOF\n")
    return buf.getvalue()


def _find_startxref(data: bytes) -> Optional[int]:
    idx = data.rfind(b"startxref")
    if idx < 0:
        return None
    tail = data[idx + len(b"startxref") :].split()
    if not tail:
        return None
    try:
        return int(tail[0])
    except ValueError:
        return None
