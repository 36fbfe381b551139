"""Frozen per-byte PDF literal-string serialiser (differential oracle).

This is ``repro.pdf.writer._serialize_string`` as it was before it
became ``bytes.replace`` calls plus one regex substitution: a
Python-level step per byte.  The production serialiser must write the
same bytes for every string; ``tests/pdf/test_writer.py`` checks that
by hypothesis property and over every string of every corpus document
(``-m diff``).

Never use this from ``src/``: it is the slow path the rewrite removed.
"""

from __future__ import annotations

from repro.pdf.objects import PDFString


def serialize_string(value: PDFString) -> bytes:
    if value.hex_form:
        return b"<" + bytes(value).hex().upper().encode("ascii") + b">"
    out = bytearray(b"(")
    for byte in bytes(value):
        if byte in b"()\\":
            out.append(ord("\\"))
            out.append(byte)
        elif byte == 0x0A:
            out.extend(b"\\n")
        elif byte == 0x0D:
            out.extend(b"\\r")
        elif byte < 0x20 or byte > 0x7E:
            out.extend(b"\\%03o" % byte)
        else:
            out.append(byte)
    out.append(ord(")"))
    return bytes(out)
