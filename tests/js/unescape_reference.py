"""Frozen one-callback-per-``%XX`` ``unescape`` decoder (differential
oracle).

This is the decoding step of :func:`repro.js.builtins._unescape` as it
was before ``%XX`` runs were decoded at once: ES5 B.2.2's ``%uXXXX``
(a lowercase ``u`` only) and ``%XX``, with a run of up to 256 ``%u``
escapes taken as one match and every ``%XX`` escape matched and
decoded on its own.

The production decoder must agree with it on every string.
``tests/js/test_builtins.py`` checks that by hypothesis property, with
``%XX`` and ``%u`` runs longer than one match may span.

Never use this from ``src/``: it is the slow path the rewrite removed.
"""

from __future__ import annotations

import re

_UNESCAPE_RE = re.compile(r"%u([0-9a-fA-F]{4}(?:%u[0-9a-fA-F]{4}){0,255})|%([0-9a-fA-F]{2})")


def _decode_escapes(match: "re.Match[str]") -> str:
    run = match[1]
    if run is not None:
        return "".join([chr(int(digits, 16)) for digits in run.split("%u")])
    return chr(int(match[2], 16))


def unescape(text: str) -> str:
    """``unescape(text)`` for a string argument."""
    return _UNESCAPE_RE.sub(_decode_escapes, text)
