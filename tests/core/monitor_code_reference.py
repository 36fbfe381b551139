"""Frozen per-character wrapper text builders (differential oracle).

These are :func:`repro.core.monitor_code.js_string_literal`,
:func:`~repro.core.monitor_code.encrypt_script` and
:func:`~repro.core.monitor_code.decrypt_script` as they were before
each became one ``str.translate``: a Python-level step per character.

The production functions must agree with them: the cipher on every
text, and the literal on every text read as UTF-16 code units (the old
literal wrote a five-hex-digit ``\\u`` escape for a character above
U+FFFF, which no JS lexer reads back; the production literal writes
its surrogate pair).  ``tests/core/test_monitor_code_oracle.py`` checks
that by hypothesis property and over every corpus script (``-m diff``).

Never use this from ``src/``: it is the slow path the rewrite removed.
"""

from __future__ import annotations

from typing import List


def js_string_literal(text: str) -> str:
    out: List[str] = ['"']
    for ch in text:
        code = ord(ch)
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif 0x20 <= code <= 0x7E:
            out.append(ch)
        else:
            out.append("\\u%04x" % code)
    out.append('"')
    return "".join(out)


def encrypt(code: str, scheme: str, key: int) -> str:
    """The ciphertext ``encrypt_script`` produced."""
    if scheme == "shift":
        return "".join(chr((ord(c) + key) % 65536) for c in code)
    if scheme == "xor":
        return "".join(chr(ord(c) ^ key) for c in code)
    if scheme == "reverse-shift":
        return "".join(chr((ord(c) + key) % 65536) for c in reversed(code))
    raise ValueError(f"unknown scheme {scheme!r}")


def decrypt(data: str, scheme: str, key: int) -> str:
    """The plaintext ``decrypt_script`` produced."""
    if scheme == "shift":
        return "".join(chr((ord(c) - key) % 65536) for c in data)
    if scheme == "xor":
        return "".join(chr(ord(c) ^ key) for c in data)
    if scheme == "reverse-shift":
        return "".join(chr((ord(c) - key) % 65536) for c in reversed(data))
    raise ValueError(f"unknown scheme {scheme!r}")
