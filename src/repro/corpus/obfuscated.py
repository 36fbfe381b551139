"""Multi-layer obfuscated corpus samples (§II syntax obfuscation).

In-the-wild droppers rarely ship their spray loop in the clear: the
payload script is percent-escaped and re-entered through
``eval(unescape("..."))``, often several layers deep, precisely so
one-shot static extractors give up.  This module generates such
samples — both malicious (spray + CVE under ``layers`` wrappers) and
benign (an innocuous form script under the same wrappers) — to
exercise the abstract-interpretation proof tier, which peels constant
staging layers and must reach the same verdict the runtime does.

Used by the absint test-suite, among it the ``obfuscated`` tier of
``tests/jsast/test_triage_tiers.py``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.corpus import js_snippets as js
from repro.pdf.builder import DocumentBuilder
from repro.reader.exploits import CVE
from repro.reader.payload import Payload

#: CVEs reachable from JavaScript against the default reader version.
_JS_CVES = (CVE.COLLAB_GET_ICON, CVE.MEDIA_NEW_PLAYER, CVE.PRINT_SEPS)


def pct_escape(code: str) -> str:
    """Percent-escape *every* character (``%XX`` / ``%uXXXX``)."""
    return "".join(
        f"%{ord(ch):02x}" if ord(ch) < 256 else f"%u{ord(ch):04x}"
        for ch in code
    )


def wrap_eval_layers(code: str, layers: int) -> str:
    """``layers`` nested ``eval(unescape("%.."))`` stagings of ``code``."""
    wrapped = code
    for _ in range(max(0, layers)):
        wrapped = f'eval(unescape("{pct_escape(wrapped)}"));'
    return wrapped


def obfuscated_spray_script(
    target_mb: int = 120,
    cve: str = CVE.COLLAB_GET_ICON,
    layers: int = 3,
    rng: Optional[random.Random] = None,
    payload: Optional[Payload] = None,
) -> str:
    """A heap spray + exploit call hidden under ``layers`` stagings."""
    rng = rng if rng is not None else random.Random(0)
    payload = payload if payload is not None else Payload.dropper()
    inner = js.spray_script(
        target_mb,
        payload,
        rng=rng,
        exploit_call=js.exploit_call_for(cve, rng),
    )
    return wrap_eval_layers(inner, layers)


def obfuscated_benign_script(
    layers: int = 3,
    rng: Optional[random.Random] = None,
) -> str:
    """An innocuous form script hidden under the same stagings."""
    rng = rng if rng is not None else random.Random(0)
    return wrap_eval_layers(js.benign_form_script(rng), layers)


def obfuscated_document(script: str, title: str = "report") -> bytes:
    """A one-page PDF firing ``script`` from its OpenAction."""
    builder = DocumentBuilder()
    builder.add_page()
    builder.set_info(Title=title)
    builder.add_javascript(script, trigger="OpenAction")
    return builder.to_bytes()


def obfuscated_corpus(
    n_benign: int,
    n_malicious: int,
    seed: int = 1404,
    layers: int = 3,
) -> List[Tuple[str, bytes]]:
    """``(name, pdf_bytes)`` pairs for the bench ``obfuscated`` tier.

    Malicious samples rotate CVE and spray size deterministically from
    ``seed``; every script sits under ``layers`` staging wrappers.
    """
    rng = random.Random(seed)
    items: List[Tuple[str, bytes]] = []
    for index in range(n_benign):
        script = obfuscated_benign_script(layers, rng)
        items.append(
            (
                f"obf_benign_{index:05d}.pdf",
                obfuscated_document(script, title=f"form {index}"),
            )
        )
    for index in range(n_malicious):
        cve = _JS_CVES[index % len(_JS_CVES)]
        target_mb = 110 + 40 * (index % 4)
        script = obfuscated_spray_script(
            target_mb=target_mb, cve=cve, layers=layers, rng=rng
        )
        items.append(
            (
                f"obf_malicious_{index:05d}.pdf",
                obfuscated_document(script, title=f"invoice {index}"),
            )
        )
    return items
