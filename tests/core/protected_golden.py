"""Shared definition of the protected-bytes snapshot.

Phase I's output is pinned byte for byte: the SHA-256 of what
``ProtectionPipeline.protect`` writes for every document of the golden
corpus, ``obfuscated_corpus(6, 6)`` and the six Table X JS tiers, in
``tests/data/protected_digests.json``.  The wrapper text, its cipher
and the PDF writer all feed those bytes, so a change to any of them
that alters a protected document fails the test.  Each document is
protected by a fresh pipeline, so one document's digest does not
depend on the documents before it.

Regenerate (only after an *intentional* change to Phase I output)::

    PYTHONPATH=src python -m tests.core.protected_golden

then review the diff of ``tests/data/protected_digests.json`` and
commit it together with the change that moved the bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.pipeline import ProtectionPipeline
from repro.corpus import build_dataset, dataset_items
from repro.corpus.obfuscated import obfuscated_corpus
from repro.corpus.sized import table_x_js_documents
from tests.batch.golden import GOLDEN_CONFIG

DIGESTS_PATH = Path(__file__).resolve().parent.parent / "data" / "protected_digests.json"

#: The pipeline seed every document is protected under.
SEED = 1301

REGEN_COMMAND = "PYTHONPATH=src python -m tests.core.protected_golden"


def corpora() -> Dict[str, List[Tuple[str, bytes]]]:
    """``corpus name -> [(document name, bytes)]`` for the snapshot."""
    return {
        "golden": dataset_items(build_dataset(GOLDEN_CONFIG)),
        "obfuscated": obfuscated_corpus(6, 6),
        "table_x_js": table_x_js_documents(),
    }


def protected_digest(name: str, data: bytes) -> str:
    """SHA-256 of ``data`` as a fresh pipeline protects it."""
    protected = ProtectionPipeline(seed=SEED).protect(data, name)
    return hashlib.sha256(protected.data).hexdigest()


def compute_digests() -> Dict[str, Dict[str, str]]:
    """``corpus -> document -> digest`` for every snapshot document."""
    return {
        corpus: {name: protected_digest(name, data) for name, data in docs}
        for corpus, docs in corpora().items()
    }


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def main() -> None:
    digests = compute_digests()
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    count = sum(len(docs) for docs in digests.values())
    print(f"wrote {count} protected-document digest(s) to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
