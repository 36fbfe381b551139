"""Shared definition of the JS heap accounting snapshot.

The reader charges every string a script makes to the document's JS
heap and to the reader process (Fig. 7's in-JS memory, F8's heap-spray
evidence), and hands strings of 4096+ characters to the spray pool.
``tests/data/js_heap_golden.json`` pins, for every sample of
``build_dataset(test_scale())`` (benign and malicious), every
``obfuscated_corpus(6, 6)`` document and every ``table_x_js_documents()``
tier, what one scan leaves behind:

* ``js_heap``: ``handle.js_heap_bytes``;
* ``sprayed``: ``handle.sprayed_bytes``;
* ``pool``: ``len(handle.spray_pool)``;
* ``peak``: the reader process's ``memory_counters().peak_working_set_size``;
* ``steps``: the reader interpreter's ``steps``, the step budget's
  per-document count (translated loops must charge exactly what the
  dispatch loop charges).

Each document is scanned by a fresh pipeline, so its figures do not
depend on the documents before it.  A document whose scan opens no
reader records ``None``.

Regenerate (only after an *intentional* change to heap accounting)::

    PYTHONPATH=src python -m tests.reader.heap_golden

then review the diff of ``tests/data/js_heap_golden.json`` and commit
it together with the change that moved the figures.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import ProtectionPipeline
from repro.corpus import build_dataset, test_scale
from repro.corpus.obfuscated import obfuscated_corpus
from repro.corpus.sized import table_x_js_documents

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "js_heap_golden.json"

#: The pipeline seed every document is scanned under.
SEED = 1301

REGEN_COMMAND = "PYTHONPATH=src python -m tests.reader.heap_golden"


def corpora() -> Dict[str, List[Tuple[str, bytes]]]:
    """``corpus name -> [(document name, bytes)]`` for the snapshot."""
    dataset = build_dataset(test_scale())
    return {
        "benign": [(s.name, s.data) for s in dataset.benign],
        "malicious": [(s.name, s.data) for s in dataset.malicious],
        "obfuscated": obfuscated_corpus(6, 6),
        "table_x_js": table_x_js_documents(),
    }


def heap_figures(name: str, data: bytes) -> Optional[Dict[str, int]]:
    """What a fresh pipeline's scan of ``data`` charged, or ``None``."""
    report = ProtectionPipeline(seed=SEED).scan(data, name)
    if report.outcome is None:
        return None
    handle = report.outcome.handle
    process = handle.reader.current_process
    assert process is not None
    return {
        "js_heap": handle.js_heap_bytes,
        "sprayed": handle.sprayed_bytes,
        "pool": len(handle.spray_pool),
        "peak": process.memory_counters().peak_working_set_size,
        "steps": handle.interpreter.steps,
    }


def compute_figures() -> Dict[str, Dict[str, Optional[Dict[str, int]]]]:
    """``corpus -> document -> figures`` for every snapshot document."""
    return {
        corpus: {name: heap_figures(name, data) for name, data in docs}
        for corpus, docs in corpora().items()
    }


def load_figures() -> Dict[str, Dict[str, Optional[Dict[str, int]]]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main() -> None:
    figures = compute_figures()
    GOLDEN_PATH.write_text(json.dumps(figures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    count = sum(len(docs) for docs in figures.values())
    print(f"wrote the heap figures of {count} document(s) to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
