"""Shared definition of the static-analysis golden snapshot.

The snapshot pins a compact projection of every document's
``static_js`` section (``DocumentJSAnalysis.to_dict()``) for the golden
regression corpus plus ``obfuscated_corpus(6, 6)``: per script, the
lint findings, obfuscation score, parse error, side-effect APIs, triage
eligibility and the absint verdict with its layers and channels.  It is
stored in ``tests/data/static_golden.jsonl``, one JSON line per
document.  ``absint.version`` is left out on purpose: a version bump
alone must not move the snapshot.

Regenerate (only after an *intentional* change to static reports)::

    PYTHONPATH=src python -m tests.jsast.static_golden

then review the diff of ``tests/data/static_golden.jsonl`` and commit
it together with the change that moved the reports.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.corpus import build_dataset, dataset_items
from repro.corpus.obfuscated import obfuscated_corpus
from repro.jsast.absint import interpret_script
from repro.jsast.analyzer import analyze_document
from repro.pdf import encryption
from repro.pdf.document import PDFDocument
from tests.batch.golden import GOLDEN_CONFIG

STATIC_GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "static_golden.jsonl"
)

REGEN_COMMAND = "PYTHONPATH=src python -m tests.jsast.static_golden"


def static_golden_items() -> List[Tuple[str, bytes]]:
    """The golden corpus plus the 3-layer obfuscated tier."""
    return dataset_items(build_dataset(GOLDEN_CONFIG)) + obfuscated_corpus(6, 6)


@functools.lru_cache(maxsize=None)
def static_golden_layers() -> Tuple[str, ...]:
    """Every JS layer the static analysis parses on the snapshot corpus:
    each document's scripts and the layers absint peels from them, each
    once, in first-seen order."""
    layers: Dict[str, None] = {}
    for _name, data in static_golden_items():
        document = PDFDocument.from_bytes(data)
        if "Encrypt" in document.trailer:
            encryption.remove_owner_password(document)
        for action in document.iter_javascript_actions():
            scans: Dict[str, Any] = {}
            interpret_script(document.get_javascript_code(action), scans=scans)
            layers.update(dict.fromkeys(scans))
    return tuple(layers)


def _project_script(report: Dict[str, Any]) -> Dict[str, Any]:
    absint = report.get("absint") or {}
    return {
        "script": report["script"],
        "findings": [f"{f['rule']}:{f['severity']}" for f in report["findings"]],
        "obfuscation_score": report["obfuscation_score"],
        "parse_error": report["parse_error"],
        "side_effect_apis": report["side_effect_apis"],
        "triage_eligible": report["triage_eligible"],
        "absint": {
            "verdict": absint.get("verdict"),
            "reason": absint.get("reason"),
            "status": absint.get("status"),
            "steps": absint.get("steps"),
            "max_depth": absint.get("max_depth"),
            "layers": [
                [layer["label"], layer["blocking_rules"]]
                for layer in absint.get("layers", [])
            ],
            "channels": [
                f"{c['kind']}:{c['path']}@{c['layer']}"
                for c in absint.get("channels", [])
            ],
        },
    }


def project_document(name: str, data: bytes) -> Dict[str, Any]:
    """Parse ``data`` as the instrumenter's analyse step does and
    project its static-analysis section."""
    document = PDFDocument.from_bytes(data)
    if "Encrypt" in document.trailer:
        encryption.remove_owner_password(document)
    static_js = analyze_document(document).to_dict()
    return {
        "name": name,
        "guards": static_js["guards"],
        "scripts": [_project_script(r) for r in static_js["reports"]],
    }


def snapshot() -> List[Dict[str, Any]]:
    return [project_document(name, data) for name, data in static_golden_items()]


def load_static_golden() -> Dict[str, Dict[str, Any]]:
    records = (
        json.loads(line)
        for line in STATIC_GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    )
    return {record["name"]: record for record in records}


def main() -> None:
    records = snapshot()
    STATIC_GOLDEN_PATH.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )
    scripts = sum(len(r["scripts"]) for r in records)
    print(
        f"wrote {len(records)} document(s), {scripts} script(s) "
        f"to {STATIC_GOLDEN_PATH}"
    )


if __name__ == "__main__":
    main()
