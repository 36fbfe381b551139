"""The proof tier: verdicts from abstract-interpretation facts.

:func:`run_absint` drives :func:`repro.jsast.absint.interpret_script`
under the ambient :mod:`repro.limits` budget and turns the collected
facts into one of three verdicts:

``proven-benign``
    Sound claim: under the abstraction, no execution of the script (or
    of any code layer it stages) reaches a scored host API channel.
    Requires every layer to parse, zero channels of any kind, zero
    classic SUSPICIOUS+ rules on every layer, and zero side-effect
    APIs.  Soundness boundaries (host APIs modelled non-throwing and
    non-rebinding, the scored-API surface) are documented in
    ``docs/STATIC_ANALYSIS.md``.

``proven-malicious``
    Sound claim in the *other* direction: some fact combination proves
    the runtime detector would flag the document.  Three proof rules:

    * ``absint-heap-spray`` — a must-executed array fill whose element
      carries a proven sled prefix ≥ the spray threshold and whose
      loop trip-count bound puts total bytes over the detector's
      memory threshold (F8's 100 MB).
    * ``absint-staged-eval`` — a must-executed staged code layer
      (depth ≥ 1) invokes a known exploit API, corroborated by a
      proven sled elsewhere in the chain.
    * ``absint-export-launch`` — a must-executed
      ``exportDataObject({..., nLaunch: >=1})`` drop-and-launch.

``unknown``
    Everything else; ``reason`` says what blocked the proof.  Unknown
    always fails open to the runtime pipeline.

This module never raises: any exception out of the interpreter is
caught and reported as ``status: error`` / verdict ``unknown``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import limits as limits_mod
from repro.js.values import format_number
from repro.jsast.absint import (
    CHANNEL_EXPLOIT,
    DEFAULT_MAX_STEPS,
    AbsintResult,
    interpret_script,
)
from repro.jsast.analyzer import LayerScans
from repro.jsast.report import Finding, Severity
from repro.jsast.rules import SPRAY_LENGTH_THRESHOLD

#: Version stamp embedded in cache fingerprints: bump on any change to
#: the interpreter's precision or the proof rules below.
ABSINT_VERSION = "3"

#: F8's threshold (Table VII ``memory_threshold_bytes``); duplicated as
#: a literal to keep :mod:`repro.jsast` import-independent from
#: :mod:`repro.core`.
MEMORY_THRESHOLD_BYTES = 100 * 1024 * 1024


def _max_steps() -> int:
    budget = limits_mod.active()
    if budget is not None:
        return int(budget.limits.max_absint_steps)
    return DEFAULT_MAX_STEPS


def _spray_proofs(result: AbsintResult) -> List[Finding]:
    proofs: List[Finding] = []
    for fill in result.fills:
        if not fill.must:
            continue
        if fill.sled_lo < SPRAY_LENGTH_THRESHOLD:
            continue
        if fill.bytes_lo < MEMORY_THRESHOLD_BYTES:
            continue
        mb = fill.bytes_lo / (1024 * 1024)
        proofs.append(
            Finding(
                rule="absint-heap-spray",
                severity=Severity.PROVEN,
                message=(
                    f"proven heap spray: array {fill.array!r} "
                    f"(layer {fill.layer}) filled with ≥{fill.sled_lo} "
                    f"sled chars per element × ≥{fill.trip_lo} "
                    f"iterations ≥ {mb:.0f} MB"
                ),
                evidence=(
                    f"unit={fill.unit!r} elem≥{fill.elem_len_lo} "
                    f"sled≥{fill.sled_lo} trips≥{fill.trip_lo} "
                    f"bytes≥{fill.bytes_lo}"
                ),
            )
        )
    return proofs


def _staged_eval_proofs(result: AbsintResult) -> List[Finding]:
    """A must-executed staged layer calling an exploit API, with a
    proven sled anywhere in the chain as corroboration."""
    sled_lo = max(
        (s.lo for s in result.sleds if s.must and s.lo >= SPRAY_LENGTH_THRESHOLD),
        default=0,
    )
    if not sled_lo:
        return []
    must_depths = {
        layer.depth for layer in result.layers if layer.must and layer.depth >= 1
    }
    proofs: List[Finding] = []
    for channel in result.channels:
        if channel.kind != CHANNEL_EXPLOIT:
            continue
        if channel.layer not in must_depths:
            continue
        proofs.append(
            Finding(
                rule="absint-staged-eval",
                severity=Severity.PROVEN,
                message=(
                    f"proven staged exploit: layer {channel.layer} "
                    f"(peeled through {channel.layer} eval layer(s)) "
                    f"must call {channel.path} with a ≥{sled_lo}-char "
                    "sled staged"
                ),
                evidence=f"path={channel.path} depth={channel.layer} sled≥{sled_lo}",
            )
        )
    return proofs


def _export_proofs(result: AbsintResult) -> List[Finding]:
    proofs: List[Finding] = []
    for export in result.exports:
        if not export.must:
            continue
        if export.launch is None or not export.launch >= 1:
            continue
        name = export.name or "?"
        proofs.append(
            Finding(
                rule="absint-export-launch",
                severity=Severity.PROVEN,
                message=(
                    f"proven drop-and-launch: exportDataObject("
                    f"cName={name!r}, nLaunch={format_number(export.launch)}) "
                    "must execute"
                ),
                evidence=f"path={export.path} layer={export.layer}",
            )
        )
    return proofs


def _benign_blocker(result: AbsintResult) -> Optional[str]:
    """Why PROVEN-BENIGN cannot be claimed (``None`` = it can)."""
    if result.status == "budget-exhausted":
        return "absint-budget"
    if result.status != "ok":
        return "absint-error"
    for layer in result.layers:
        if layer.parse_error is not None:
            return f"parse-error@{layer.depth}"
    for layer in result.layers:
        if layer.blocking_rules:
            return f"suspicious-findings:{layer.blocking_rules[0]}"
    for layer in result.layers:
        if layer.side_effect_apis:
            return f"side-effect-apis:{layer.side_effect_apis[0]}"
    if result.channels:
        first = result.channels[0]
        return f"{first.kind}:{first.path}"
    return None


def evaluate(result: AbsintResult) -> Tuple[str, str, List[Finding]]:
    """``(verdict, reason, proof_findings)`` for one interpreted script.

    Proven-malicious takes precedence: the proofs are must-facts, valid
    even when the rest of the script is opaque.  A budget-exhausted or
    errored run can still be proven malicious by facts collected before
    the cutoff (must-facts are only recorded once stable), but never
    proven benign.
    """
    proofs = (
        _spray_proofs(result)
        + _staged_eval_proofs(result)
        + _export_proofs(result)
    )
    if proofs:
        return "proven-malicious", proofs[0].rule, proofs
    blocker = _benign_blocker(result)
    if blocker is None:
        return "proven-benign", "no-reachable-channel", []
    return "unknown", blocker, []


def run_absint(
    code: str, *, label: str = "script", scans: Optional[LayerScans] = None
) -> Dict[str, Any]:
    """Interpret ``code`` and evaluate the proof rules.  Never raises.

    ``scans`` goes to :func:`interpret_script`.  Returns the ``absint``
    section stored on :class:`repro.jsast.report.JSStaticReport`:
    verdict + reason + proof findings + the full fact dump.
    """
    result: Optional[AbsintResult] = None
    try:
        result = interpret_script(
            code, max_steps=_max_steps(), label=label, scans=scans
        )
        verdict, reason, proofs = evaluate(result)
    except Exception as exc:  # noqa: BLE001 - fail open, always
        if result is None:  # the interpreter itself failed: no facts
            result = AbsintResult(
                status="error", error=f"{type(exc).__name__}: {exc}"
            )
        verdict, reason = "unknown", f"absint-error:{type(exc).__name__}"
        proofs = []
    section = result.to_dict()
    section["version"] = ABSINT_VERSION
    section["verdict"] = verdict
    section["reason"] = reason
    section["max_depth"] = result.max_depth
    section["proofs"] = [finding.to_dict() for finding in proofs]
    return section


def proof_findings(section: Dict[str, Any]) -> List[Finding]:
    """Rehydrate the PROVEN findings from a stored absint section."""
    return [Finding.from_dict(f) for f in section.get("proofs", [])]
