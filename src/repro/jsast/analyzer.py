"""Script- and document-level static analysis drivers.

:func:`scan_layer` parses, constant-folds and lints a JavaScript layer
once per :func:`analyze_script` call, for the lint report and the proof
tier alike.  :func:`analyze_script` returns a
:class:`~repro.jsast.report.JSStaticReport`; constant ``eval``
arguments get one more layer of the same treatment, with findings
re-labelled ``eval:<rule>`` so provenance survives.

:func:`analyze_document` runs every JavaScript chain of a parsed PDF
through :func:`analyze_script` and adds *document-level guards*:
active content the static pass cannot vouch for (embedded files,
RichMedia render annotations) makes the document triage-ineligible
regardless of how clean its scripts look.

Everything here is fail-open by construction: an exception anywhere in
parsing or analysis becomes an ``unparseable-js`` / ``analysis-error``
finding (never escapes to the caller), and such reports are never
triage-eligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro import obs as obs_mod
from repro.js import nodes as ast
from repro.js.errors import JSSyntaxError
from repro.js.parser import parse
from repro.jsast.report import Finding, JSStaticReport, Severity
from repro.jsast.rules import (
    RULES,
    RuleContext,
    build_context,
    ruleset_version,
    side_effect_apis,
)

#: How many layers of constant ``eval`` arguments to follow.
MAX_NESTED_DEPTH = 2

#: Document guard names (active content forcing full emulation).
GUARD_EMBEDDED_FILE = "embedded-file"
GUARD_RICH_MEDIA = "rich-media"
GUARD_UNDECODABLE_JS = "undecodable-js"


@dataclass
class LayerScan:
    """One JS layer parsed, folded and run through every rule.  The
    lint report reads its findings, the abstract interpreter the rest."""

    program: Optional[ast.Program] = None
    #: ``None`` when the layer does not parse or folding crashed.
    ctx: Optional[RuleContext] = None
    findings: List[Finding] = field(default_factory=list)
    side_effect_apis: List[str] = field(default_factory=list)
    #: The report's text for a parse or folding failure.
    parse_error: Optional[str] = None
    #: Absint's text for a parse failure: ``Type: message``.
    parse_exception: Optional[str] = None
    #: SUSPICIOUS+ rules but ``eval-computed-string`` (absint peels
    #: constant layers itself and channels opaque ones), each once and
    #: in rule order; a crashed fold or rule blocks as ``analysis-error``.
    blocking_rules: List[str] = field(default_factory=list)


#: The layer scans of one :func:`analyze_script` call, keyed by source;
#: dropped when the call returns, as they hold every layer's AST.
LayerScans = Dict[str, LayerScan]


def _analysis_error(message: str) -> Finding:
    return Finding(
        rule="analysis-error",
        severity=Severity.SUSPICIOUS,
        message=message,
        score=1.0,
    )


def scan_layer(code: str, scans: LayerScans) -> LayerScan:
    """Parse, fold and lint ``code`` once per ``scans``; never raises."""
    if code in scans:
        return scans[code]
    scan = scans[code] = LayerScan()
    try:
        program = parse(code)
    except Exception as exc:  # noqa: BLE001 - fail-open, never raise
        scan.parse_exception = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, JSSyntaxError):
            scan.parse_error = str(exc)
            message, evidence = f"script does not parse: {exc}", code
        else:
            scan.parse_error = scan.parse_exception
            message, evidence = f"parser crashed: {scan.parse_exception}", ""
        scan.findings.append(
            Finding(
                rule="unparseable-js",
                severity=Severity.SUSPICIOUS,
                message=message,
                evidence=evidence,
                score=2.0,
            )
        )
        return scan
    scan.program = program

    try:
        ctx = scan.ctx = build_context(code, program)
    except Exception as exc:  # noqa: BLE001 - fail-open
        scan.parse_error = f"analysis error: {type(exc).__name__}: {exc}"
        scan.findings.append(
            _analysis_error(f"constant folding crashed: {type(exc).__name__}")
        )
        scan.blocking_rules.append("analysis-error")
        return scan

    for rule_id, rule_fn in RULES.items():
        first = len(scan.findings)
        try:
            scan.findings.extend(rule_fn(ctx))
            fired = [
                finding.rule
                for finding in scan.findings[first:]
                if finding.severity >= Severity.SUSPICIOUS
            ]
        except Exception as exc:  # noqa: BLE001 - one broken rule
            # must not silence the rest, and must not grant triage.
            scan.findings.append(
                _analysis_error(f"rule {rule_id!r} crashed: {type(exc).__name__}")
            )
            fired = ["analysis-error"]
        for rule in fired:
            if rule != "eval-computed-string" and rule not in scan.blocking_rules:
                scan.blocking_rules.append(rule)

    try:
        scan.side_effect_apis = side_effect_apis(ctx)
    except Exception:  # noqa: BLE001 - fail-open: assume side effects
        scan.side_effect_apis = ["<analysis-error>"]
    return scan


def analyze_script(
    code: str,
    label: str = "script",
    obs: Optional[obs_mod.Observability] = None,
    _depth: int = 0,
    _scans: Optional[LayerScans] = None,
) -> JSStaticReport:
    """Statically analyse one script; never raises."""
    obs = obs if obs is not None else obs_mod.get_default()
    scans: LayerScans = {} if _scans is None else _scans
    report = JSStaticReport(script=label, ruleset_version=ruleset_version())

    with obs.tracer.span("jsast.analyze", script=label, depth=_depth) as span:
        scan = scan_layer(code, scans)
        report.findings.extend(scan.findings)
        report.side_effect_apis = list(scan.side_effect_apis)
        report.parse_error = scan.parse_error
        if scan.ctx is not None:
            _follow_evals(scan.ctx, report, obs, _depth, scans)

        if _depth == 0 and report.parse_error is None:
            _run_absint(code, report, obs, scans)

        report.obfuscation_score = min(
            10.0, sum(f.score for f in report.findings)
        )
        span.set_tag("findings", len(report.findings))
        span.set_tag("suspicious", report.suspicious)
        span.set_tag("eligible", report.triage_eligible)
        if obs.enabled:
            for finding in report.findings:
                obs.metrics.inc("jsast_findings", rule=finding.rule)
            if report.parse_error is not None:
                obs.metrics.inc("jsast_parse_errors")
    return report


def _run_absint(
    code: str, report: JSStaticReport, obs: obs_mod.Observability, scans: LayerScans
) -> None:
    """Run the abstract-interpretation proof tier (depth 0 only — it
    peels nested layers itself).  Never raises."""
    from repro.jsast.rules_absint import proof_findings, run_absint

    with obs.tracer.span("jsast.absint", script=report.script) as span:
        section = run_absint(code, label=report.script, scans=scans)
        report.absint = section
        report.findings.extend(proof_findings(section))
        span.set_tag("verdict", section.get("verdict", "unknown"))
        span.set_tag("steps", section.get("steps", 0))
        span.set_tag("max_depth", section.get("max_depth", 0))
        if obs.enabled:
            obs.metrics.inc(
                "absint_verdicts", verdict=section.get("verdict", "unknown")
            )


def _follow_evals(
    ctx: RuleContext,
    report: JSStaticReport,
    obs: obs_mod.Observability,
    depth: int,
    scans: LayerScans,
) -> None:
    """Analyse the constant ``eval`` layers the rules queued."""
    if depth < MAX_NESTED_DEPTH:
        for nested_label, nested_code in ctx.nested:
            nested = analyze_script(
                nested_code,
                label=f"{report.script}::{nested_label}",
                obs=obs,
                _depth=depth + 1,
                _scans=scans,
            )
            report.findings.extend(
                replace(f, rule=f"eval:{f.rule}") for f in nested.findings
            )
            report.side_effect_apis = sorted(
                set(report.side_effect_apis) | set(nested.side_effect_apis)
            )
            if nested.parse_error is not None and report.parse_error is None:
                report.parse_error = f"eval layer: {nested.parse_error}"
    elif ctx.nested:
        report.findings.append(
            Finding(
                rule="eval-computed-string",
                severity=Severity.SUSPICIOUS,
                message=f"eval nesting deeper than {MAX_NESTED_DEPTH} layers",
                score=2.0,
            )
        )


@dataclass
class DocumentJSAnalysis:
    """Static-analysis outcome for a whole document."""

    reports: List[JSStaticReport] = field(default_factory=list)
    #: Document-level reasons full emulation is required regardless of
    #: script findings (embedded files, render media, ...).
    guards: List[str] = field(default_factory=list)

    @property
    def suspicious(self) -> bool:
        return any(report.suspicious for report in self.reports)

    @property
    def triage_eligible(self) -> bool:
        """True iff skipping Phase-II emulation provably cannot change
        the verdict: no guards, and every script both parsed cleanly
        and neither looks suspicious nor touches side-effect APIs —
        or was proven channel-free by abstract interpretation."""
        if self.guards:
            return False
        return all(report.triage_eligible for report in self.reports)

    @property
    def proven_malicious(self) -> bool:
        """Abstract interpretation proved at least one script reaches
        detector-flagged behaviour (valid regardless of guards: active
        content can only *add* malice)."""
        return any(report.proven_malicious for report in self.reports)

    def proof_findings(self) -> List[Finding]:
        """Every PROVEN finding across all scripts."""
        return [
            finding
            for report in self.reports
            for finding in report.findings
            if finding.severity >= Severity.PROVEN
        ]

    @property
    def triage_fail_open_reason(self) -> str:
        """Why the document cannot be triaged (``""`` when it can)."""
        if self.proven_malicious or self.triage_eligible:
            return ""
        if self.guards:
            return f"guard:{self.guards[0]}"
        for report in self.reports:
            if report.triage_eligible:
                continue
            if report.parse_error is not None:
                return "parse-error"
            if report.absint:
                reason = str(report.absint.get("reason", ""))
                if reason.startswith(("absint-budget", "absint-error")):
                    return reason
            if report.suspicious:
                return "suspicious-findings"
            if report.side_effect_apis:
                return "side-effect-apis"
            return "not-proven"
        return "not-proven"

    @property
    def finding_count(self) -> int:
        return sum(len(report.findings) for report in self.reports)

    @property
    def obfuscation_score(self) -> float:
        return max(
            (report.obfuscation_score for report in self.reports), default=0.0
        )

    def rules_fired(self) -> List[str]:
        fired = set()
        for report in self.reports:
            fired.update(report.rules_fired())
        return sorted(fired)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reports": [report.to_dict() for report in self.reports],
            "guards": list(self.guards),
            "suspicious": self.suspicious,
            "triage_eligible": self.triage_eligible,
            "proven_malicious": self.proven_malicious,
            "obfuscation_score": self.obfuscation_score,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DocumentJSAnalysis":
        return cls(
            reports=[
                JSStaticReport.from_dict(r) for r in payload.get("reports", [])
            ],
            guards=list(payload.get("guards", [])),
        )


def analyze_document(
    document,
    obs: Optional[obs_mod.Observability] = None,
) -> DocumentJSAnalysis:
    """Analyse every JavaScript chain of a parsed :class:`PDFDocument`.

    Never raises; a script that cannot even be extracted becomes an
    ``undecodable-js`` guard.
    """
    from repro.pdf.objects import PDFStream

    obs = obs if obs is not None else obs_mod.get_default()
    analysis = DocumentJSAnalysis()

    try:
        for entry in document.store:
            value = entry.value
            if isinstance(value, PDFStream):
                if str(value.dictionary.get("Type", "")) == "EmbeddedFile":
                    if GUARD_EMBEDDED_FILE not in analysis.guards:
                        analysis.guards.append(GUARD_EMBEDDED_FILE)
                if "SimCVE" in value.dictionary:
                    if GUARD_RICH_MEDIA not in analysis.guards:
                        analysis.guards.append(GUARD_RICH_MEDIA)
        if "RichMedia" in document.catalog:
            if GUARD_RICH_MEDIA not in analysis.guards:
                analysis.guards.append(GUARD_RICH_MEDIA)
    except Exception:  # noqa: BLE001 - fail-open
        analysis.guards.append(GUARD_UNDECODABLE_JS)

    try:
        actions = list(document.iter_javascript_actions())
    except Exception:  # noqa: BLE001 - fail-open
        analysis.guards.append(GUARD_UNDECODABLE_JS)
        return analysis

    for index, action in enumerate(actions):
        label = action.name or f"{action.trigger}#{index}"
        try:
            code = document.get_javascript_code(action)
        except Exception:  # noqa: BLE001 - fail-open
            analysis.guards.append(GUARD_UNDECODABLE_JS)
            continue
        if not code.strip():
            continue
        analysis.reports.append(analyze_script(code, label=label, obs=obs))
    return analysis
