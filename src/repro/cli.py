"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scan FILE``
    Instrument FILE, open it in a fresh monitored session and print the
    verdict, fired features, alerts and confinement actions.
``instrument FILE -o OUT [--spec SPEC.json]``
    Run the front-end only; write the instrumented document (and
    optionally the de-instrumentation spec).
``deinstrument FILE --spec SPEC.json -o OUT``
    Restore the original document from an instrumented one.
``features FILE``
    Print the five static features and the JavaScript chains.
``lint FILE [--json]``
    Static JS analysis only (``repro.jsast``): run the lint-rule
    registry over FILE's JavaScript (FILE may be a PDF or a bare ``.js``
    source file) and print the findings.  Exit code 0 = clean, 1 =
    findings at/above the triage severity, 2 = error.
``corpus OUTDIR [--benign N] [--benign-js N] [--malicious N] [--seed S]``
    Generate a labelled synthetic corpus on disk.
``batch DIR [--jobs N] [--timeout S] [--cache FILE] [--json OUT]``
    Scan every PDF under DIR in parallel (``repro.batch``): content-hash
    verdict caching, per-document timeouts/retries, aggregated report.
``serve [--host H] [--port P] [--jobs N] [--queue-depth N] [--deadline S]``
    Long-running scan service daemon (``repro.serve``): ``POST /scan``,
    ``POST /batch``, ``GET /healthz``, ``GET /metrics``,
    ``GET /jobs/<id>``; bounded-queue admission control with 429/503
    shedding, graceful drain on SIGTERM.  See ``docs/SERVICE.md``.
``report TRACE.jsonl``
    Aggregate a trace produced by ``scan --trace`` into per-span
    (count, total, self time) and event-count tables.
``profile FILE [--json OUT]``
    Scan FILE once and print where its time went: the verdict line and
    the per-span table of its ``pipeline.scan`` tree, self times
    summing to the scan's duration.

``scan`` also takes ``--trace FILE.jsonl`` (write a span/event/metric
trace of both phases) and ``--metrics`` (print a metrics summary to
stderr) — see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.chains import analyze_chains
from repro.core.deinstrument import DeinstrumentationSpec, deinstrument
from repro.core.pipeline import ProtectionPipeline
from repro.core.static_features import extract_static_features
from repro.pdf.document import PDFDocument


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-aware detection of malicious JavaScript in PDF "
        "(DSN 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="instrument + open + verdict")
    scan.add_argument("file", type=Path)
    scan.add_argument("--reader-version", default="9.0", choices=("8.0", "9.0"))
    scan.add_argument("--json", action="store_true", help="machine-readable output")
    scan.add_argument(
        "--trace",
        type=Path,
        metavar="FILE.jsonl",
        help="write a JSONL span/event/metric trace of both phases",
    )
    scan.add_argument(
        "--metrics",
        action="store_true",
        help="print an aggregated metrics summary to stderr",
    )
    scan.add_argument(
        "--triage",
        action="store_true",
        help="skip runtime emulation when static JS analysis is provably "
        "clean (fail-open; verdicts are unchanged)",
    )
    scan.add_argument(
        "--limits",
        metavar="K=V,...",
        help="resource-budget overrides, e.g. "
        "'stream-bytes=8mb,deadline=5' ('off' disables a budget; "
        "see docs/HARDENING.md)",
    )

    lint = sub.add_parser("lint", help="static JS analysis only")
    lint.add_argument("file", type=Path, help="a PDF or a bare .js source file")
    lint.add_argument("--json", action="store_true", help="machine-readable output")

    instrument = sub.add_parser("instrument", help="front-end only")
    instrument.add_argument("file", type=Path)
    instrument.add_argument("-o", "--output", type=Path, required=True)
    instrument.add_argument("--spec", type=Path, help="write de-instrumentation spec")

    deinst = sub.add_parser("deinstrument", help="restore original document")
    deinst.add_argument("file", type=Path)
    deinst.add_argument("--spec", type=Path, required=True)
    deinst.add_argument("-o", "--output", type=Path, required=True)

    features = sub.add_parser("features", help="static features + JS chains")
    features.add_argument("file", type=Path)

    corpus = sub.add_parser("corpus", help="generate a synthetic corpus")
    corpus.add_argument("outdir", type=Path)
    corpus.add_argument("--benign", type=int, default=50)
    corpus.add_argument("--benign-js", type=int, default=10)
    corpus.add_argument("--malicious", type=int, default=30)
    corpus.add_argument("--seed", type=int, default=2014)

    batch = sub.add_parser("batch", help="parallel scan of a corpus directory")
    batch.add_argument("dir", type=Path, help="directory of PDFs (or one file)")
    batch.add_argument("--jobs", type=int, default=4, help="worker count")
    batch.add_argument(
        "--backend",
        default="process",
        choices=("thread", "process"),
        help="worker pool kind (process = CPU parallelism; default)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-document seconds per attempt (default: no limit)",
    )
    batch.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts after a timeout/crash (default 1)",
    )
    batch.add_argument(
        "--cache",
        type=Path,
        metavar="FILE",
        help="persistent JSON verdict cache (created if missing)",
    )
    batch.add_argument(
        "--no-cache", action="store_true",
        help="disable verdict caching and deduplication",
    )
    batch.add_argument(
        "--json",
        type=Path,
        metavar="OUT",
        help="write the full BatchReport as JSON to OUT ('-' for stdout)",
    )
    batch.add_argument("--reader-version", default="9.0", choices=("8.0", "9.0"))
    batch.add_argument(
        "--trace", type=Path, metavar="FILE.jsonl",
        help="write a JSONL span/metric trace of the batch run",
    )
    batch.add_argument(
        "--metrics", action="store_true",
        help="print an aggregated metrics summary to stderr",
    )
    batch.add_argument(
        "--triage",
        action="store_true",
        help="benign-triage fast path: skip runtime emulation for "
        "documents whose static JS analysis is provably clean",
    )
    batch.add_argument(
        "--limits",
        metavar="K=V,...",
        help="per-document resource-budget overrides, e.g. "
        "'stream-bytes=8mb,deadline=5' (see docs/HARDENING.md)",
    )

    serve = sub.add_parser("serve", help="long-running scan service daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8291,
        help="listen port (0 = ephemeral; default 8291)",
    )
    serve.add_argument("--jobs", type=int, default=4, help="scan worker count")
    serve.add_argument(
        "--backend", default="thread", choices=("thread", "process"),
        help="worker pool kind (default thread: workers share the "
        "verdict cache cheaply)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=32, metavar="N",
        help="admitted requests allowed to wait for a worker (beyond "
        "this, requests are shed with 429 + Retry-After)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help="concurrent scans (default: --jobs)",
    )
    serve.add_argument(
        "--deadline", type=float, default=30.0, metavar="S",
        help="per-request wall-clock budget, queue wait included "
        "(default 30; 0 = unlimited)",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="S",
        help="Retry-After hint on shed responses (default 1)",
    )
    serve.add_argument(
        "--max-pending-async", type=int, default=None, metavar="N",
        help="async (mode=async) jobs allowed to be queued/running at "
        "once; the excess is shed with 429 at submission time "
        "(default: queue depth + in-flight slots)",
    )
    serve.add_argument(
        "--cache", type=Path, metavar="FILE",
        help="persistent JSON verdict cache (created if missing)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable verdict caching and deduplication",
    )
    serve.add_argument("--reader-version", default="9.0", choices=("8.0", "9.0"))
    serve.add_argument(
        "--triage", action="store_true",
        help="benign-triage fast path for provably clean documents",
    )
    serve.add_argument(
        "--limits", metavar="K=V,...",
        help="default per-request resource budgets (clients may "
        "override per request via ?limits=...)",
    )
    serve.add_argument(
        "--trace", type=Path, metavar="FILE.jsonl",
        help="write a JSONL span/metric trace of all requests",
    )
    serve.add_argument(
        "--metrics", action="store_true",
        help="print an aggregated metrics summary to stderr on exit",
    )
    serve.add_argument(
        "--slow-threshold", type=float, default=None, metavar="S",
        help="retain full detail for scans slower than S seconds in "
        "GET /debug/slow (default: rolling p99)",
    )
    serve.add_argument(
        "--slow-capacity", type=int, default=32, metavar="N",
        help="slow-scan exemplars retained in the ring buffer "
        "(default 32)",
    )

    report = sub.add_parser("report", help="aggregate a scan trace")
    report.add_argument("trace", type=Path)

    profile = sub.add_parser(
        "profile", help="scan once and show where the time went, per span"
    )
    profile.add_argument("file", type=Path)
    profile.add_argument("--reader-version", default="9.0", choices=("8.0", "9.0"))
    profile.add_argument(
        "--json", type=Path, metavar="OUT",
        help="write the per-span rows as JSON to OUT ('-' for stdout)",
    )
    profile.add_argument(
        "--limits", metavar="K=V,...",
        help="resource-budget overrides (see docs/HARDENING.md)",
    )
    return parser


def _build_scan_obs(args: argparse.Namespace):
    """Observability for one scan: JSONL when tracing, in-memory when
    only a metrics summary was requested, else None (no-op default)."""
    from repro.obs import JSONLSink, MemorySink, Observability

    if args.trace is not None:
        return Observability(JSONLSink(args.trace))
    if args.metrics:
        return Observability(MemorySink())
    return None


def _parse_limits_arg(args: argparse.Namespace):
    """Resolve ``--limits`` to a ScanLimits (the defaults when absent)."""
    from repro.limits import DEFAULT_LIMITS, ScanLimits

    spec = getattr(args, "limits", None)
    if spec is None:
        return DEFAULT_LIMITS
    return ScanLimits.parse(spec)


def _cmd_scan(args: argparse.Namespace) -> int:
    data = args.file.read_bytes()
    try:
        obs = _build_scan_obs(args)
    except OSError as error:
        print(f"error: cannot open trace file: {error}", file=sys.stderr)
        return 2
    try:
        limits = _parse_limits_arg(args)
    except ValueError as error:
        print(f"error: bad --limits: {error}", file=sys.stderr)
        return 2
    pipeline = ProtectionPipeline(
        reader_version=args.reader_version, triage=args.triage,
        limits=limits, obs=obs,
    )
    report = pipeline.scan(data, args.file.name)
    verdict = report.verdict
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(verdict.summary())
        if report.limit_kind is not None:
            print(f"  resource limit hit: {report.limit_kind} ({report.error})")
        if report.triaged:
            if verdict.malicious:
                print("  triaged: emulation skipped (statically proven malicious)")
            else:
                print("  triaged: emulation skipped (static analysis clean)")
        if report.crashed:
            print(f"  reader crashed: {report.outcome.crash_reason}")
        if report.did_nothing:
            print("  sample was inert (no in-JS activity)")
        for alert in report.alerts:
            for action in alert.confinement_actions:
                print(f"  confinement: {action}")
    if obs is not None:
        if args.metrics:
            print(obs.metrics.render(), file=sys.stderr)
        obs.close()  # flush metrics into the trace, close the file
        if args.trace is not None:
            print(f"trace written to {args.trace}", file=sys.stderr)
    return 1 if verdict.malicious else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static-analysis-only entry point.

    Exit codes: 0 = no finding at/above the triage severity, 1 = at
    least one, 2 = the file could not be read or analysed at all.
    """
    from repro.jsast import analyze_script
    from repro.jsast.analyzer import DocumentJSAnalysis, analyze_document
    from repro.pdf.parser import PDFParseError
    from repro.pdf.lexer import LexerError

    try:
        data = args.file.read_bytes()
    except OSError as error:
        print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
        return 2

    if data.lstrip()[:5] == b"%PDF-":
        try:
            document = PDFDocument.from_bytes(data)
        except (PDFParseError, LexerError) as error:
            print(f"error: cannot parse PDF: {error}", file=sys.stderr)
            return 2
        analysis = analyze_document(document)
    else:
        # Bare JavaScript source.
        code = data.decode("utf-8", "replace")
        analysis = DocumentJSAnalysis(reports=[analyze_script(code, args.file.name)])

    if args.json:
        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
    else:
        if not analysis.reports and not analysis.guards:
            print(f"{args.file.name}: no JavaScript")
        for guard in analysis.guards:
            print(f"{args.file.name}: guard {guard} (triage-ineligible)")
        for report in analysis.reports:
            status = "suspicious" if report.suspicious else "clean"
            print(
                f"{report.script}: {status} "
                f"(obfuscation {report.obfuscation_score:g}/10"
                + (", parse error" if report.parse_error else "")
                + ")"
            )
            if report.absint:
                verdict = report.absint_verdict
                reason = report.absint.get("reason", "")
                depth = report.absint.get("max_depth", 0)
                print(
                    f"  absint: {verdict} ({reason}; "
                    f"{report.absint.get('steps', 0)} steps, "
                    f"{depth} staged layer(s))"
                )
            for finding in report.findings:
                print(
                    f"  [{finding.severity.name.lower()}] "
                    f"{finding.rule}: {finding.message}"
                )
            for api in report.side_effect_apis:
                print(f"  [info] side-effect API: {api}")
        if analysis.proven_malicious:
            verdict = "proven malicious"
        elif analysis.suspicious:
            verdict = "suspicious"
        elif analysis.triage_eligible:
            verdict = "triage-eligible"
        else:
            verdict = "needs emulation"
        print(f"=> {verdict}")

    return 1 if analysis.suspicious else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report

    try:
        print(render_report(args.trace))
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: {args.trace} is not a JSONL trace: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """One production scan, explained from its span tree."""
    from repro.obs.report import span_self_times, span_table

    try:
        data = args.file.read_bytes()
    except OSError as error:
        print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    try:
        limits = _parse_limits_arg(args)
    except ValueError as error:
        print(f"error: bad --limits: {error}", file=sys.stderr)
        return 2
    pipeline = ProtectionPipeline(reader_version=args.reader_version, limits=limits)
    with pipeline.obs.tracer.collect() as spans:
        report = pipeline.scan(data, args.file.name)

    if args.json is not None:
        text = json.dumps(span_self_times(spans), indent=2)
        if str(args.json) == "-":
            print(text)
        else:
            args.json.write_text(text + "\n")
            print(f"profile written to {args.json}", file=sys.stderr)
    else:
        print(report.verdict.summary())
        print(span_table(spans))
    return 1 if report.verdict.malicious else 0


def _cmd_instrument(args: argparse.Namespace) -> int:
    pipeline = ProtectionPipeline()
    protected = pipeline.protect(args.file.read_bytes(), args.file.name)
    args.output.write_bytes(protected.data)
    print(
        f"instrumented {protected.instrumentation.instrumented_scripts} script(s) "
        f"(+{len(protected.embedded)} embedded PDF(s)); key {protected.key_text}"
    )
    if args.spec is not None:
        args.spec.write_text(json.dumps(protected.spec.to_dict(), indent=2))
        print(f"de-instrumentation spec written to {args.spec}")
    return 0


def _cmd_deinstrument(args: argparse.Namespace) -> int:
    spec = DeinstrumentationSpec.from_dict(json.loads(args.spec.read_text()))
    restored = deinstrument(args.file.read_bytes(), spec)
    args.output.write_bytes(restored)
    print(f"restored {len(spec.entries)} script(s) -> {args.output}")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    document = PDFDocument.from_bytes(args.file.read_bytes())
    chains = analyze_chains(document)
    features = extract_static_features(document, chains=chains)
    print(f"objects          : {len(document.store)}")
    print(f"javascript chains: {len(chains.chains)} "
          f"({len(chains.triggered_chains())} triggered)")
    print(f"F1 chain ratio   : {features.js_chain_ratio:.3f} -> {features.f1}")
    print(f"F2 header obf    : {features.header_obfuscated} -> {features.f2}")
    print(f"F3 hex keyword   : {features.hex_code_in_keyword} -> {features.f3}")
    print(f"F4 empty objects : {features.empty_object_count} -> {features.f4}")
    print(f"F5 encoding lvls : {features.encoding_levels} -> {features.f5}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusConfig, build_dataset

    config = CorpusConfig(
        n_benign=args.benign,
        n_benign_with_js=args.benign_js,
        n_malicious=args.malicious,
        benign_seed=args.seed,
        malicious_seed=args.seed + 1,
    )
    dataset = build_dataset(config)
    benign_dir = args.outdir / "benign"
    malicious_dir = args.outdir / "malicious"
    benign_dir.mkdir(parents=True, exist_ok=True)
    malicious_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for sample in dataset.all_samples():
        target = (malicious_dir if sample.malicious else benign_dir) / sample.name
        target.write_bytes(sample.data)
        manifest.append(
            {"name": sample.name, "label": sample.label, "kind": sample.kind,
             **{k: v for k, v in sample.meta.items() if isinstance(v, (str, int, bool, float))}}
        )
    (args.outdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    print(
        f"wrote {len(dataset.benign)} benign + {len(dataset.malicious)} malicious "
        f"samples to {args.outdir}"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchScanner, VerdictCache
    from repro.batch.scanner import _settings_fingerprint
    from repro.core.pipeline import PipelineSettings
    from repro.corpus.files import load_pdf_items

    try:
        obs = _build_scan_obs(args)
    except OSError as error:
        print(f"error: cannot open trace file: {error}", file=sys.stderr)
        return 2
    try:
        items = load_pdf_items(args.dir)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not items:
        print(f"error: no PDF files under {args.dir}", file=sys.stderr)
        return 2

    try:
        limits = _parse_limits_arg(args)
    except ValueError as error:
        print(f"error: bad --limits: {error}", file=sys.stderr)
        return 2
    settings = PipelineSettings(
        reader_version=args.reader_version, triage=args.triage,
        limits=limits,
    )
    if args.no_cache:
        cache = False
    elif args.cache is not None:
        cache = VerdictCache(
            path=args.cache, fingerprint=_settings_fingerprint(settings)
        )
    else:
        cache = None  # private in-memory cache
    try:
        scanner = BatchScanner(
            jobs=args.jobs,
            backend=args.backend,
            timeout=args.timeout,
            retries=args.retries,
            settings=settings,
            cache=cache,
            obs=obs,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = scanner.scan_items(items)

    print(report.summary())
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if str(args.json) == "-":
            print(payload)
        else:
            args.json.write_text(payload + "\n")
            print(f"report written to {args.json}", file=sys.stderr)
    if args.cache is not None and not args.no_cache:
        print(f"verdict cache saved to {args.cache}", file=sys.stderr)
    if obs is not None:
        if args.metrics:
            print(obs.metrics.render(), file=sys.stderr)
        obs.close()
        if args.trace is not None:
            print(f"trace written to {args.trace}", file=sys.stderr)
    counts = report.counts
    if counts["errored"] or counts["timeout"]:
        return 2
    return 1 if counts["malicious"] else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.batch import VerdictCache
    from repro.batch.scanner import _settings_fingerprint
    from repro.core.pipeline import PipelineSettings
    from repro.serve import AdmissionConfig, ScanService, start_server

    try:
        obs = _build_scan_obs(args)
    except OSError as error:
        print(f"error: cannot open trace file: {error}", file=sys.stderr)
        return 2
    try:
        limits = _parse_limits_arg(args)
    except ValueError as error:
        print(f"error: bad --limits: {error}", file=sys.stderr)
        return 2
    settings = PipelineSettings(
        reader_version=args.reader_version, triage=args.triage, limits=limits,
    )
    if args.no_cache:
        cache = False
    elif args.cache is not None:
        cache = VerdictCache(
            path=args.cache, fingerprint=_settings_fingerprint(settings)
        )
    else:
        cache = None  # private in-memory cache
    try:
        admission = AdmissionConfig(
            max_queue_depth=args.queue_depth,
            max_in_flight=(
                args.max_in_flight if args.max_in_flight is not None else args.jobs
            ),
            deadline_seconds=args.deadline if args.deadline > 0 else None,
            retry_after_seconds=args.retry_after,
        )
        service = ScanService(
            settings=settings,
            jobs=args.jobs,
            backend=args.backend,
            admission=admission,
            cache=cache,
            max_pending_async=args.max_pending_async,
            obs=obs,
            slow_threshold=args.slow_threshold,
            slow_capacity=args.slow_capacity,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    handle = start_server(service, host=args.host, port=args.port)
    print(f"repro serve listening on {handle.url} "
          f"({args.jobs} {args.backend} worker(s), "
          f"queue {admission.max_queue_depth}, "
          f"in-flight {admission.max_in_flight})")

    stop = threading.Event()

    def _on_signal(_signum: int, _frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        stop.wait()
    finally:
        print("draining...", file=sys.stderr)
        drained = handle.stop()
        snap = service.admission.snapshot()
        shed_total = sum(snap["shed"].values())
        print(
            f"served {snap['completed']} request(s), shed {shed_total}; "
            f"drain {'clean' if drained else 'timed out'}",
            file=sys.stderr,
        )
        if obs is not None:
            if args.metrics:
                print(obs.metrics.render(), file=sys.stderr)
            obs.close()
            if args.trace is not None:
                print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


_COMMANDS = {
    "scan": _cmd_scan,
    "lint": _cmd_lint,
    "batch": _cmd_batch,
    "instrument": _cmd_instrument,
    "deinstrument": _cmd_deinstrument,
    "features": _cmd_features,
    "corpus": _cmd_corpus,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
