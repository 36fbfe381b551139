"""Table X — execution time of static analysis & instrumentation.

Paper: ≈0.04 s average per malicious sample; per-size rows from 2 KB
(0.044 s) to 19.7 MB (5.5 s), with parsing+decompression dominating
(> 95 %) on large files.  Absolute numbers depend on the machine; the
shape — monotone growth, parse-dominated large files, sub-second small
files — is asserted.
"""

from repro.analysis import PaperComparison, format_table
from repro.core.instrument import Instrumenter
from repro.core.keys import KeyStore
from repro.corpus.malicious import MaliciousFactory
from repro.corpus.sized import table_x_documents
from repro.obs.report import child_durations

PAPER_TOTALS = {
    "2 KB": 0.0444,
    "9 KB": 0.1014,
    "24 KB": 0.0981,
    "325 KB": 0.1016,
    "7.0 MB": 1.3750,
    "19.7 MB": 5.4995,
}


def _document_span(sink, document):
    (span,) = [
        s
        for s in sink.spans_named("instrument.document")
        if s["tags"].get("document") == document
    ]
    return span


def test_table10_per_size_timings(benchmark, emit, obs_memory, artifact):
    documents = table_x_documents()
    sink = obs_memory.sink

    def run():
        sink.clear()
        instrumenter = Instrumenter(
            key_store=KeyStore.create(10), seed=10, obs=obs_memory
        )
        for label, data in documents:
            instrumenter.instrument(data, f"{label}.pdf")

    benchmark.pedantic(run, rounds=1, iterations=1)

    # Phase timings come straight out of the captured span tree: one
    # ``instrument.document`` root per input, with parse/features/rewrite
    # child spans.
    rows = []
    for label, data in documents:
        span = _document_span(sink, f"{label}.pdf")
        phases = child_durations(sink.spans, span)
        rows.append(
            {
                "size": label,
                "bytes": len(data),
                "parse_decompress": phases.get("instrument.parse", 0.0),
                "features": phases.get("instrument.features", 0.0),
                "instrument": phases.get("instrument.rewrite", 0.0),
                "total": span["duration"],
                "paper_total": PAPER_TOTALS[label],
            }
        )

    emit(
        format_table(
            ["size", "parse+decompress (s)", "features (s)", "instrument (s)",
             "total (s)", "paper total (s)"],
            [
                [
                    row["size"],
                    f"{row['parse_decompress']:.4f}",
                    f"{row['features']:.4f}",
                    f"{row['instrument']:.4f}",
                    f"{row['total']:.4f}",
                    f"{row['paper_total']:.4f}",
                ]
                for row in rows
            ],
        )
    )
    # Phase-I (front-end) timings only.
    artifact("BENCH_table10_phase1.json", rows)

    by_label = {row["size"]: row for row in rows}
    # Shape: total grows with size; big files dominated by parsing.
    assert by_label["19.7 MB"]["total"] > by_label["325 KB"]["total"] > 0
    big = by_label["19.7 MB"]
    assert big["parse_decompress"] / big["total"] > 0.5
    # Small files stay fast (well under a second even in Python).
    assert by_label["2 KB"]["total"] < 0.5


def test_table10_incremental_mode_extension(benchmark, emit):
    """Extension: incremental-update output removes the size scaling of
    the serialisation step (parse cost remains)."""
    documents = table_x_documents()

    def run():
        rows = []
        for label, data in documents:
            rewrite = Instrumenter(key_store=KeyStore.create(20), seed=20).instrument(
                data, f"{label}-rw.pdf", output="rewrite"
            )
            incremental = Instrumenter(
                key_store=KeyStore.create(21), seed=21
            ).instrument(data, f"{label}-inc.pdf", output="incremental")
            rows.append(
                (
                    label,
                    rewrite.timings.instrumentation,
                    incremental.timings.instrumentation,
                    len(incremental.data) - len(data),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["size", "rewrite instr (s)", "incremental instr (s)", "appended bytes"],
            [
                [label, f"{rw:.4f}", f"{inc:.4f}", str(appended)]
                for label, rw, inc, appended in rows
            ],
        )
    )
    by_label = {label: (rw, inc, appended) for label, rw, inc, appended in rows}
    big_rw, big_inc, big_appended = by_label["19.7 MB"]
    # The robust guarantee is the output shape: only the touched objects
    # are appended, the 20 MB body is never re-serialised.  (Wall-clock
    # at this size is dominated by the byte copy either way, so the
    # timing check is lenient against scheduler noise.)
    assert big_appended < 64 * 1024
    assert big_inc < big_rw * 2.0


def test_table10_average_over_malicious_corpus(benchmark, emit, obs_memory):
    factory = MaliciousFactory(seed=2014)
    specs = factory.specs(150)
    documents = [factory.build(spec) for spec in specs]
    sink = obs_memory.sink

    def run():
        sink.clear()
        instrumenter = Instrumenter(
            key_store=KeyStore.create(11), seed=11, obs=obs_memory
        )
        for index, data in enumerate(documents):
            instrumenter.instrument(data, f"m{index}.pdf")
        # Top-level documents only: embedded PDFs instrument recursively
        # and their time is already inside the depth-0 root spans.
        roots = [
            s
            for s in sink.spans_named("instrument.document")
            if s["tags"].get("depth") == 0
        ]
        return sum(s["duration"] for s in roots) / len(documents)

    average = benchmark.pedantic(run, rounds=1, iterations=1)
    comparison = PaperComparison("Table X — average instrumentation time per sample")
    comparison.add("seconds per malicious sample", "0.04", f"{average:.4f}")
    emit(comparison.render())
    assert average < 0.5  # same order of magnitude on commodity hardware
