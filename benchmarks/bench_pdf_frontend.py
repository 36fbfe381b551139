"""PDF front-end throughput — allocation-lean tokenizer/cascade/parse.

The headline artifact for the front-end rework: tokenizer throughput
(fast lexer vs the frozen pre-optimisation reference), filter-cascade
decode throughput (bytearray chaining vs per-layer ``bytes``
materialisation), and full-parse wall clock on the padding-dominated
Table X tiers against the old front end: the frozen token-at-a-time
parser (``tests/pdf/parser_reference.py``) running the reference lexer
and a whole-buffer recovery scan.

Equivalence is part of the contract, not a separate test: every parse
pair is required to re-serialise to byte-identical documents, on the
Table X tiers *and* on the full golden corpus (whose scan verdicts are
independently pinned by ``tests/batch/test_golden_corpus.py``).

Results land in ``BENCH_pdf.json``.
"""

from __future__ import annotations

import statistics
import time

from repro.analysis import format_table
from repro.corpus import build_dataset, dataset_items
from repro.corpus.sized import table_x_documents
from repro.pdf import filters
from repro.pdf.lexer import Lexer, TokenType
from repro.pdf.objects import PDFDict, PDFName, PDFStream
from repro.pdf.parser import PDFParser
from repro.pdf.writer import write_pdf

from tests.batch.golden import GOLDEN_CONFIG
from tests.pdf import parser_reference
from tests.pdf.lexer_reference import ReferenceLexer

#: Repeats per measurement; medians damp scheduler noise.
ROUNDS = 3

#: In-test floor for the median full-parse speedup on the
#: padding-dominated tiers.  Deliberately far below the measured
#: ~16-80x so CI machine variance cannot flake the job; the committed
#: artifact records the real numbers.
SPEEDUP_FLOOR = 1.5

#: Tiers large enough to be padding-dominated (the small tiers are
#: fixed-overhead-dominated and measure nothing about the rework).
PADDED_TIERS = ("325 KB", "7.0 MB", "19.7 MB")


class OldFrontEndParser(parser_reference.PDFParser):
    """The pre-rework front end: the frozen token-at-a-time parser with
    the reference lexer and a whole-buffer recovery scan."""

    lexer_cls = ReferenceLexer
    recovery_skips_covered = False


def _median_time(fn, rounds: int = ROUNDS) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- tokenizer ---------------------------------------------------------------


def _token_corpus(objects: int = 1500) -> bytes:
    """Token-dense object syntax (no binary payloads, lexable end to end)."""
    parts = []
    for i in range(objects):
        parts.append(
            b"%d 0 obj << /Type /X%d /Kids [1 2.5 -3 (literal string %d) "
            b"<DEADBEEF00> /Name%d true false null %d 0 R] >> endobj\n"
            % (i + 1, i, i, i, i + 2)
        )
    return b"".join(parts)


def _drain(lexer_cls, data: bytes) -> int:
    lexer = lexer_cls(data)
    count = 0
    while lexer.next_token().type is not TokenType.EOF:
        count += 1
    return count


# -- cascade -----------------------------------------------------------------


_CASCADE = ["FlateDecode", "ASCIIHexDecode", "RunLengthDecode"]


def _cascade_stream(payload: bytes) -> PDFStream:
    from repro.pdf.objects import PDFArray

    d = PDFDict()
    d[PDFName("Filter")] = PDFArray([PDFName(n) for n in _CASCADE])
    return PDFStream(d, filters.encode_cascade(payload, _CASCADE))


def _decode_per_layer(raw: bytes) -> bytes:
    # The old cascade runner: one bytes object materialised per layer.
    data = raw
    for name in _CASCADE:
        data = filters.decode(name, data)
    return data


# -- the benchmark -----------------------------------------------------------


def test_pdf_frontend_speedup(benchmark, emit, artifact):
    tiers = table_x_documents()
    token_data = _token_corpus()
    cascade_payload = (b"the quick brown fox jumps over the lazy dog " * 512) * 16
    cascade_stream = _cascade_stream(cascade_payload)
    golden_items = dataset_items(build_dataset(GOLDEN_CONFIG))

    def run():
        # Tokenizer throughput: both lexers drain the same corpus.
        fast_tokens = _drain(Lexer, token_data)
        ref_tokens = _drain(ReferenceLexer, token_data)
        fast_lex = _median_time(lambda: _drain(Lexer, token_data))
        ref_lex = _median_time(lambda: _drain(ReferenceLexer, token_data))

        # Cascade decode: chained bytearrays vs per-layer bytes.
        chained = filters.decode_stream(cascade_stream)
        per_layer = _decode_per_layer(cascade_stream.raw_data)
        chained_t = _median_time(lambda: filters.decode_stream(cascade_stream))
        layered_t = _median_time(
            lambda: _decode_per_layer(cascade_stream.raw_data)
        )

        # Full parse per tier, both front ends, stores re-serialised.
        tier_rows = []
        stores_identical = True
        for label, data in tiers:
            new_parsed = PDFParser(data).parse()
            old_parsed = OldFrontEndParser(data).parse()
            new_bytes = write_pdf(new_parsed.store, new_parsed.trailer)
            old_bytes = write_pdf(old_parsed.store, old_parsed.trailer)
            if new_bytes != old_bytes:
                stores_identical = False
            new_t = _median_time(lambda d=data: PDFParser(d).parse())
            old_t = _median_time(lambda d=data: OldFrontEndParser(d).parse())
            tier_rows.append((label, len(data), new_t, old_t))

        # Golden corpus: byte-identical stores document by document.
        golden_identical = True
        for _name, data in golden_items:
            new_parsed = PDFParser(data).parse()
            old_parsed = OldFrontEndParser(data).parse()
            if write_pdf(new_parsed.store, new_parsed.trailer) != write_pdf(
                old_parsed.store, old_parsed.trailer
            ):
                golden_identical = False

        return {
            "tokens": (fast_tokens, ref_tokens),
            "lex": (fast_lex, ref_lex),
            "cascade_equal": chained == per_layer == cascade_payload,
            "cascade": (chained_t, layered_t),
            "tiers": tier_rows,
            "stores_identical": stores_identical,
            "golden_identical": golden_identical,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    fast_tokens, ref_tokens = result["tokens"]
    fast_lex, ref_lex = result["lex"]
    mb = len(token_data) / 1e6
    tokenizer = {
        "corpus_bytes": len(token_data),
        "tokens": fast_tokens,
        "fast_mb_per_s": round(mb / fast_lex, 1),
        "reference_mb_per_s": round(mb / ref_lex, 1),
        "speedup": round(ref_lex / fast_lex, 2),
    }

    chained_t, layered_t = result["cascade"]
    cascade_mb = len(cascade_payload) / 1e6
    cascade = {
        "filters": _CASCADE,
        "payload_bytes": len(cascade_payload),
        "chained_mb_per_s": round(cascade_mb / chained_t, 1),
        "per_layer_mb_per_s": round(cascade_mb / layered_t, 1),
        "speedup": round(layered_t / chained_t, 2),
    }

    rows = []
    padded_speedups = []
    for label, nbytes, new_t, old_t in result["tiers"]:
        speedup = old_t / new_t if new_t else float("inf")
        if label in PADDED_TIERS:
            padded_speedups.append(speedup)
        rows.append(
            {
                "size": label,
                "bytes": nbytes,
                "new_seconds": round(new_t, 5),
                "old_seconds": round(old_t, 5),
                "speedup": round(speedup, 2),
            }
        )
    median_padded = statistics.median(padded_speedups)

    emit(
        format_table(
            ["size", "bytes", "new (s)", "old (s)", "speedup"],
            [
                [
                    row["size"],
                    str(row["bytes"]),
                    f"{row['new_seconds']:.5f}",
                    f"{row['old_seconds']:.5f}",
                    f"{row['speedup']:.2f}x",
                ]
                for row in rows
            ],
        )
        + f"\ntokenizer: {tokenizer['fast_mb_per_s']} MB/s vs "
        + f"{tokenizer['reference_mb_per_s']} MB/s ({tokenizer['speedup']:.2f}x)"
        + f"\ncascade: {cascade['chained_mb_per_s']} MB/s vs "
        + f"{cascade['per_layer_mb_per_s']} MB/s ({cascade['speedup']:.2f}x)"
        + f"\nmedian full-parse speedup (padded tiers): {median_padded:.2f}x"
        + f"\nstores identical: tiers={result['stores_identical']} "
        + f"golden={result['golden_identical']}"
    )
    artifact(
        "BENCH_pdf.json",
        {
            "rounds": ROUNDS,
            "tokenizer": tokenizer,
            "cascade": cascade,
            "full_parse": rows,
            "padded_tiers": list(PADDED_TIERS),
            "median_padded_speedup": round(median_padded, 2),
            "stores_identical": result["stores_identical"],
            "golden_stores_identical": result["golden_identical"],
        },
    )

    # Equivalence is hard; wall-clock floors are loose (machine variance
    # must not flake CI) — the artifact records the real numbers.
    assert result["cascade_equal"], "cascade decoders disagreed"
    assert result["stores_identical"], "front ends disagreed on a Table X store"
    assert result["golden_identical"], "front ends disagreed on a golden store"
    assert median_padded > SPEEDUP_FLOOR, (
        f"median padded-tier speedup {median_padded:.2f}x under {SPEEDUP_FLOOR}x"
    )
    assert tokenizer["speedup"] > 1.0, "fast lexer slower than the reference"
