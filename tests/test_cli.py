"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.pdf.document import PDFDocument


@pytest.fixture()
def benign_file(tmp_path, js_doc_bytes):
    path = tmp_path / "benign.pdf"
    path.write_bytes(js_doc_bytes)
    return path


@pytest.fixture()
def malicious_file(tmp_path, malicious_doc_bytes):
    path = tmp_path / "mal.pdf"
    path.write_bytes(malicious_doc_bytes)
    return path


@pytest.mark.batch
class TestBatch:
    @pytest.fixture()
    def corpus_dir(self, tmp_path, js_doc_bytes, malicious_doc_bytes, simple_doc_bytes):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "benign.pdf").write_bytes(js_doc_bytes)
        (root / "plain.pdf").write_bytes(simple_doc_bytes)
        (root / "mal.pdf").write_bytes(malicious_doc_bytes)
        (root / "mal-copy.pdf").write_bytes(malicious_doc_bytes)
        return root

    def test_batch_scans_directory(self, corpus_dir, capsys):
        code = main(["batch", str(corpus_dir), "--jobs", "2",
                     "--backend", "thread"])
        out = capsys.readouterr().out
        assert code == 1  # malicious present
        assert "scanned 4 document(s)" in out
        assert "malicious : 2" in out
        assert "1 hit(s)" in out  # mal-copy answered from cache

    def test_batch_json_report(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(["batch", str(corpus_dir), "--jobs", "2", "--backend", "thread",
              "--json", str(out_path)])
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["total"] == 4
        assert payload["counts"]["malicious"] == 2
        assert payload["cache"]["hits"] == 1

    def test_batch_persistent_cache(self, corpus_dir, tmp_path, capsys):
        cache = tmp_path / "verdicts.json"
        main(["batch", str(corpus_dir), "--jobs", "1", "--backend", "thread",
              "--cache", str(cache)])
        capsys.readouterr()
        assert cache.exists()
        main(["batch", str(corpus_dir), "--jobs", "1", "--backend", "thread",
              "--cache", str(cache)])
        out = capsys.readouterr().out
        assert "0 scan(s) executed" in out
        assert "100% hit rate" in out

    def test_batch_no_cache(self, corpus_dir, capsys):
        main(["batch", str(corpus_dir), "--jobs", "1", "--backend", "thread",
              "--no-cache"])
        out = capsys.readouterr().out
        assert "4 scan(s) executed" in out

    def test_batch_benign_only_exit_zero(self, tmp_path, js_doc_bytes, capsys):
        (tmp_path / "ok.pdf").write_bytes(js_doc_bytes)
        assert main(["batch", str(tmp_path), "--jobs", "1",
                     "--backend", "thread"]) == 0

    def test_batch_missing_dir_exit_two(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "absent"), "--jobs", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_batch_empty_dir_exit_two(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path), "--jobs", "1"]) == 2
        assert "no PDF files" in capsys.readouterr().err

    def test_batch_single_file(self, tmp_path, js_doc_bytes, capsys):
        path = tmp_path / "one.pdf"
        path.write_bytes(js_doc_bytes)
        assert main(["batch", str(path), "--jobs", "1",
                     "--backend", "thread"]) == 0
        assert "scanned 1 document(s)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "{pdf}", "--jobs", "0"],
        ["batch", "{pdf}", "--timeout", "0"],
        ["serve", "--jobs", "0"],
        ["serve", "--queue-depth", "-1"],
        ["serve", "--max-in-flight", "0"],
    ],
    ids=lambda argv: " ".join(argv).replace("{pdf} ", ""),
)
def test_bad_pool_option_is_a_usage_error(argv, benign_file, capsys):
    """Exit 2 with a one-line message — not a traceback and exit 1,
    which ``batch`` uses for "malicious found"."""
    argv = [str(benign_file) if arg == "{pdf}" else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestScan:
    def test_benign_exit_code_zero(self, benign_file, capsys):
        assert main(["scan", str(benign_file)]) == 0
        assert "benign" in capsys.readouterr().out

    def test_malicious_exit_code_one(self, malicious_file, capsys):
        assert main(["scan", str(malicious_file)]) == 1
        out = capsys.readouterr().out
        assert "MALICIOUS" in out
        assert "confinement" in out

    def test_json_output(self, malicious_file, capsys):
        main(["scan", "--json", str(malicious_file)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["malicious"] is True
        assert 8 in payload["features"]
        assert payload["quarantined"]

    def test_reader_version_flag(self, benign_file, capsys):
        assert main(["scan", "--reader-version", "8.0", str(benign_file)]) == 0


class TestScanTrace:
    def test_trace_and_report(self, malicious_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["scan", str(malicious_file), "--trace", str(trace)]) == 1
        capsys.readouterr()

        types = set()
        span_names = set()
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            types.add(record["type"])
            if record["type"] == "span":
                span_names.add(record["name"])
        assert types == {"span", "event", "metric"}
        assert {"pipeline.scan", "instrument.document", "session.open"} <= span_names

        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.scan" in out
        assert "syscall" in out
        assert "docs_scanned" in out

    def test_metrics_summary_on_stderr(self, benign_file, capsys):
        assert main(["scan", str(benign_file), "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "docs_scanned" in captured.err
        assert "docs_scanned" not in captured.out  # stdout stays clean


class TestInstrumentRoundtrip:
    def test_instrument_then_deinstrument(self, benign_file, tmp_path, capsys):
        out = tmp_path / "inst.pdf"
        spec = tmp_path / "spec.json"
        assert main(["instrument", str(benign_file), "-o", str(out), "--spec", str(spec)]) == 0
        assert out.exists() and spec.exists()

        doc = PDFDocument.from_bytes(out.read_bytes())
        (action,) = list(doc.iter_javascript_actions())
        assert "SOAP.request" in doc.get_javascript_code(action)

        restored = tmp_path / "restored.pdf"
        assert main(["deinstrument", str(out), "--spec", str(spec), "-o", str(restored)]) == 0
        doc2 = PDFDocument.from_bytes(restored.read_bytes())
        (action2,) = list(doc2.iter_javascript_actions())
        assert "SOAP.request" not in doc2.get_javascript_code(action2)


class TestFeatures:
    def test_features_output(self, malicious_file, capsys):
        assert main(["features", str(malicious_file)]) == 0
        out = capsys.readouterr().out
        assert "F1 chain ratio" in out
        assert "javascript chains" in out


class TestCorpus:
    def test_corpus_generation(self, tmp_path, capsys):
        outdir = tmp_path / "corpus"
        code = main(
            ["corpus", str(outdir), "--benign", "6", "--benign-js", "2",
             "--malicious", "4", "--seed", "9"]
        )
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest) == 10
        assert len(list((outdir / "benign").iterdir())) == 6
        assert len(list((outdir / "malicious").iterdir())) == 4


class TestLint:
    def test_benign_pdf_exit_zero(self, benign_file, capsys):
        assert main(["lint", str(benign_file)]) == 0
        out = capsys.readouterr().out
        assert "triage-eligible" in out

    def test_malicious_pdf_exit_one(self, malicious_file, capsys):
        assert main(["lint", str(malicious_file)]) == 1
        out = capsys.readouterr().out
        # The proof tier upgrades the verdict line when it convicts;
        # either way the document is flagged.
        assert "=> proven malicious" in out or "=> suspicious" in out
        assert "absint:" in out

    def test_bare_js_file(self, tmp_path, capsys):
        path = tmp_path / "snippet.js"
        path.write_text('var s = unescape("%u9090%u9090");')
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "unescape-sled" in out

    def test_clean_js_file_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.js"
        path.write_text("var x = 1 + 1;")
        assert main(["lint", str(path)]) == 0

    def test_json_output(self, malicious_file, capsys):
        assert main(["lint", str(malicious_file), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["suspicious"] is True
        assert payload["reports"]
        rules = {
            f["rule"] for r in payload["reports"] for f in r["findings"]
        }
        assert rules  # at least one rule fired

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.pdf")]) == 2

    def test_unparseable_pdf_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.pdf"
        path.write_bytes(b"%PDF-1.4 truncated nonsense without objects")
        assert main(["lint", str(path)]) == 2

    def test_unparseable_js_is_flagged_not_crashed(self, tmp_path, capsys):
        path = tmp_path / "broken.js"
        path.write_text("var = ;;; <<<")
        assert main(["lint", str(path)]) == 1
        assert "unparseable-js" in capsys.readouterr().out


class TestScanTriage:
    def test_benign_triaged(self, tmp_path, simple_doc_bytes, capsys):
        path = tmp_path / "plain.pdf"
        path.write_bytes(simple_doc_bytes)
        assert main(["scan", str(path), "--triage"]) == 0
        out = capsys.readouterr().out
        assert "triaged: emulation skipped" in out

    def test_malicious_triaged_as_proven(self, malicious_file, capsys):
        # The proof tier convicts the spray statically: triaged, exit 1.
        assert main(["scan", str(malicious_file), "--triage"]) == 1
        out = capsys.readouterr().out
        assert "statically proven malicious" in out
        assert "MALICIOUS" in out

    @pytest.mark.batch
    def test_batch_triage_summary(self, tmp_path, simple_doc_bytes,
                                  malicious_doc_bytes, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "plain.pdf").write_bytes(simple_doc_bytes)
        (root / "mal.pdf").write_bytes(malicious_doc_bytes)
        code = main(["batch", str(root), "--jobs", "1", "--backend", "thread",
                     "--triage"])
        out = capsys.readouterr().out
        assert code == 1
        # Both docs settle statically now: the benign one is clean, the
        # malicious one is proven by the absint tier.
        assert "triaged   : 2 (emulation skipped)" in out


class TestProfile:
    def test_profile_prints_phase_and_hotspot_tables(self, benign_file, capsys):
        code = main(["profile", str(benign_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "total" in out and "across phases" in out
        assert "js-exec" in out
        assert "AST node hotspots" in out
        assert "call-sites" in out

    def test_profile_collapsed_output(self, benign_file, tmp_path, capsys):
        collapsed = tmp_path / "collapsed.txt"
        main(["profile", str(benign_file), "--collapsed", str(collapsed)])
        capsys.readouterr()
        lines = collapsed.read_text().splitlines()
        assert lines, "no collapsed stacks written"
        for line in lines:
            stack, _, micros = line.rpartition(" ")
            assert stack.startswith("(root)")
            assert int(micros) >= 0

    def test_profile_json_output(self, benign_file, capsys):
        code = main(["profile", str(benign_file), "--json", "-", "--top", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["total_seconds"] > 0.0
        assert abs(
            sum(payload["phases"].values()) - payload["total_seconds"]
        ) <= 0.05 * payload["total_seconds"]
        assert len(payload["js"]["hotspots"]) <= 3

    def test_profile_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "absent.pdf")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.batch
    def test_batch_profile_flag(self, tmp_path, js_doc_bytes, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a.pdf").write_bytes(js_doc_bytes)
        code = main(["batch", str(root), "--jobs", "1", "--backend", "thread",
                     "--profile", "--json", "-"])
        out = capsys.readouterr().out
        assert code == 0
        assert "phases    :" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["phase_totals"]["js-exec"] > 0.0
