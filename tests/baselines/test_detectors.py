"""Tests for the Table IX baseline detectors."""

import pytest

from repro.baselines import (
    MDScanDetector,
    MarkovNGramDetector,
    PDFRateDetector,
    PJScanDetector,
    SignatureAVDetector,
    StructuralPathDetector,
    WepawetDetector,
    evaluate_detector,
    mdscan,
)
from repro.baselines.base import train_test_split
from repro.corpus import CorpusConfig, build_dataset
from repro.corpus import test_scale as corpus_test_scale
from tests.js.walker_reference import Walker


@pytest.fixture(scope="module")
def split():
    ds = build_dataset(CorpusConfig(n_benign=80, n_benign_with_js=24, n_malicious=60))
    return train_test_split(ds.benign + ds.malicious)


class TestEvaluationHarness:
    def test_split_is_partition(self, split):
        train, test = split
        assert len(train) + len(test) == 140
        names = {s.name for s in train} | {s.name for s in test}
        assert len(names) == 140

    def test_rates_computed(self):
        from repro.baselines.base import EvaluationResult

        result = EvaluationResult("x", true_positives=9, false_negatives=1,
                                  false_positives=1, true_negatives=9)
        assert result.tp_rate == 0.9
        assert result.fp_rate == 0.1
        assert "x" in result.row()


class TestStaticBaselines:
    def test_pdfrate_high_accuracy(self, split):
        train, test = split
        result = evaluate_detector(PDFRateDetector(n_estimators=10).fit(train), test)
        assert result.tp_rate >= 0.9
        assert result.fp_rate <= 0.1

    def test_structural_good_fp(self, split):
        train, test = split
        result = evaluate_detector(StructuralPathDetector().fit(train), test)
        assert result.fp_rate <= 0.1
        assert result.tp_rate >= 0.6

    def test_structural_svm_variant(self, split):
        train, test = split
        result = evaluate_detector(
            StructuralPathDetector(classifier="svm").fit(train), test
        )
        assert result.tp_rate >= 0.5

    def test_structural_bad_classifier_rejected(self):
        with pytest.raises(ValueError):
            StructuralPathDetector(classifier="knn")

    def test_pjscan_mid_range(self, split):
        train, test = split
        result = evaluate_detector(PJScanDetector().fit(train), test)
        assert 0.5 <= result.tp_rate <= 1.0

    def test_pjscan_requires_malicious_training(self, split):
        _train, test = split
        benign_only = [s for s in test if not s.malicious]
        with pytest.raises(ValueError):
            PJScanDetector().fit(benign_only)

    def test_ngram_weakest_shape(self, split):
        train, test = split
        result = evaluate_detector(MarkovNGramDetector().fit(train), test)
        # the n-gram detector either misses more or false-fires more
        assert result.fp_rate > 0.0 or result.tp_rate < 0.95


class TestDynamicBaselines:
    def test_mdscan_detects_extractable_sprays(self, split):
        train, test = split
        result = evaluate_detector(MDScanDetector().fit(train), test)
        assert result.tp_rate >= 0.6
        assert result.fp_rate == 0.0

    def test_mdscan_misses_title_hidden_payload(self, small_dataset):
        detector = MDScanDetector()
        title_samples = [
            s for s in small_dataset.malicious if s.kind == "title_shellcode"
        ]
        assert title_samples
        for sample in title_samples:
            assert detector.predict(sample) is False

    def test_mdscan_misses_export_launch(self, small_dataset):
        detector = MDScanDetector()
        samples = [s for s in small_dataset.malicious if s.kind == "export_launch"]
        assert samples
        assert all(not detector.predict(s) for s in samples)

    def test_wepawet_midrange(self, split):
        train, test = split
        result = evaluate_detector(WepawetDetector().fit(train), test)
        assert 0.3 <= result.tp_rate <= 1.0

    def test_wepawet_requires_benign_js(self):
        with pytest.raises(ValueError):
            WepawetDetector().fit([])


class TestSignatureAV:
    def test_evaded_by_stream_encoding(self, split):
        train, test = split
        result = evaluate_detector(SignatureAVDetector().fit(train), test)
        # Nearly all malicious samples hide their JS in encoded streams.
        assert result.tp_rate <= 0.3
        assert result.fp_rate == 0.0

    def test_catches_unencoded_sample(self):
        from repro.corpus.dataset import Sample

        detector = SignatureAVDetector()
        raw = Sample("x.pdf", b"...Collab.getIcon(...)...", "malicious", "standard")
        assert detector.predict(raw)


@pytest.mark.diff
def test_mdscan_flags_the_same_samples_on_the_walker(monkeypatch):
    """MDScan emulates on the bytecode VM; with its interpreter class
    swapped for the walker, it flags exactly the same test-scale
    samples."""
    samples = list(build_dataset(corpus_test_scale()).all_samples())
    detector = MDScanDetector()
    on_vm = {sample.name for sample in samples if detector.predict(sample)}
    monkeypatch.setattr(mdscan, "BytecodeInterpreter", Walker)
    on_walker = {sample.name for sample in samples if detector.predict(sample)}
    assert on_vm == on_walker
    assert len(on_vm) == 66
