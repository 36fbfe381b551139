"""One scan per JS layer, shared by the lint report and absint.

``analyze_script`` reads every layer through
:func:`repro.jsast.analyzer.scan_layer`: the script, its constant-eval
layers and every layer the abstract interpreter peels.  Each distinct
layer source is parsed, folded and linted once per call, and a layer
peeled more than once keeps facts independent of its other peels.
"""

from __future__ import annotations

import gc
import json
from collections import Counter

import pytest

from repro.corpus.obfuscated import obfuscated_corpus, obfuscated_spray_script
from repro.jsast import analyzer
from repro.jsast.absint import interpret_script
from repro.jsast.analyzer import LayerScan, analyze_script, scan_layer
from repro.jsast.rules_absint import run_absint
from repro.pdf.document import PDFDocument

pytestmark = pytest.mark.absint


def _count_scans(monkeypatch, scripts):
    """``(report, parsed, folded)`` for ``analyze_script`` of each
    script: Counters of the layer sources passed to ``parse`` and
    ``build_context``."""
    parsed: Counter = Counter()
    folded: Counter = Counter()
    parse, build_context = analyzer.parse, analyzer.build_context

    def counting_parse(code):
        parsed[code] += 1
        return parse(code)

    def counting_build_context(code, program):
        folded[code] += 1
        return build_context(code, program)

    monkeypatch.setattr(analyzer, "parse", counting_parse)
    monkeypatch.setattr(analyzer, "build_context", counting_build_context)
    reports = []
    for code in scripts:
        parsed.clear()
        folded.clear()
        reports.append((analyze_script(code), Counter(parsed), Counter(folded)))
    return reports


def _corpus_scripts():
    scripts = []
    for _name, data in obfuscated_corpus(6, 6):
        document = PDFDocument.from_bytes(data)
        for action in document.iter_javascript_actions():
            scripts.append(document.get_javascript_code(action))
    return scripts


class TestOneScanPerLayer:
    def test_staged_spray_layers_scanned_once(self, monkeypatch):
        code = obfuscated_spray_script(target_mb=120, layers=3)
        [(report, parsed, folded)] = _count_scans(monkeypatch, [code])
        assert report.absint["max_depth"] == 3
        # The script and its three staged layers, each exactly once.
        assert len(parsed) >= 4
        assert set(parsed.values()) == {1}
        assert folded == parsed

    def test_obfuscated_corpus_layers_scanned_once(self, monkeypatch):
        scripts = _corpus_scripts()
        assert len(scripts) == 12
        for report, parsed, folded in _count_scans(monkeypatch, scripts):
            assert len(parsed) >= 1 + report.absint["max_depth"]
            assert set(parsed.values()) == {1}, report.script
            assert folded == parsed, report.script

    def test_scan_is_reused_from_the_dict(self):
        scans = {}
        first = scan_layer("var x = 1;", scans)
        assert scan_layer("var x = 1;", scans) is first
        assert scan_layer("var x = 1;", {}) is not first

    def test_scans_are_dropped_when_the_call_returns(self):
        analyze_script(obfuscated_spray_script(target_mb=120, layers=3))
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, LayerScan)]


class TestSiblingLayersKeepTheirCallSites:
    """A call site must not be skipped because a freed sibling layer's
    node once had the same ``id()``."""

    def test_twenty_sibling_layers_keep_every_channel(self):
        code = "".join(
            f"eval(\"eval('{i}')\"); eval(\"f{i}()\");" for i in range(20)
        )
        result = interpret_script(code)
        assert sorted(c.path for c in result.channels) == sorted(
            f"f{i}" for i in range(20)
        )

    def test_opaque_sibling_call_blocks_triage(self):
        report = analyze_script(
            'var s = "eval(\'1\')"; s = s + ""; eval(s); eval("q()");'
        )
        assert report.absint["verdict"] == "unknown"
        assert report.absint["reason"] == "opaque-call:q"
        assert not report.triage_eligible


class TestSameLayerPeeledTwice:
    LAYER = "this.exportDataObject({cName: 'a.exe', nLaunch: 2});"
    SCRIPT = (
        f"if (app.viewerVersion > 100) {{ eval({json.dumps(LAYER)}); }}\n"
        f"eval({json.dumps(LAYER)});"
    )

    def _assert_independent_exports(self, section):
        assert section["verdict"] == "proven-malicious"
        assert section["reason"] == "absint-export-launch"
        exports = [(e["layer"], e["must"]) for e in section["exports"]]
        assert sorted(exports) == [(1, False), (1, True)]

    def test_analyze_script(self):
        self._assert_independent_exports(analyze_script(self.SCRIPT).absint)

    def test_run_absint_alone(self):
        self._assert_independent_exports(run_absint(self.SCRIPT))
