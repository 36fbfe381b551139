"""Where a scan's time went: the span self-time roll-up
(:func:`repro.obs.report.span_self_times`), ``repro profile`` and the
slow-scan exemplar buffer (:class:`repro.obs.profile.SlowScanBuffer`)."""

import json
import threading

import pytest

from repro.cli import main
from repro.core.pipeline import ProtectionPipeline
from repro.js.interpreter import Interpreter
from repro.js.vm import BytecodeInterpreter
from repro.obs import Observability, get_default
from repro.obs.profile import SlowScanBuffer
from repro.obs.report import span_self_times


def _span(span_id, name, start, end, parent_id=None):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "start": start,
        "end": end,
        "duration": end - start,
        "tags": {},
    }


def _rows(spans):
    return {row["span"]: row for row in span_self_times(spans)}


# -- the self-time roll-up ---------------------------------------------------


class TestSpanSelfTimes:
    def test_self_time_excludes_direct_children_only(self):
        spans = [
            _span(2, "parse", 1.0, 3.0, parent_id=1),
            _span(4, "decode", 4.0, 4.5, parent_id=3),
            _span(3, "script", 3.5, 6.5, parent_id=1),
            _span(1, "scan", 0.0, 10.0),
        ]
        rows = _rows(spans)
        assert rows["scan"]["self_seconds"] == pytest.approx(5.0)
        assert rows["script"]["self_seconds"] == pytest.approx(2.5)
        assert rows["decode"]["self_seconds"] == pytest.approx(0.5)
        assert rows["scan"]["total_seconds"] == pytest.approx(10.0)
        # One thread: the self times of the tree add up to its root.
        total_self = sum(row["self_seconds"] for row in rows.values())
        assert total_self == pytest.approx(10.0)
        # Busiest self time first.
        assert [row["span"] for row in span_self_times(spans)] == [
            "scan", "script", "parse", "decode",
        ]

    def test_rows_aggregate_spans_of_one_name(self):
        spans = [
            _span(1, "scan", 0.0, 1.0),
            _span(2, "script", 0.0, 0.25, parent_id=1),
            _span(3, "script", 0.5, 1.0, parent_id=1),
        ]
        script = _rows(spans)["script"]
        assert script["count"] == 2
        assert script["total_seconds"] == pytest.approx(0.75)
        assert script["max_seconds"] == pytest.approx(0.5)

    def test_concurrent_children_floor_self_time_at_zero(self):
        spans = [
            _span(1, "batch.run", 0.0, 1.0),
            _span(2, "batch.document", 0.0, 0.9, parent_id=1),
            _span(3, "batch.document", 0.1, 1.0, parent_id=1),
        ]
        assert _rows(spans)["batch.run"]["self_seconds"] == 0.0


# -- production scans ----------------------------------------------------------


def test_concurrent_scans_collect_only_their_own_tree(js_doc_bytes):
    """Two threads share one tracer; each collects its own scan tree."""
    obs = Observability()
    barrier = threading.Barrier(2)
    collected = {}

    def scan(name):
        pipeline = ProtectionPipeline(seed=7, obs=obs)
        barrier.wait()
        with obs.tracer.collect() as spans:
            pipeline.scan(js_doc_bytes, name)
        collected[name] = spans

    threads = [
        threading.Thread(target=scan, args=(f"doc{index}.pdf",))
        for index in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for name, spans in collected.items():
        (root,) = [span for span in spans if span["name"] == "pipeline.scan"]
        assert root["tags"]["document"] == name
        ids = {span["span_id"] for span in spans}
        for span in spans:
            assert span is root or span["parent_id"] in ids, span["name"]
        rows = span_self_times(spans)
        assert sum(row["self_seconds"] for row in rows) == pytest.approx(
            root["duration"], abs=1e-9
        )
        assert any(row["span"] == "reader.script" for row in rows)


@pytest.fixture()
def interpreters(monkeypatch):
    """Every BytecodeInterpreter built while the test runs."""
    built = []
    init = BytecodeInterpreter.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(BytecodeInterpreter, "__init__", recording_init)
    return built


def test_profile_rows_sum_to_the_scan_on_the_golden_corpus(
    tmp_path, interpreters, capsys
):
    from repro.corpus import build_dataset, dataset_items
    from tests.batch.golden import GOLDEN_CONFIG

    out = tmp_path / "rows.json"
    scripts = 0
    for name, data in dataset_items(build_dataset(GOLDEN_CONFIG)):
        path = tmp_path / name
        path.write_bytes(data)
        interpreters.clear()
        with get_default().tracer.collect() as spans:
            main(["profile", str(path), "--json", str(out)])
        rows = {row["span"]: row for row in json.loads(out.read_text())}
        total_self = sum(row["self_seconds"] for row in rows.values())
        assert rows["pipeline.scan"]["count"] == 1, name
        assert total_self == pytest.approx(
            rows["pipeline.scan"]["total_seconds"], abs=1e-9
        ), name
        steps = [
            span["tags"]["steps"]
            for span in spans
            if span["name"] == "reader.script"
        ]
        assert sum(steps) == sum(i.steps for i in interpreters), name
        assert len(steps) == rows.get("reader.script", {}).get("count", 0)
        scripts += len(steps)
    capsys.readouterr()
    assert scripts, "no golden document ran a script"


# -- no production scan runs the tree-walker -------------------------------------


@pytest.fixture()
def walker_calls(monkeypatch):
    """Make the walker's dispatch raise, and record every attempt."""
    calls = []

    def refuse(kind):
        def dispatch(self, node, env, this):
            calls.append((kind, type(node).__name__))
            raise AssertionError(f"walker {kind} dispatched {type(node).__name__}")

        return dispatch

    monkeypatch.setattr(Interpreter, "exec_statement", refuse("exec_statement"))
    monkeypatch.setattr(Interpreter, "eval_expression", refuse("eval_expression"))
    return calls


def _golden():
    from repro.corpus import build_dataset, dataset_items
    from tests.batch.golden import GOLDEN_CONFIG

    return list(dataset_items(build_dataset(GOLDEN_CONFIG)))


def _obfuscated():
    from repro.corpus.obfuscated import obfuscated_corpus

    return list(obfuscated_corpus(6, 6))


def _table_x_js():
    from repro.corpus.sized import table_x_js_documents

    return table_x_js_documents()


@pytest.mark.parametrize(
    "corpus", [_golden, _obfuscated, _table_x_js], ids=lambda fn: fn.__name__[1:]
)
def test_scans_never_dispatch_through_the_walker(corpus, walker_calls):
    for name, data in corpus():
        ProtectionPipeline().scan(data, name)
    assert walker_calls == []


def test_repro_profile_never_dispatches_through_the_walker(
    tmp_path, malicious_doc_bytes, walker_calls, capsys
):
    path = tmp_path / "mal.pdf"
    path.write_bytes(malicious_doc_bytes)
    assert main(["profile", str(path)]) == 1
    assert "reader.script" in capsys.readouterr().out
    assert walker_calls == []


# -- SlowScanBuffer --------------------------------------------------------


class TestSlowScanBuffer:
    def test_fixed_threshold(self):
        buffer = SlowScanBuffer(threshold_seconds=0.5)
        assert buffer.observe("fast.pdf", 0.4) is False
        assert buffer.observe("slow.pdf", 0.6, digest="abc",
                              detail={"queue_wait": 0.1}) is True
        snap = buffer.snapshot()
        assert snap["retained"] == 1 and snap["observed"] == 2
        (entry,) = snap["entries"]
        assert entry["name"] == "slow.pdf"
        assert entry["sha256"] == "abc"
        assert entry["queue_wait"] == 0.1

    def test_rolling_p99_arms_after_min_samples(self):
        buffer = SlowScanBuffer(min_samples=10)
        # Cold buffer: nothing retained, even outliers.
        assert buffer.observe("early-outlier.pdf", 100.0) is False
        for index in range(9):
            assert buffer.observe(f"warm{index}.pdf", 0.01) is False
        # Armed now; p99 of the window is dominated by the early outlier
        # but a fresh outlier beyond it is retained.
        assert buffer.observe("slow.pdf", 200.0) is True
        assert buffer.observe("normal.pdf", 0.01) is False

    def test_ring_capacity_keeps_newest(self):
        buffer = SlowScanBuffer(capacity=2, threshold_seconds=0.0)
        for index in range(4):
            buffer.observe(f"doc{index}.pdf", float(index + 1))
        snap = buffer.snapshot()
        assert [e["name"] for e in snap["entries"]] == ["doc3.pdf", "doc2.pdf"]
        assert snap["retained"] == 4  # retained counts all, ring keeps 2

    def test_clear(self):
        buffer = SlowScanBuffer(threshold_seconds=0.0)
        buffer.observe("a.pdf", 1.0)
        buffer.clear()
        snap = buffer.snapshot()
        assert snap["entries"] == [] and snap["observed"] == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SlowScanBuffer(capacity=0)
