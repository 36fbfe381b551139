"""Seeded scan benchmark over the production scan path.

Usage, from the repository root::

    python3 perfbench/run.py --workload mixed-full --seed 0 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``mixed-full``, ``mixed-triage``, ``js-heavy`` scan their documents
  in this process through ``PipelineSettings.build().scan``, one fresh
  pipeline per pass over the documents, in a number of whole passes
  fixed by the workload and ``--seconds`` (see ``SEED_PASS_S``), and
  report each document's median latency over the passes.
* ``serve-mixed`` sends closed-loop bursts of its request stream over
  two connections to fresh ``repro serve --backend process --jobs 2``
  servers, and reports each request's best latency over the bursts.

``--trace 0`` measures the end-to-end metrics with tracing off, and
scales every time it reports to the host's reference speed with the
probe in ``hostspeed.py``.
``--trace 1`` alternates untraced and traced passes (for
``serve-mixed``: one untraced and one traced open-loop stream) and reports
per-layer self time and work counts per pass, from the outside-in
tracer in ``layers.py``.  End-to-end numbers never come from a traced
run.

Stdout is a human-readable table and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote

from hostspeed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

#: Fresh-process set-ups (server spawns) timed per run; ``setup_s`` is
#: their median.
SETUP_REPEATS = 7
SERVE_SETUP_REPEATS = 5
#: Host-speed chunks timed before each set-up (and after the last).
SPEED_SAMPLES = 5
#: Wall time of one untraced pass at the benchmark's parent commit on a
#: 2-core Xeon.  A pipeline run makes ``--seconds`` divided by this
#: many whole passes, at least ``MIN_PASSES``: the count depends on the
#: workload and ``--seconds`` only, so on every commit a document's
#: median latency is taken over the same number of scans.
SEED_PASS_S = {"mixed-full": 6.7, "mixed-triage": 2.2, "js-heavy": 4.0}
MIN_PASSES = 3
#: Closed-loop bursts of the request stream per serve run, each on a
#: fresh server (so with a cold verdict cache): ``--seconds`` over the
#: wall time of one burst at the parent commit, at least ``MIN_BURSTS``.
SEED_BURST_S = 6.0
MIN_BURSTS = 2
#: Request rate of the traced run's open-loop stream, about a fifth of
#: the parent commit's capacity.
SERVE_RATE = 16.0
SERVE_JOBS = 2
#: Per-layer rows that only the serve workload measures, with units.
SERVE_ONLY_ROWS = {
    "serve.queue_wait_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.gen_lag_ms": "ms",
    "batch.cache_hit_frac": "ratio",
    "serve.shed_frac": "ratio",
}
SERVE_CONNECTIONS = 2
REQUEST_TIMEOUT_S = 60.0


# -- results -----------------------------------------------------------------


class Tally:
    """Scans attempted, failed, and checked against the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.deviations = 0
        self.problems: List[str] = []

    def fail(self, name: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{name}: {why}")

    def verdict(self, doc: Any, malicious: bool, triaged: bool) -> None:
        from workloads import check

        outcome = check(doc, malicious, triaged)
        if outcome == "wrong":
            self.fail(doc.name, f"verdict malicious={malicious}, expected {doc.expect_malicious}")
            return
        self.attempted += 1
        if outcome == "deviation":
            self.deviations += 1

    @property
    def match_frac(self) -> float:
        return (self.attempted - self.failed - self.deviations) / max(1, self.attempted)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# -- pipeline workloads ------------------------------------------------------


def setup_pipeline(workload: str) -> Any:
    """Import, build a pipeline and scan the warm-up document once."""
    from workloads import pipeline_settings, warmup_document

    settings = pipeline_settings(workload)
    settings.build().scan(warmup_document(), "warm-up.pdf")
    return settings


def time_setups(cmd: List[str], repeats: int, probe: SpeedProbe) -> List[float]:
    """Set-up times of ``repeats`` fresh processes, at reference speed."""
    spans = []
    for _ in range(repeats):
        probe.sample(SPEED_SAMPLES)
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        spans.append((start, time.perf_counter()))
    probe.sample(SPEED_SAMPLES)
    return [probe.scaled(start, end) for start, end in spans]


def durations(spans: List[List[Tuple[float, float]]], probe: Optional[SpeedProbe]) -> List[List[float]]:
    """Each ``(start, end)`` as seconds, at reference speed with a probe."""
    if probe is None:
        return [[end - start for start, end in doc] for doc in spans]
    return [[probe.scaled(start, end, in_process=True) for start, end in doc] for doc in spans]


def scan_pass(settings: Any, docs: List[Any], tally: Tally, spans: List[List[Tuple[float, float]]]) -> float:
    """Scan every document once with a fresh pipeline.

    Appends each scan's ``(start, end)`` to ``spans[i]`` for document
    ``i`` (scans that raise get none) and returns the pass's wall time.
    """
    from repro.js.compiler import clear_code_cache

    # A fresh pipeline re-issues the same seeded keys, so without this
    # every pass after the first would find each document's wrapped
    # script already compiled, which no stream of new documents does.
    clear_code_cache()
    pipeline = settings.build()
    start = time.perf_counter()
    for doc, doc_spans in zip(docs, spans):
        began = time.perf_counter()
        try:
            report = pipeline.scan(doc.data, doc.name)
        except Exception as error:  # noqa: BLE001 - a raising scan is a failed one
            tally.fail(doc.name, f"raised {type(error).__name__}: {error}")
            continue
        doc_spans.append((began, time.perf_counter()))
        if report.errored:
            tally.fail(doc.name, f"errored: {report.error}")
        else:
            tally.verdict(doc, report.verdict.malicious, bool(getattr(report, "triaged", False)))
    return time.perf_counter() - start


def run_pipeline(args: argparse.Namespace, docs: List[Any], info: Dict[str, Any]) -> Tuple[Tally, Dict[str, Any]]:
    from layers import LayerTracer

    setup_times: List[float] = []
    # Tracing slows the scans more than the host does; traced runs keep
    # their raw times.
    probe = None if args.trace else SpeedProbe()
    if probe is not None:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", args.workload]
        setup_times = time_setups(cmd, SETUP_REPEATS, probe)
    settings = setup_pipeline(args.workload)
    inject = args.inject
    # Untraced passes carry only the injected delay, if any.
    injector = LayerTracer(inject).install(only=inject[0]) if inject else None
    tally = Tally()
    walls: List[float] = []
    spans: List[List[Tuple[float, float]]] = [[] for _ in docs]
    traced_spans: List[List[Tuple[float, float]]] = [[] for _ in docs]
    traced_walls: List[float] = []
    tracer = LayerTracer(inject)
    passes = max(MIN_PASSES, round(args.seconds / SEED_PASS_S[args.workload]))
    if args.trace:
        # The first pass in a process runs 15-30% slower; untimed here so
        # that traced and untraced passes compare like with like.
        scan_pass(settings, docs, tally, [[] for _ in docs])
        passes = max(1, round(passes / 2))
    finish = probe.in_background() if probe is not None else None
    try:
        for _ in range(passes):
            walls.append(scan_pass(settings, docs, tally, spans))
            if args.trace:
                if injector is not None:
                    injector.uninstall()
                tracer.install()
                try:
                    wall = scan_pass(settings, docs, tally, traced_spans)
                finally:
                    tracer.uninstall()
                    if injector is not None:
                        injector.install(only=inject[0])
                traced_walls.append(wall)
    finally:
        if finish is not None:
            finish()
        if injector is not None:
            injector.uninstall()

    # Each document's median latency over the run's passes, at
    # reference speed.  The median drops what the probe misses of the
    # host's swings, both ways, and the first pass of a process, which
    # runs 15-30% slower while the allocator grows its heap.  Every
    # metric below is taken over these per-document figures.
    # ``js-heavy`` has only 6 documents, so its p95 interpolates between
    # the two slowest; a p95 over its every scan was bimodal (0.74-1.3 s
    # over ten seeds) with outlier scans.
    latencies = durations(spans, probe)
    per_doc = [statistics.median(lat) for lat in latencies if lat]
    info["passes"] = len(walls)
    info["scans"] = sum(len(lat) for lat in latencies)
    info["p95_samples"] = len(per_doc)
    info["pass_walls_s"] = [round(wall, 3) for wall in walls]
    if probe is not None:
        raw = [statistics.median(lat) for lat in durations(spans, None) if lat]
        info["host_factor"] = round(probe.median_factor(), 4)
        info["raw_docs_per_s"] = round(len(raw) / sum(raw), 3)
        info["raw_p95_ms"] = round(p95(raw) * 1e3, 3)
        return tally, {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "docs_per_s": metric(len(per_doc) / sum(per_doc), "1/s"),
            "scan_p50_ms": metric(statistics.median(per_doc) * 1e3, "ms"),
            "scan_p95_ms": metric(p95(per_doc) * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "verdict_match_frac": metric(tally.match_frac, "ratio"),
        }
    layers = layer_metrics(tracer.snapshot(), len(traced_walls))
    # Nothing queues, is shed or crosses HTTP in-process.
    layers.update({name: metric(0.0, unit) for name, unit in SERVE_ONLY_ROWS.items()})
    layers.update({
        "batch.scan_ms": metric(statistics.median(per_doc) * 1e3, "ms"),
        "trace.wall_s": metric(sum(traced_walls) / len(traced_walls), "s"),
        "trace.overhead_s": metric(
            sum(statistics.median(lat) for lat in durations(traced_spans, None) if lat) - sum(per_doc), "s"
        ),
    })
    return tally, layers


def layer_metrics(snapshot: Dict[str, Dict[str, float]], passes: int) -> Dict[str, Any]:
    """Per-pass self time of every layer plus its call and work counts."""
    from layers import LAYERS

    self_s = snapshot["self_s"]
    calls = snapshot["calls"]
    counts = snapshot["counts"]
    out: Dict[str, Any] = {}
    for layer in LAYERS:
        name = "other_s" if layer == "other" else f"{layer}_s"
        out[name] = metric(self_s.get(layer, 0.0) / passes, "s")
    for layer in ("pdf.parse", "reader.parse", "pdf.serialize", "jsast.absint", "js.compile", "js.run"):
        out[f"{layer}_calls"] = metric(calls.get(layer, 0) / passes, "count")
    out["pdf.decoded_bytes"] = metric(counts.get("pdf.decoded_bytes", 0) / passes, "B")
    out["js.steps"] = metric(counts.get("js.steps", 0) / passes, "count")
    scans = max(1, counts.get("scans", 0))
    out["core.triage_decided_frac"] = metric(counts.get("triaged", 0) / scans, "ratio")
    rewrites = max(1, counts.get("rewrites", 0))
    out["core.rewrite_unused_frac"] = metric(counts.get("rewrites_unused", 0) / rewrites, "ratio")
    return out


# -- serve workload ----------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, trace_dir: Optional[Path] = None) -> None:
        options = ["--backend", "process", "--jobs", str(SERVE_JOBS), "--port", "0"]
        if trace_dir is None:
            self.cmd = [sys.executable, "-m", "repro", "serve", *options]
        else:
            self.cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(trace_dir), *options]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; seconds until ``/healthz`` answers 200."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1].rstrip("/"))
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() - start > 60:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS of every process in the server's group."""
        assert self.proc is not None
        total_kb = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
                if int(stat[stat.rindex(")") + 2:].split()[2]) != self.proc.pid:
                    continue
                for line in Path(f"/proc/{entry}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except (OSError, ValueError, IndexError):
                continue
        return total_kb / 1024

    def stop(self) -> None:
        """SIGTERM (the server drains), then sweep its process group."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def drive(
    port: int, stream: List[Any], rate: float, probe: Optional[SpeedProbe] = None,
) -> List[Tuple[float, float, float, Optional[int], Dict[str, Any]]]:
    """Open loop: request ``i`` is due at ``i / rate`` seconds.

    Each of the senders takes the next request, waits for its due time
    (no wait when it is already late), sends it on a new connection and
    blocks for the answer, so at most two connections are open.  With
    ``rate`` ``math.inf`` every request is due at once, which makes a
    closed loop of two clients.  (A kept-alive connection adds a ~40 ms
    delayed-ACK stall per request with this server, which would cap the
    rate at half.)  Returns ``(due, sent, done, status, payload)`` per
    request.  With a probe, a thread samples the host's speed meanwhile.
    """
    results: List[Any] = [None] * len(stream)
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(stream):
                return
            doc = stream[index]
            due = origin + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
            try:
                conn.request("POST", f"/scan?name={quote(doc.name)}", body=doc.data)
                response = conn.getresponse()
                status: Optional[int] = response.status
                payload = json.loads(response.read())
            except (OSError, http.client.HTTPException, ValueError) as error:
                status, payload = None, {"error": repr(error)}
            finally:
                conn.close()
            results[index] = (due, sent, time.perf_counter(), status, payload)

    threads = [threading.Thread(target=sender) for _ in range(SERVE_CONNECTIONS)]
    finish = probe.in_background() if probe is not None else None
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if finish is not None:
            finish()
    return results


def check_responses(stream: List[Any], results: List[Any], tally: Tally) -> None:
    for doc, (_, _, _, status, payload) in zip(stream, results):
        if status != 200:
            tally.fail(doc.name, f"HTTP {status}: {payload.get('error')}")
            continue
        verdict = payload["verdict"]
        if verdict.get("errored"):
            tally.fail(doc.name, f"errored: {verdict.get('error')}")
            continue
        tally.verdict(doc, bool(verdict["malicious"]), bool(verdict.get("triaged")))


def wall_s(results: List[Any]) -> float:
    """From the first request's due time to the last answer."""
    return max(r[2] for r in results) - min(r[0] for r in results)


def serve_stream_once(stream: List[Any], rate: float, trace_dir: Optional[Path] = None) -> Tuple[List[Any], float]:
    server = Server(trace_dir)
    try:
        server.start()
        results = drive(server.port, stream, rate)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return results, rss


def run_serve(args: argparse.Namespace, docs: List[Any], info: Dict[str, Any]) -> Tuple[Tally, Dict[str, Any]]:
    from layers import merge
    from workloads import serve_stream

    stream = serve_stream(docs, args.seed)
    info["requests"] = len(stream)
    tally = Tally()
    if not args.trace:
        bursts: List[List[Any]] = []
        setups = []
        rss = 0.0
        count = max(MIN_BURSTS, round(args.seconds / SEED_BURST_S))
        server = Server()
        probe = SpeedProbe()
        try:
            # Every spawn is a set-up sample; the first ``count`` also
            # serve a closed-loop burst of the stream.
            for spawn in range(max(SERVE_SETUP_REPEATS, count)):
                probe.sample(SPEED_SAMPLES)
                seconds = server.start()
                end = time.perf_counter()
                setups.append((end - seconds, end))
                if spawn < count:
                    bursts.append(drive(server.port, stream, math.inf, probe))
                    rss = max(rss, server.peak_rss_mb())
                server.stop()
        finally:
            server.stop()
        for burst in bursts:
            check_responses(stream, burst, tally)
        # Each request's best latency over the bursts, at reference speed:
        # what varies between bursts here is wake-ups across the client,
        # server and worker processes, which only add time.  With both
        # connections always busy, throughput is the connection count
        # over the mean of those latencies.
        best = [
            min(probe.scaled(sent, done) for _, sent, done, _, _ in answers)
            for answers in zip(*bursts)
            if all(status == 200 for _, _, _, status, _ in answers)
        ]
        info["host_factor"] = round(probe.median_factor(), 4)
        info["bursts"] = len(bursts)
        info["scans"] = sum(len(burst) for burst in bursts)
        info["p95_samples"] = len(best)
        info["burst_walls_s"] = [round(wall_s(burst), 3) for burst in bursts]
        info["cache_hits"] = [sum(1 for r in burst if r[3] == 200 and r[4]["cached"]) for burst in bursts]
        return tally, {
            "setup_s": metric(statistics.median(probe.scaled(*span) for span in setups), "s"),
            "docs_per_s": metric(SERVE_CONNECTIONS * len(best) / sum(best), "1/s"),
            "scan_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
            "scan_p95_ms": metric(p95(best) * 1e3, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
            "verdict_match_frac": metric(tally.match_frac, "ratio"),
        }

    # The traced run drives the stream as an open loop, which is what
    # exercises admission and the queue rows.
    rate = SERVE_RATE
    info["rate_per_s"] = rate
    plain, _ = serve_stream_once(stream, rate)
    trace_dir = WORK_DIR / f"serve-trace-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    try:
        traced, _ = serve_stream_once(stream, rate, trace_dir)
        snapshots = [json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json"))]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    check_responses(stream, plain, tally)
    check_responses(stream, traced, tally)
    layers = layer_metrics(merge(snapshots), 1)
    rows = serve_rows(plain)
    layers.update({name: metric(rows[name], unit) for name, unit in SERVE_ONLY_ROWS.items()})
    layers.update({
        "batch.scan_ms": metric(rows["batch.scan_ms"], "ms"),
        "trace.wall_s": metric(sum_seconds(traced), "s"),
        "trace.overhead_s": metric(sum_seconds(traced) - sum_seconds(plain), "s"),
    })
    info["scans"] = len(plain) + len(traced)
    return tally, layers


def sum_seconds(results: List[Any]) -> float:
    """Worker scan time summed over the requests not answered from cache."""
    return sum(r[4]["seconds"] for r in results if r[3] == 200 and not r[4]["cached"])


def serve_rows(results: List[Any]) -> Dict[str, float]:
    """Per-response serve rows: medians over scanned requests, the
    generator's p95 lateness, and the cache and shed shares."""
    ok = [r for r in results if r[3] == 200]
    fresh = [r for r in ok if not r[4]["cached"]]
    overheads = [
        (done - sent - payload["queue_wait"] - payload["seconds"]) * 1e3
        for _, sent, done, _, payload in fresh
    ]
    return {
        "serve.queue_wait_ms": statistics.median(r[4]["queue_wait"] * 1e3 for r in fresh),
        "batch.scan_ms": statistics.median(r[4]["seconds"] * 1e3 for r in fresh),
        "serve.overhead_ms": statistics.median(overheads),
        "serve.gen_lag_ms": p95([(sent - due) * 1e3 for due, sent, _, _, _ in results]),
        "batch.cache_hit_frac": (len(ok) - len(fresh)) / max(1, len(ok)),
        "serve.shed_frac": sum(1 for r in results if r[3] in (429, 503)) / len(results),
    }


# -- entry point -------------------------------------------------------------


def run_info(args: argparse.Namespace) -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git (as benchmarked) has no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
    }


def parse_inject(text: str) -> Tuple[str, float]:
    layer, _, seconds = text.partition(":")
    return layer, float(seconds)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", type=parse_inject, metavar="LAYER:SECONDS",
        help="spin SECONDS inside every call of LAYER (benchmark self-test)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_pipeline(args.workload)
        return 0
    if args.workload == "serve-mixed" and args.inject:
        print("error: --inject applies to the in-process workloads only", file=sys.stderr)
        return 2

    from workloads import documents

    info = run_info(args)
    docs = documents(args.workload, args.seed)
    info["documents"] = len(docs)
    runner = run_serve if args.workload == "serve-mixed" else run_pipeline
    tally, metrics = runner(args, docs, info)
    # The known crash-class deviation (see ``workloads.check``) counts
    # as a failure here but not in the result line's ``failed``, so that
    # ``correct`` reports only verdicts the oracle does not explain.
    info["failed_frac"] = (tally.failed + tally.deviations) / max(1, tally.attempted)
    info["known_deviations"] = tally.deviations
    info["problems"] = tally.problems

    print(f"run: {json.dumps(info)}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
