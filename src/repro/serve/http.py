"""HTTP front-end for the scan service (stdlib only).

A deliberately thin layer over :class:`~repro.serve.app.ScanService`:
``ThreadingHTTPServer`` gives one handler thread per connection, the
handler decodes the request into a service call and encodes the
:class:`~repro.serve.app.ServeResult` back as JSON.  All throttling
lives in the admission controller — the HTTP layer's only defence is a
request-body size cap (413) so a hostile upload cannot balloon memory
before admission even sees it.

Endpoints
---------
``POST /scan``
    Body = raw PDF bytes.  Query: ``name=<label>``,
    ``limits=<k=v,...>`` (same grammar as ``repro scan --limits``),
    ``mode=async`` to get ``202 {"job": ...}`` instead of blocking,
    ``nocache=1`` to bypass the verdict cache (cache hits answer with
    ``"report": null`` — opt out when the full OpenReport is needed).
``POST /batch``
    JSON body ``{"items": [{"name": ..., "data_b64": ...}, ...],
    "limits": "..."}``; multi-status response.
``GET /healthz``
    200 while serving, 503 while draining.
``GET /metrics``
    Admission/job/cache gauges + obs counters as JSON;
    ``?format=prometheus`` returns text exposition format 0.0.4
    instead (scrape-ready ``_bucket``/``_sum``/``_count`` histograms).
``GET /debug/slow``
    Slow-scan exemplars retained by the service's ring buffer (full
    span trees for scans over the latency threshold or rolling p99).
``GET /jobs/<id>``
    Async job state / result.

Shed responses (429/503) carry a ``Retry-After`` header.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.app import ScanService, ServeResult

#: Largest request body accepted (pre-admission defence; PDFs the
#: pipeline is willing to scan are far smaller).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ScanRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning server's :class:`ScanService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Headers and body leave in two writes; with Nagle on, the body
    #: waits for the client's delayed ACK on a kept-alive connection.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> ScanService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # Access logging goes through obs metrics, not stderr noise.
        pass

    def _send(self, result: ServeResult) -> None:
        body = json.dumps(result.payload).encode("utf-8")
        self.send_response(result.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if result.retry_after is not None:
            self.send_header("Retry-After", str(math.ceil(result.retry_after)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """Read the request body; None (413 already sent) when too big."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length < 0:
            length = 0
        if length > self.max_body_bytes():
            self._send(ServeResult(413, {
                "error": f"request body exceeds {self.max_body_bytes()} bytes",
            }))
            return None
        return self.rfile.read(length) if length else b""

    def max_body_bytes(self) -> int:
        return getattr(self.server, "max_body_bytes", MAX_BODY_BYTES)

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parts.query).items()
        }
        return parts.path.rstrip("/") or "/", query

    # -- verbs -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        path, query = self._route()
        body = self._read_body()
        if body is None:
            return
        if path == "/scan":
            name = query.get("name", "document.pdf")
            limits = query.get("limits")
            use_cache = query.get("nocache", "") not in ("1", "true", "yes")
            if query.get("mode") == "async":
                self._send(self.service.handle_async_submit(
                    body, name, limits, use_cache
                ))
            else:
                self._send(self.service.handle_scan(
                    body, name, limits, use_cache
                ))
        elif path == "/batch":
            self._send(self._handle_batch(body))
        else:
            self._send(ServeResult(404, {"error": f"no such endpoint {path}"}))

    def do_GET(self) -> None:  # noqa: N802
        path, query = self._route()
        if path == "/healthz":
            self._send(self.service.health())
        elif path == "/metrics":
            if query.get("format") == "prometheus":
                self._send_text(
                    self.service.metrics_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send(self.service.metrics())
        elif path == "/debug/slow":
            self._send(self.service.debug_slow())
        elif path.startswith("/jobs/"):
            self._send(self.service.handle_job_status(path[len("/jobs/"):]))
        else:
            self._send(ServeResult(404, {"error": f"no such endpoint {path}"}))

    # -- batch decoding ----------------------------------------------------

    def _handle_batch(self, body: bytes) -> ServeResult:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            return ServeResult(400, {"error": f"bad JSON body: {error}"})
        raw_items = payload.get("items") if isinstance(payload, dict) else None
        if not isinstance(raw_items, list) or not raw_items:
            return ServeResult(
                400, {"error": "body must be {\"items\": [{name, data_b64}, ...]}"}
            )
        items = []
        for position, entry in enumerate(raw_items):
            if not isinstance(entry, dict) or "data_b64" not in entry:
                return ServeResult(
                    400, {"error": f"items[{position}] missing data_b64"}
                )
            try:
                data = base64.b64decode(entry["data_b64"], validate=True)
            except (binascii.Error, ValueError) as error:
                return ServeResult(
                    400, {"error": f"items[{position}] bad base64: {error}"}
                )
            items.append((str(entry.get("name", f"item-{position}.pdf")), data))
        limits = payload.get("limits") if isinstance(payload, dict) else None
        return self.service.handle_batch(items, limits)


class ScanHTTPServer(ThreadingHTTPServer):
    """One scan service behind a threading HTTP listener."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: ScanService,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        super().__init__(address, ScanRequestHandler)
        self.service = service
        self.max_body_bytes = max_body_bytes

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


class ServerHandle:
    """A server + its background accept thread (tests and the CLI).

    ``with start_server(service) as handle: ...`` boots on an ephemeral
    port and guarantees drain + socket teardown on exit.
    """

    def __init__(self, server: ScanHTTPServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def service(self) -> ScanService:
        return self.server.service

    def stop(self, drain_timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting, drain in-flight work, close the socket."""
        self.server.shutdown()
        self.thread.join(timeout=10.0)
        idle = self.service.drain(drain_timeout)
        self.server.server_close()
        return idle

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def start_server(
    service: ScanService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> ServerHandle:
    """Boot ``service`` on ``host:port`` (0 = ephemeral) in a thread."""
    service.start()
    server = ScanHTTPServer((host, port), service, max_body_bytes=max_body_bytes)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept", daemon=True
    )
    thread.start()
    return ServerHandle(server, thread)
