"""The stand-alone runtime monitor + detector (Phase II, §III-D/E).

Consumes two streams:

* **context events** from the context monitoring code via the tiny
  SOAP server (``enter``/``leave`` with the per-document key), and
* **syscall events** from the hook DLL inside the reader process.

and maintains a per-document :class:`DocumentScoreState`.  Operations
captured while a JS context is open are attributed to that document
(in-JS features F8–F13); process creation / DLL injection outside any
JS context contribute to *every* activated document (out-JS features
F6–F7).  Memory counters are sampled at context entry, at every in-JS
sensitive API, and at context exit.

Detection workflow (Figure 4): sensitive operations are ignored until
at least one in-JS operation is captured from an unknown PDF; from then
on everything is recorded and the malscore re-evaluated after every
critical operation, raising an alert (and firing the detector-side
confinement of Table III) the moment it crosses the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs as obs_mod
from repro.core.detector import (
    DetectorConfig,
    DocumentScoreState,
    FEATURE_NAMES,
    F_DROP,
    F_MEMORY,
    F_PROCESS,
    IN_JS_CATEGORY_FEATURE,
    MalscoreDetector,
    OUT_JS_CATEGORY_FEATURE,
    Verdict,
)
from repro.core.keys import KeyStore
from repro.core.monitor_code import SOAP_PORT
from repro.core.static_features import StaticFeatures
from repro.winapi.filesystem import FileSystem
from repro.winapi.hooks import DETECTOR_EVENT_PORT
from repro.winapi.process import Process, System
from repro.winapi.sandbox import Sandbox
from repro.winapi.syscalls import SyscallEvent


@dataclass
class Alert:
    """Raised the moment a document's malscore crosses the threshold."""

    verdict: Verdict
    time: float
    confinement_actions: List[str] = field(default_factory=list)


class RuntimeMonitor:
    """Back-end component: context tracking, scoring, confinement."""

    def __init__(
        self,
        key_store: KeyStore,
        system: System,
        config: Optional[DetectorConfig] = None,
        sandbox: Optional[Sandbox] = None,
        whitelisted_ports: Tuple[int, ...] = (SOAP_PORT, DETECTOR_EVENT_PORT),
        obs: Optional[obs_mod.Observability] = None,
    ) -> None:
        self.key_store = key_store
        self.system = system
        self.obs = obs if obs is not None else obs_mod.get_default()
        self.config = config if config is not None else DetectorConfig()
        self.detector = MalscoreDetector(self.config)
        self.sandbox = sandbox if sandbox is not None else Sandbox(system)
        self.whitelisted_ports = set(whitelisted_ports)

        self.states: Dict[str, DocumentScoreState] = {}
        self.static_registry: Dict[str, Tuple[str, Optional[StaticFeatures]]] = {}
        self.reader_process: Optional[Process] = None

        # Context tracking (single-threaded reader: a stack suffices and
        # depth > 1 only happens for nested dynamic-script wrapping).
        self._context_stack: List[Tuple[str, int]] = []  # (key, mem_at_entry)

        #: Executables downloaded in JS context — persistent across
        #: reader sessions (§III-E, cross-document collusion handling).
        self.downloaded_executables: Dict[str, str] = {}  # path -> downloader key

        self.alerts: List[Alert] = []
        self.fake_messages: List[Dict[str, Any]] = []
        self.ignored_events: int = 0
        self._sandboxed: List[Tuple[Process, Optional[str]]] = []

    # -- wiring ------------------------------------------------------------

    def attach_reader_process(self, process: Process) -> None:
        self.reader_process = process

    def register_document(
        self, key_text: str, name: str, static: Optional[StaticFeatures]
    ) -> None:
        """Pre-register a protected document's static features."""
        self.static_registry[key_text] = (name, static)
        if static is not None and self.obs.enabled:
            # The front-end's F1–F5 never pass through the runtime
            # recorders, so the event stream covers them here.
            for feature, bit in enumerate(static.binary(), start=1):
                if bit:
                    self.obs.tracer.event(
                        "feature_fired",
                        feature=f"F{feature}",
                        feature_name=FEATURE_NAMES[feature],
                        context="static",
                        document=name,
                    )
                    self.obs.metrics.inc("features_fired", feature=f"F{feature}")

    def handle_syscall_channel(self, message: object) -> None:
        """Subscriber callback for the hook-DLL event channel."""
        if isinstance(message, SyscallEvent):
            self.handle_syscall(message)

    # -- telemetry-aware recording wrappers --------------------------------

    def _fire_in_js(
        self, state: DocumentScoreState, feature: int, description: str
    ) -> None:
        """Record an in-JS feature, emitting a ``feature_fired`` event
        the first time it fires for this document."""
        newly_fired = feature not in state.fired
        state.record_in_js(feature, description)
        if newly_fired and self.obs.enabled:
            self.obs.tracer.event(
                "feature_fired",
                feature=f"F{feature}",
                feature_name=FEATURE_NAMES[feature],
                context="in_js",
                document=state.document,
            )
            self.obs.metrics.inc("features_fired", feature=f"F{feature}")

    def _fire_out_js(
        self, state: DocumentScoreState, feature: int, description: str
    ) -> None:
        newly_fired = feature not in state.fired
        state.record_out_js(feature, description)
        if newly_fired and self.obs.enabled:
            self.obs.tracer.event(
                "feature_fired",
                feature=f"F{feature}",
                feature_name=FEATURE_NAMES[feature],
                context="out_js",
                document=state.document,
            )
            self.obs.metrics.inc("features_fired", feature=f"F{feature}")

    # -- ContextSink (SOAP) ----------------------------------------------------

    @property
    def active_key(self) -> Optional[str]:
        return self._context_stack[-1][0] if self._context_stack else None

    def on_context_enter(self, key_text: str, seq: int, dynamic: bool) -> bool:
        name = self.key_store.validate(key_text)
        if name is None:
            self.on_fake_message({"ctx": "enter", "key": key_text, "seq": seq})
            return False
        self._ensure_state(key_text, name)
        self._context_stack.append((key_text, self._memory_now()))
        return True

    def on_context_leave(self, key_text: str, seq: int, dynamic: bool) -> None:
        name = self.key_store.validate(key_text)
        if name is None:
            self.on_fake_message({"ctx": "leave", "key": key_text, "seq": seq})
            return
        if not self._context_stack or self._context_stack[-1][0] != key_text:
            # A leave with a valid key but no matching enter is a replay
            # attempt: zero tolerance.
            self.on_fake_message({"ctx": "leave", "key": key_text, "seq": seq})
            return
        _key, mem_at_entry = self._context_stack.pop()
        state = self._ensure_state(key_text, name)
        self._check_memory(state, mem_at_entry, self._memory_now(), "context exit")
        self._evaluate(state)

    def on_fake_message(self, raw: Dict[str, Any]) -> None:
        """Zero tolerance: the active document is tagged malicious."""
        self.fake_messages.append(dict(raw))
        active = self.active_key
        if self.obs.enabled:
            self.obs.tracer.event(
                "fake_message", active_key=active, ctx=str(raw.get("ctx"))
            )
            self.obs.metrics.inc("fake_messages")
        if active is not None and active in self.states:
            state = self.states[active]
            state.fake_message = True
            state.activated = True
            state.operation_log.append(f"fake SOAP message: {raw!r}")
            self._evaluate(state)

    # -- syscall stream ------------------------------------------------------------

    def handle_syscall(self, event: SyscallEvent) -> None:
        if self._is_whitelisted_channel(event):
            self.ignored_events += 1
            return
        active = self.active_key
        if self.obs.enabled:
            context = "in_js" if active is not None else "out_js"
            self.obs.tracer.event(
                "syscall",
                api=event.api,
                category=event.category,
                context=context,
                pid=event.pid,
                seq=event.seq,
            )
            self.obs.metrics.inc("syscalls", context=context, category=event.category)
        if active is not None:
            self._handle_in_js(self.states[active], event)
        else:
            self._handle_out_js(event)

    def _is_whitelisted_channel(self, event: SyscallEvent) -> bool:
        """Detector ↔ monitoring-code communications are white-listed."""
        if event.category != "network":
            return False
        host = str(event.args.get("host", ""))
        port = int(event.args.get("port", 0))
        return host in ("127.0.0.1", "localhost") and port in self.whitelisted_ports

    def _handle_in_js(self, state: DocumentScoreState, event: SyscallEvent) -> None:
        feature = IN_JS_CATEGORY_FEATURE.get(event.category)
        if feature is None:
            return
        description = self._describe(event)
        self._fire_in_js(state, feature, description)

        if event.category == "malware_drop":
            path = FileSystem.normalize(str(event.args.get("path", "")))
            state.dropped_paths.append(path)
            if FileSystem.is_executable(path):
                self.downloaded_executables[path] = state.key_text

        if event.category == "process_create":
            image = FileSystem.normalize(str(event.args.get("image", "")))
            self._sandbox_target(event, state.key_text)
            downloader = self.downloaded_executables.get(image)
            if downloader is not None and downloader != state.key_text:
                # Cross-document collusion (§III-E): prepend a malware
                # dropping op for this PDF and append an execution op
                # for the PDF that downloaded the file.
                self._fire_in_js(state, F_DROP, f"collusion: executes {image} dropped by peer")
                other = self.states.get(downloader)
                if other is not None:
                    self._fire_in_js(other, F_PROCESS, f"collusion: its download {image} executed")
                    self._evaluate(other)

        # Memory is also sampled when in-JS sensitive APIs are captured.
        if self._context_stack:
            _key, mem_at_entry = self._context_stack[-1]
            self._check_memory(state, mem_at_entry, event.memory_private_usage, description)
        self._evaluate(state)

    def _handle_out_js(self, event: SyscallEvent) -> None:
        feature = OUT_JS_CATEGORY_FEATURE.get(event.category)
        if feature is None:
            self.ignored_events += 1
            return
        if event.category == "process_create":
            image = str(event.args.get("image", ""))
            base = image.split("\\")[-1]
            if self.system.is_whitelisted_program(base) or self.system.is_whitelisted_program(image):
                self.ignored_events += 1
                return
            self._sandbox_target(event, None)
        description = self._describe(event)
        # Out-JS operations contribute to every active (activated) malscore.
        affected = [s for s in self.states.values() if s.activated]
        if not affected:
            self.ignored_events += 1  # nothing activated yet: ignored
            return
        for state in affected:
            self._fire_out_js(state, feature, description)
            self._evaluate(state)

    # -- helpers ------------------------------------------------------------------------

    def _ensure_state(self, key_text: str, name: str) -> DocumentScoreState:
        state = self.states.get(key_text)
        if state is None:
            registered_name, static = self.static_registry.get(key_text, (name, None))
            state = DocumentScoreState(key_text, registered_name or name, static)
            self.states[key_text] = state
        return state

    def _memory_now(self) -> int:
        if self.reader_process is not None:
            return self.reader_process.memory_counters().private_usage
        return 0

    def _check_memory(
        self, state: DocumentScoreState, at_entry: int, now: int, where: str
    ) -> None:
        delta = now - at_entry
        if delta >= self.config.memory_threshold_bytes:
            self._fire_in_js(
                state, F_MEMORY, f"memory +{delta >> 20} MB in JS context ({where})"
            )

    @staticmethod
    def _describe(event: SyscallEvent) -> str:
        detail = (
            event.args.get("path")
            or event.args.get("image")
            or event.args.get("host")
            or event.args.get("dll")
            or event.args.get("address")
            or ""
        )
        return f"{event.api}({detail})"

    def _sandbox_target(self, event: SyscallEvent, owner_key: Optional[str]) -> None:
        """Table III: the hook DLL rejected the creation; the detector
        re-launches the target inside Sandboxie."""
        image = str(event.args.get("image", "unknown.exe"))
        child = self.sandbox.run(image, command_line=str(event.args.get("command_line", image)))
        self._sandboxed.append((child, owner_key))

    # -- evaluation & confinement ----------------------------------------------------------

    def _evaluate(self, state: DocumentScoreState) -> Verdict:
        verdict = self.detector.evaluate(state)
        if verdict.malicious:
            if not state.alerted:
                state.alerted = True
                actions = self._confine_on_alert(state)
                self.alerts.append(
                    Alert(
                        verdict=verdict,
                        time=self.system.clock.now(),
                        confinement_actions=actions,
                    )
                )
                if self.obs.enabled:
                    self.obs.tracer.event(
                        "alert",
                        document=state.document,
                        malscore=verdict.malscore,
                    )
                    self.obs.metrics.inc("alerts")
            else:
                # Re-run confinement: operations arriving after the alert
                # (a drop the hook already let through, a sandboxed child
                # spawned later) must be contained too.
                late_actions = self._confine_on_alert(state)
                if late_actions and self.alerts:
                    self.alerts[-1].confinement_actions.extend(late_actions)
        return verdict

    def _confine_on_alert(self, state: DocumentScoreState) -> List[str]:
        actions: List[str] = []
        fs = self.system.filesystem
        for path in state.dropped_paths:
            if fs.quarantine(path):
                actions.append(f"quarantined {path}")
        for path, owner in list(self.downloaded_executables.items()):
            if owner == state.key_text and fs.quarantine(path):
                actions.append(f"quarantined downloaded executable {path}")
        for child, owner in self._sandboxed:
            if owner in (state.key_text, None) and child.alive:
                self.sandbox.terminate_and_isolate(
                    child, reason=f"alert on {state.document}"
                )
                actions.append(f"terminated sandboxed {child.name} (pid {child.pid})")
        if actions and self.obs.enabled:
            for action in actions:
                self.obs.tracer.event(
                    "confinement", action=action, document=state.document
                )
            self.obs.metrics.inc("confinement_actions", len(actions))
        return actions

    # -- verdicts / lifecycle ------------------------------------------------------

    def verdict_for(self, key_text: str) -> Verdict:
        state = self.states.get(key_text)
        if state is None:
            registered = self.static_registry.get(key_text)
            name = registered[0] if registered else "unknown"
            static = registered[1] if registered else None
            state = DocumentScoreState(key_text, name, static)
        return self.detector.evaluate(state)

    def on_reader_closed(self) -> None:
        """Malscore is volatile (per session); the executable list is not."""
        self.states.clear()
        self._context_stack.clear()
        self._sandboxed.clear()
