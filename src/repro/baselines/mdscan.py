"""MDScan baseline (Tzermias et al. [9]) — extract-and-emulate.

Statically extracts JavaScript and executes it in an *emulated*
interpreter with stubbed Acrobat objects (their instrumented
SpiderMonkey + Nemu).  Detection fires when shellcode is assembled on
the emulated heap: a NOP sled together with a payload block.

Reproduced blind spots (§II of the paper):

* document-context data is absent in emulation — shellcode referenced
  as ``this.info.title`` never materialises, so the payload check fails;
* no system-level view — droppers that do not spray (e.g.
  ``exportDataObject``) never touch the emulated heap;
* it cannot be deployed on end hosts (noted, not modelled).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.base import BaselineDetector
from repro.baselines.features import extract_js_sources, parse_sample
from repro.corpus.dataset import Sample
from repro.js.errors import JSError
from repro.js.interpreter import Host, Interpreter
from repro.js.values import JSArray, JSObject, NativeFunction, UNDEFINED
from repro.js.vm import BytecodeInterpreter
from repro.reader.payload import NOP, parse_payload

#: Emulated-heap thresholds for "shellcode present".
SLED_UNITS_REQUIRED = 16
MAX_EMULATION_STEPS = 4_000_000


class _EmulationHost(Host):
    """Collects candidate shellcode strings from the emulated heap."""


def _stub_environment(interp: Interpreter) -> JSObject:
    """Documented Acrobat objects only, with inert implementations."""

    def noop(i, t, a):  # noqa: ANN001 - native signature
        return UNDEFINED

    app = JSObject(class_name="app")
    app.set("viewerVersion", 9.0)
    for method in ("alert", "beep", "setTimeOut", "setInterval", "launchURL", "mailMsg"):
        app.set(method, NativeFunction(method, noop))
    interp.define_global("app", app)

    util = JSObject(class_name="util")
    for method in ("printf", "printd", "byteToChar"):
        util.set(method, NativeFunction(method, lambda i, t, a: ""))
    interp.define_global("util", util)

    collab = JSObject(class_name="Collab")
    for method in ("collectEmailInfo", "getIcon"):
        collab.set(method, NativeFunction(method, noop))
    interp.define_global("Collab", collab)

    doc = JSObject(class_name="Doc")
    # The emulator has no real document: metadata is empty strings.
    info = JSObject(class_name="Info")
    for key in ("Title", "title", "Author", "author", "Subject", "subject"):
        info.set(key, "")
    doc.set("info", info)
    doc.set("numPages", 1.0)
    media = JSObject()
    media.set("newPlayer", NativeFunction("newPlayer", noop))
    doc.set("media", media)
    for method in ("getAnnots", "syncAnnotScan", "getField", "exportDataObject",
                   "addScript", "setAction", "setPageAction"):
        doc.set(method, NativeFunction(method, lambda i, t, a: JSArray([])))
    # NOTE: undocumented APIs (printSeps, ...) are deliberately absent —
    # emulating them all is what the paper calls "very costly".
    interp.define_global("this", doc)
    interp.global_this = doc
    return doc


class MDScanDetector(BaselineDetector):
    name = "MDScan [9]"

    def fit(self, samples: Sequence[Sample]) -> "MDScanDetector":
        return self  # no training phase: pure dynamic analysis

    def predict(self, sample: Sample) -> bool:
        document = parse_sample(sample)
        if document is None:
            return False
        sources = extract_js_sources(document)
        if not sources:
            return False
        host = _EmulationHost()
        interp = BytecodeInterpreter(host=host, max_steps=MAX_EMULATION_STEPS)
        _stub_environment(interp)
        for code in sources:
            try:
                interp.run(code, this=interp.global_this)
            except JSError:
                continue  # extraction/emulation mismatch: script dies
        return self._heap_has_shellcode(host.spray_pool)

    @staticmethod
    def _heap_has_shellcode(heap_strings: List[str]) -> bool:
        sled = NOP * SLED_UNITS_REQUIRED
        has_sled = any(sled in text for text in heap_strings)
        if not has_sled:
            return False
        return parse_payload(heap_strings) is not None
