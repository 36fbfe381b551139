"""The front-end: static analysis + document instrumentation (Phase I).

Pipeline per document (§III-A):

1. **Parse & decompress** — full structural parse; every stream's
   filter cascade is decoded (this dominates cost on large files, as
   Table X reports).  Owner-password encryption is removed first.
2. **Feature extraction** — JavaScript chain reconstruction and the
   five static features.
3. **Instrumentation** — every *triggered* script is replaced by
   context monitoring code wrapping the encrypted original.  Scripts
   invoked sequentially through ``/Next`` are enclosed by one single
   monitoring wrapper (§III-C); scripts installed at runtime are
   covered by the generated method wrappers.

Steps 1-2 (plus the static JS analysis) are the *analyse* step and
step 3 is the *rewrite* step.  :meth:`Instrumenter.instrument` runs
both; a caller that can decide the document from the analysis alone
(the scan pipeline's triage) passes ``rewrite`` to skip step 3.

Each phase runs inside a tracer span (``instrument.parse``,
``instrument.features``, ``instrument.rewrite``, nested under one
``instrument.document`` root per document); spans are timed with a
real monotonic clock so the Table X/XI benchmarks report genuine
front-end cost on this machine.  :class:`PhaseTimings` is a derived
view over those span durations, kept for callers that only need the
three Table X columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro import obs as obs_mod
from repro.limits import ResourceLimitExceeded

from repro.core import monitor_code as mc
from repro.core.chains import ChainAnalysis, analyze_chains
from repro.core.deinstrument import (
    MARKER_KEY,
    DeinstrumentationSpec,
    ScriptRestoreEntry,
)
from repro.core.keys import InstrumentationKey, KeyStore, fingerprint
from repro.core.static_features import StaticFeatures, extract_static_features
from repro.jsast.analyzer import DocumentJSAnalysis, analyze_document
from repro.pdf import encryption as pdf_encryption
from repro.pdf.document import JavascriptAction, PDFDocument
from repro.pdf.objects import PDFDict, PDFName, PDFRef, PDFStream, PDFString

#: Table IV: methods that add scripts at runtime (static scan records
#: their presence; the generated wrappers neutralise them at runtime).
RUNTIME_SCRIPT_METHODS = (
    "addScript",
    "setAction",
    "setPageAction",
    "bookmarkRoot",  # Bookmark.setAction is reached through bookmarkRoot
    "setTimeOut",
    "setInterval",
)

_RUNTIME_METHOD_RE = re.compile(
    r"\b(" + "|".join(RUNTIME_SCRIPT_METHODS) + r")\b"
)


def find_runtime_script_methods(code: str) -> List[str]:
    """Static scan for Table IV methods + delayed-execution methods."""
    return sorted(set(_RUNTIME_METHOD_RE.findall(code)))


@dataclass
class PhaseTimings:
    """Wall-clock seconds per front-end phase (Table X columns)."""

    parse_decompress: float = 0.0
    feature_extraction: float = 0.0
    instrumentation: float = 0.0

    @property
    def total(self) -> float:
        return self.parse_decompress + self.feature_extraction + self.instrumentation


@dataclass
class InstrumentationResult:
    """Output of the front-end for one document."""

    data: bytes
    key_text: str
    features: StaticFeatures
    chains: ChainAnalysis
    spec: DeinstrumentationSpec
    timings: PhaseTimings
    instrumented_scripts: int
    merged_sequential_scripts: int
    object_count: int
    input_size: int
    already_instrumented: bool = False
    was_encrypted: bool = False
    runtime_script_methods: List[str] = field(default_factory=list)
    #: Static JS analysis over the *original* (pre-wrap) scripts; None
    #: when the document was already instrumented (originals encrypted).
    js_analysis: Optional[DocumentJSAnalysis] = None
    #: Recursively instrumented embedded PDF documents (§VI extension).
    embedded: List["InstrumentationResult"] = field(default_factory=list)

    @property
    def has_javascript(self) -> bool:
        return self.features.has_javascript

    @property
    def triage_eligible(self) -> bool:
        """May Phase-II emulation be skipped for this document?

        Requires a completed static analysis (an already-instrumented
        input hides its original scripts, so no) that found no
        suspicious scripts, no side-effect APIs, no parse errors and no
        active document content.  A document with no JavaScript at all
        satisfies all of that trivially.
        """
        return self.js_analysis is not None and self.js_analysis.triage_eligible

    @property
    def triage_proven_malicious(self) -> bool:
        """Did abstract interpretation *prove* a script in this document
        reaches detector-flagged behaviour?  When true, Phase-II can be
        skipped in the other direction: the verdict is malicious."""
        return self.js_analysis is not None and self.js_analysis.proven_malicious

    @property
    def triage_fail_open_reason(self) -> str:
        """Why this document falls through to full emulation (``""``
        when it is triageable in either direction)."""
        if self.js_analysis is None:
            return "already-instrumented"
        if self.triage_proven_malicious:
            return ""
        return self.js_analysis.triage_fail_open_reason


@dataclass
class DocumentAnalysis:
    """Output of the analyse step: the parsed, decrypted, decompressed
    document plus everything learnt from it before any rewrite.

    The rewrite step mutates :attr:`document` in place, so after
    :meth:`Instrumenter.instrument` returns it is the instrumented
    document (or the untouched input, when nothing was rewritten).
    """

    data: bytes
    name: str
    document: PDFDocument
    was_encrypted: bool
    already_instrumented: bool
    chains: ChainAnalysis
    features: StaticFeatures
    timings: PhaseTimings
    #: None when the document was already instrumented.
    js_analysis: Optional[DocumentJSAnalysis]


class Instrumenter:
    """Phase-I front-end component."""

    def __init__(
        self,
        key_store: Optional[KeyStore] = None,
        soap_url: str = mc.SOAP_URL,
        fake_copies: int = 2,
        wrap_dynamic_methods: bool = True,
        instrument_embedded: bool = True,
        seed: Optional[int] = None,
        obs: Optional[obs_mod.Observability] = None,
    ) -> None:
        self.key_store = key_store if key_store is not None else KeyStore.create(seed)
        self.soap_url = soap_url
        self.fake_copies = fake_copies
        self.wrap_dynamic_methods = wrap_dynamic_methods
        self.instrument_embedded = instrument_embedded
        self.seed = seed
        self.obs = obs if obs is not None else obs_mod.get_default()

    # -- public API ------------------------------------------------------

    def instrument(
        self,
        data: bytes,
        name: str = "document.pdf",
        output: str = "rewrite",
        _depth: int = 0,
        rewrite: Optional[Callable[[DocumentAnalysis], bool]] = None,
    ) -> InstrumentationResult:
        """Run the full front-end over raw PDF bytes.

        ``output`` selects the serialisation strategy: ``"rewrite"``
        re-emits the whole document; ``"incremental"`` appends an
        incremental update carrying only the touched objects — the
        original bytes stay intact (signed/large documents) and the
        cost no longer scales with file size.

        ``rewrite`` is consulted between the analyse and the rewrite
        step.  When it returns False the document is not rewritten: its
        key (and those of its embedded PDFs) is still issued, so every
        later key stays the same, but ``data`` is the input bytes and no
        script is wrapped.  It may keep ``analysis.document``, which is
        the rewritten document once this call returns.
        """
        if output not in ("rewrite", "incremental"):
            raise ValueError(f"unknown output mode {output!r}")

        with self.obs.tracer.span(
            "instrument.document", document=name, bytes=len(data), depth=_depth
        ) as doc_span:
            analysis = self._analyse(data, name)
            rewritten = rewrite is None or rewrite(analysis)
            if rewritten:
                result = self._rewrite(analysis, output, _depth)
            else:
                result = self._issue_keys(analysis, _depth)

            doc_span.set_tag("scripts", result.instrumented_scripts)
            doc_span.set_tag("chains", len(analysis.chains.chains))
            doc_span.set_tag("triage_eligible", result.triage_eligible)
            if self.obs.enabled:
                metrics = self.obs.metrics
                metrics.inc("js_chains_found", len(analysis.chains.chains))
                if rewritten:
                    metrics.inc("docs_instrumented")
                    metrics.inc("scripts_instrumented", result.instrumented_scripts)
        return result

    # -- the two steps ------------------------------------------------------

    def _analyse(self, data: bytes, name: str) -> DocumentAnalysis:
        """Parse, decrypt, decompress, extract features, analyse the JS."""
        tracer = self.obs.tracer
        timings = PhaseTimings()
        with tracer.span("instrument.parse") as parse_span:
            document = PDFDocument.from_bytes(data)
            was_encrypted = False
            if "Encrypt" in document.trailer:
                pdf_encryption.remove_owner_password(document)
                was_encrypted = True
            self._decompress_all(document)
        timings.parse_decompress = parse_span.duration

        with tracer.span("instrument.features") as features_span:
            chains = analyze_chains(document)
            features = extract_static_features(document, chains=chains)
        timings.feature_extraction = features_span.duration

        already = self._is_instrumented_by_us(document)
        js_analysis: Optional[DocumentJSAnalysis] = None
        if not already:
            # Static JS analysis runs over the *original* scripts,
            # before monitor-wrapping obscures them.
            with tracer.span("instrument.jsast", document=name):
                js_analysis = analyze_document(document, obs=self.obs)
        return DocumentAnalysis(
            data=data,
            name=name,
            document=document,
            was_encrypted=was_encrypted,
            already_instrumented=already,
            chains=chains,
            features=features,
            timings=timings,
            js_analysis=js_analysis,
        )

    def _rewrite(
        self, analysis: DocumentAnalysis, output: str, depth: int
    ) -> InstrumentationResult:
        """Issue the key, wrap the scripts, instrument embedded PDFs and
        serialise."""
        data, name, document = analysis.data, analysis.name, analysis.document
        with self.obs.tracer.span("instrument.rewrite") as rewrite_span:
            key = self.key_store.issue(name, fingerprint(data))
            spec = DeinstrumentationSpec(key_text=key.render(), document_name=name)
            instrumented = 0
            merged = 0
            methods: Set[str] = set()
            embedded: List[InstrumentationResult] = []
            if not analysis.already_instrumented:
                max_num_before = max(
                    (ref.num for ref in document.store.objects), default=0
                )
                instrumented, merged, methods, changed = self._instrument_document(
                    document, key, spec
                )
                if self.instrument_embedded and depth < 2:
                    embedded = self._instrument_embedded_pdfs(document, name, depth)
                    changed.update(
                        entry.ref
                        for entry in document.store
                        if isinstance(entry.value, PDFStream)
                        and str(entry.value.dictionary.get("Type", "")) == "EmbeddedFile"
                    )
                if not (instrumented or embedded):
                    out_data = data
                elif output == "incremental" and not analysis.was_encrypted:
                    from repro.pdf.writer import write_incremental_update

                    changed.update(
                        entry.ref
                        for entry in document.store
                        if entry.num > max_num_before
                    )
                    out_data = write_incremental_update(
                        data, document.store, document.trailer, changed
                    )
                else:
                    out_data = document.to_bytes()
            else:
                out_data = data
        analysis.timings.instrumentation = rewrite_span.duration
        return self._result(
            analysis, key, spec, out_data, instrumented, merged, methods, embedded
        )

    def _issue_keys(
        self, analysis: DocumentAnalysis, depth: int
    ) -> InstrumentationResult:
        """Everything :meth:`_rewrite` leaves in the key store, without
        the rewrite: the document's key, then the keys of the embedded
        PDFs it would have instrumented, in the same order."""
        key = self.key_store.issue(analysis.name, fingerprint(analysis.data))
        if (
            not analysis.already_instrumented
            and self.instrument_embedded
            and depth < 2
        ):
            for _stream, payload, sub_name in self._embedded_pdfs(
                analysis.document, analysis.name
            ):
                try:
                    self.instrument(
                        payload, sub_name, _depth=depth + 1, rewrite=lambda _: False
                    )
                except ResourceLimitExceeded:
                    raise
                except Exception:  # noqa: BLE001 - corrupt inner document
                    continue
        spec = DeinstrumentationSpec(key_text=key.render(), document_name=analysis.name)
        return self._result(analysis, key, spec, analysis.data)

    @staticmethod
    def _result(
        analysis: DocumentAnalysis,
        key: InstrumentationKey,
        spec: DeinstrumentationSpec,
        out_data: bytes,
        instrumented: int = 0,
        merged: int = 0,
        methods: Optional[Set[str]] = None,
        embedded: Optional[List[InstrumentationResult]] = None,
    ) -> InstrumentationResult:
        return InstrumentationResult(
            data=out_data,
            key_text=key.render(),
            features=analysis.features,
            chains=analysis.chains,
            spec=spec,
            timings=analysis.timings,
            instrumented_scripts=instrumented,
            merged_sequential_scripts=merged,
            object_count=len(analysis.document.store),
            input_size=len(analysis.data),
            already_instrumented=analysis.already_instrumented,
            was_encrypted=analysis.was_encrypted,
            runtime_script_methods=sorted(methods or ()),
            js_analysis=analysis.js_analysis,
            embedded=embedded or [],
        )

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _decompress_all(document: PDFDocument) -> None:
        """Force-decode every stream (the paper's decompress step)."""
        for entry in document.store:
            value = entry.value
            if isinstance(value, PDFStream):
                try:
                    value.decoded_data()
                except ResourceLimitExceeded:
                    # A blown scan budget (decompression bomb, deadline)
                    # must abort the whole scan, not skip one stream.
                    raise
                except Exception:  # noqa: BLE001 - undecodable ≠ fatal
                    continue

    @staticmethod
    def _is_instrumented_by_us(document: PDFDocument) -> bool:
        return MARKER_KEY in document.catalog

    @staticmethod
    def _embedded_pdfs(
        document: PDFDocument, host_name: str
    ) -> Iterator[Tuple[PDFStream, bytes, str]]:
        """Each attached PDF file as ``(stream, payload, name)``."""
        counter = 0
        for entry in document.store:
            value = entry.value
            if not isinstance(value, PDFStream):
                continue
            if str(value.dictionary.get("Type", "")) != "EmbeddedFile":
                continue
            try:
                payload = value.decoded_data()
            except ResourceLimitExceeded:
                raise
            except Exception:  # noqa: BLE001 - undecodable attachment
                continue
            if b"%PDF-" not in payload[:1024]:
                continue
            counter += 1
            yield value, payload, f"{host_name}::embedded{counter}.pdf"

    def _instrument_embedded_pdfs(
        self, document: PDFDocument, host_name: str, depth: int
    ) -> List[InstrumentationResult]:
        """§VI extension: recursively instrument attached PDF files.

        Malicious documents can nest the real attack inside an embedded
        PDF that scripts later export and open; instrumenting it at
        protect time keeps those scripts monitored too.
        """
        results: List[InstrumentationResult] = []
        for value, payload, sub_name in self._embedded_pdfs(document, host_name):
            try:
                sub = self.instrument(payload, sub_name, _depth=depth + 1)
            except ResourceLimitExceeded:
                raise
            except Exception:  # noqa: BLE001 - corrupt inner document
                continue
            if sub.instrumented_scripts or sub.embedded:
                filters = [str(f) for f in value.filters]
                value.set_decoded_data(sub.data, filters)
                results.append(sub)
        return results

    def _instrument_document(
        self,
        document: PDFDocument,
        key: InstrumentationKey,
        spec: DeinstrumentationSpec,
    ) -> Tuple[int, int, Set[str], Set]:
        """Wrap every triggered script.

        Returns (#wrapped, #merged, runtime-methods, changed-refs).
        Changed refs feed incremental-update serialisation: the holder
        of every rewritten action (or the catalog, for inline actions),
        any in-place-rewritten code stream, and the catalog itself
        (which gains the key marker).
        """
        generator = mc.MonitorCodeGenerator(
            key.render(),
            soap_url=self.soap_url,
            seed=self.seed,
            fake_copies=self.fake_copies,
            wrap_dynamic_methods=self.wrap_dynamic_methods,
        )
        actions = list(document.iter_javascript_actions())
        # Group /Next-sequential actions under their head so one single
        # context monitoring wrapper encloses the whole sequence.
        groups = self._group_sequential(document, actions)

        instrumented = 0
        merged = 0
        methods: Set[str] = set()
        changed: Set = set()
        root_ref = document.trailer.get("Root")

        def mark_changed(action: JavascriptAction) -> None:
            changed.add(action.holder_ref if action.holder_ref else root_ref)
            js_value = action.dictionary.get("JS")
            if isinstance(js_value, PDFRef):
                changed.add(js_value)

        seq = 0
        handled_ids: Set[int] = set()
        order_of = {id(action.dictionary): idx for idx, action in enumerate(actions)}

        for head, successors in groups:
            if id(head.dictionary) in handled_ids:
                continue
            codes = [document.get_javascript_code(head)]
            for successor in successors:
                codes.append(document.get_javascript_code(successor))
            combined = "\n;\n".join(code for code in codes if code.strip())
            if not combined.strip():
                continue
            seq += 1
            methods.update(find_runtime_script_methods(combined))
            wrapped = generator.wrap_script(combined, seq=seq)
            spec.entries.append(
                ScriptRestoreEntry(
                    order_index=order_of[id(head.dictionary)],
                    trigger=head.trigger,
                    name=head.name,
                    original_code=codes[0],
                )
            )
            document.set_javascript_code(head, wrapped.code)
            mark_changed(head)
            handled_ids.add(id(head.dictionary))
            instrumented += 1
            for successor, original in zip(successors, codes[1:]):
                spec.entries.append(
                    ScriptRestoreEntry(
                        order_index=order_of[id(successor.dictionary)],
                        trigger=successor.trigger,
                        name=successor.name,
                        original_code=original,
                    )
                )
                document.set_javascript_code(successor, "")
                mark_changed(successor)
                handled_ids.add(id(successor.dictionary))
                merged += 1

        if instrumented:
            document.catalog[PDFName(MARKER_KEY)] = PDFString(
                key.render().encode("ascii")
            )
            if root_ref is not None:
                changed.add(root_ref)
        changed.discard(None)
        return instrumented, merged, methods, changed

    @staticmethod
    def _group_sequential(
        document: PDFDocument, actions: List[JavascriptAction]
    ) -> List[Tuple[JavascriptAction, List[JavascriptAction]]]:
        """Partition actions into (head, /Next-successors) groups.

        ``iter_javascript_actions`` yields a head action followed by its
        ``/Next`` successors (same trigger); successors are identified
        by being reachable from the head's Next linkage.
        """
        by_dict_id: Dict[int, JavascriptAction] = {
            id(action.dictionary): action for action in actions
        }
        successor_ids: Set[int] = set()
        next_map: Dict[int, List[JavascriptAction]] = {}

        for action in actions:
            chain: List[JavascriptAction] = []
            current = action.dictionary
            visited = {id(current)}
            while True:
                nxt = current.get("Next")
                if nxt is None:
                    break
                nxt_dict = document.resolve_dict(nxt)
                if not nxt_dict or id(nxt_dict) in visited:
                    break
                visited.add(id(nxt_dict))
                follower = by_dict_id.get(id(nxt_dict))
                if follower is None:
                    break
                chain.append(follower)
                successor_ids.add(id(nxt_dict))
                current = nxt_dict
            next_map[id(action.dictionary)] = chain

        groups: List[Tuple[JavascriptAction, List[JavascriptAction]]] = []
        for action in actions:
            if id(action.dictionary) in successor_ids:
                continue  # will be handled under its head
            groups.append((action, next_map.get(id(action.dictionary), [])))
        return groups


def estimate_python_objects(document: PDFDocument) -> int:
    """Rough count of live Python objects backing a parsed document.

    Stands in for Table XI's "# of Python objects" column.
    """
    from repro.pdf.objects import PDFArray

    count = 0
    stack = [entry.value for entry in document.store]
    stack.append(document.trailer)
    while stack:
        value = stack.pop()
        count += 1
        if isinstance(value, PDFStream):
            count += max(1, len(value.raw_data) // 4096)
            stack.append(value.dictionary)
        elif isinstance(value, PDFDict):
            count += len(value)
            stack.extend(value.values())
        elif isinstance(value, PDFArray):
            stack.extend(value)
    return count
