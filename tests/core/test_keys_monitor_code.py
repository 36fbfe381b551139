"""Unit tests for key management and monitoring-code generation."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import InstrumentationKey, KeyStore, fingerprint
from repro.core.monitor_code import (
    ENCRYPTION_SCHEMES,
    GeneratedMonitorCode,
    MonitorCodeGenerator,
    _decryptor_js,
    decrypt_script,
    encrypt_script,
    js_string_literal,
)
from repro.core.pipeline import ProtectionPipeline
from repro.js import evaluate, hotloop
from repro.js.lexer import code_units
from repro.js.values import JSObject, NativeFunction, UNDEFINED
from repro.js.vm import BytecodeInterpreter
from repro.pdf.builder import DocumentBuilder
from repro.pdf.document import PDFDocument
from repro.pdf.objects import PDFName, PDFString
from tests.conftest import spray_js


def _scripts(protected: bytes) -> str:
    """Every JavaScript action of a protected document, as text."""
    document = PDFDocument.from_bytes(protected)
    return "\n".join(
        document.get_javascript_code(action) for action in document.iter_javascript_actions()
    )


def _scheme_of(protected: bytes) -> str:
    """The cipher of the one wrapper in a protected document, read off
    its decryptor."""
    code = _scripts(protected)
    if re.search(r"String\.fromCharCode\(s\.charCodeAt\(i\) \^ [0-9]+\)", code):
        return "xor"
    if "for (var i = s.length - 1; i >= 0; i--)" in code:
        return "reverse-shift"
    assert "for (var i = 0; i < s.length; i++)" in code
    return "shift"


class TestPerDocumentRandomisation:
    def test_documents_of_one_pipeline_draw_their_own_randomisation(self):
        """§IV-B: each document one pipeline protects gets its own
        identifier prefix and decoys, and no decoy repeats a real key."""
        pipeline = ProtectionPipeline()
        prefixes, decoys, keys = [], [], []
        for index in range(3):
            builder = DocumentBuilder()
            builder.add_page("")
            builder.add_javascript(f"var x{index} = {index};")
            protected = pipeline.protect(builder.to_bytes(), f"doc{index}.pdf")
            code = _scripts(protected.data)
            prefixes += re.findall(r"var (__[a-z]{6})k = ", code)
            decoys += re.findall(r'var k = "([0-9a-f]{24}:[0-9a-f]{24})"', code)
            keys.append(protected.key_text)
        assert len(set(prefixes)) == len(prefixes) == 3
        assert len(set(decoys)) == len(decoys) == 6
        real = {part for key in keys for part in key.split(":")}
        assert len(real) == 4  # one detector id, three document keys
        for decoy in decoys:
            text = decoy.replace(":", "")
            assert not any(part in text for part in real), decoy


class TestKeyStore:
    def test_issue_and_validate(self):
        store = KeyStore.create(seed=1)
        key = store.issue("a.pdf", fingerprint(b"aaa"))
        assert store.validate(key.render()) == "a.pdf"

    def test_detector_id_shared_across_documents(self):
        store = KeyStore.create(seed=1)
        k1 = store.issue("a.pdf", fingerprint(b"a"))
        k2 = store.issue("b.pdf", fingerprint(b"b"))
        assert k1.detector_id == k2.detector_id
        assert k1.document_key != k2.document_key

    def test_duplicate_instrumentation_reuses_key(self):
        store = KeyStore.create(seed=1)
        k1 = store.issue("a.pdf", fingerprint(b"same-bytes"))
        k2 = store.issue("a.pdf", fingerprint(b"same-bytes"))
        assert k1 == k2
        assert len(store) == 1

    def test_foreign_detector_id_rejected(self):
        ours = KeyStore.create(seed=1)
        theirs = KeyStore.create(seed=2)
        foreign = theirs.issue("x.pdf", fingerprint(b"x"))
        assert ours.validate(foreign.render()) is None

    def test_malformed_key_rejected(self):
        store = KeyStore.create(seed=1)
        assert store.validate("no-separator") is None
        assert store.validate("a:b:c") is None
        assert store.validate(":") is None

    def test_forget(self):
        store = KeyStore.create(seed=1)
        key = store.issue("a.pdf", fingerprint(b"a"))
        store.forget(key.render())
        assert store.validate(key.render()) is None
        # Re-issuing after forget mints a fresh key.
        key2 = store.issue("a.pdf", fingerprint(b"a"))
        assert key2.document_key != key.document_key

    def test_parse_roundtrip(self):
        key = InstrumentationKey("aa", "bb")
        assert InstrumentationKey.parse(key.render()) == key

    def test_keys_are_random_looking(self):
        store = KeyStore.create(seed=1)
        key = store.issue("a.pdf", fingerprint(b"a"))
        assert len(key.document_key) == 24
        assert all(c in "0123456789abcdef" for c in key.document_key)


class TestScriptEncryption:
    @pytest.mark.parametrize("scheme", ENCRYPTION_SCHEMES)
    def test_python_roundtrip(self, scheme):
        code = "var tricky = 'quotes\\'s' + \"\\n\" + String.fromCharCode(0x9090);"
        encrypted = encrypt_script(code, scheme, 321)
        assert encrypted.ciphertext != code
        assert decrypt_script(encrypted) == code

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            encrypt_script("x", "rot13", 1)

    def test_js_string_literal_roundtrip_through_engine(self):
        text = "line1\nline2\t\"quoted\" and 'single' \\ 邐"
        assert evaluate(js_string_literal(text)) == text


def run_wrapped(generated: GeneratedMonitorCode, soap_log=None):
    """Execute monitoring code in a minimal Acrobat-like environment."""
    log = soap_log if soap_log is not None else []
    interp = BytecodeInterpreter()

    def soap_request(i, t, args):
        params = args[0]
        log.append(
            {
                "url": params.get("cURL"),
                "request": {
                    k: v for k, v in params.get("oRequest").properties.items()
                },
            }
        )
        return JSObject({"status": "ok"})

    soap = JSObject()
    soap.set("request", NativeFunction("request", soap_request))
    interp.define_global("SOAP", soap)
    app = JSObject()
    app.set("setTimeOut", NativeFunction("setTimeOut", lambda i, t, a: 1.0))
    app.set("setInterval", NativeFunction("setInterval", lambda i, t, a: 2.0))
    interp.define_global("app", app)
    doc = JSObject()
    for m in ("addScript", "setAction", "setPageAction"):
        doc.set(m, NativeFunction(m, lambda i, t, a: UNDEFINED))
    bookmark = JSObject()
    bookmark.set("setAction", NativeFunction("setAction", lambda i, t, a: UNDEFINED))
    doc.set("bookmarkRoot", bookmark)
    interp.global_this = doc
    interp.define_global("this", doc)
    interp.run(generated.code, this=doc)
    return interp, log


class TestMonitorCodeGeneration:
    def test_enter_leave_bracketing(self):
        generator = MonitorCodeGenerator("det:doc", seed=9)
        generated = generator.wrap_script("var x = 40 + 2;")
        log = []
        interp, log = run_wrapped(generated, log)
        contexts = [entry["request"]["ctx"] for entry in log]
        assert contexts == ["enter", "leave"]
        keys = {entry["request"]["key"] for entry in log}
        assert keys == {"det:doc"}

    def test_original_code_actually_runs(self):
        generator = MonitorCodeGenerator("det:doc", seed=9)
        generated = generator.wrap_script("var marker = 'ran';")
        interp, _log = run_wrapped(generated)
        assert interp.global_env.lookup("marker") == "ran"

    def test_epilogue_sent_even_when_script_throws(self):
        generator = MonitorCodeGenerator("det:doc", seed=9)
        generated = generator.wrap_script("throw 'boom';")
        log = []
        with pytest.raises(Exception):
            run_wrapped(generated, log)
        contexts = [entry["request"]["ctx"] for entry in log]
        assert contexts == ["enter", "leave"]

    def test_payload_is_encrypted_in_document(self):
        generator = MonitorCodeGenerator("det:doc", seed=9)
        secret = "var veryUniqueMarker9123 = 1;"
        generated = generator.wrap_script(secret)
        assert secret not in generated.code

    def test_randomized_identifiers_differ_between_documents(self):
        a = MonitorCodeGenerator("det:a", seed=1).wrap_script("var x = 1;")
        b = MonitorCodeGenerator("det:b", seed=2).wrap_script("var x = 1;")
        assert a.code != b.code

    def test_fake_keys_planted(self):
        generated = MonitorCodeGenerator("det:doc", seed=9, fake_copies=3).wrap_script(
            "var x = 1;"
        )
        assert len(generated.fake_keys) == 3
        for fake in generated.fake_keys:
            assert fake in generated.code
            assert fake != "det:doc"

    def test_dynamic_wrappers_can_be_disabled(self):
        generated = MonitorCodeGenerator(
            "det:doc", seed=9, wrap_dynamic_methods=False
        ).wrap_script("var x = 1;")
        assert "setTimeOut" not in generated.code

    def test_set_timeout_wrapper_wraps_code(self):
        generator = MonitorCodeGenerator("det:doc", seed=9)
        generated = generator.wrap_script(
            "app.setTimeOut('var late = 1;', 100);"
        )
        captured = {}

        log = []
        interp = BytecodeInterpreter()

        def soap_request(i, t, args):
            params = args[0]
            log.append(params.get("oRequest").properties.get("ctx"))
            return JSObject({"status": "ok"})

        soap = JSObject()
        soap.set("request", NativeFunction("request", soap_request))
        interp.define_global("SOAP", soap)
        app = JSObject()

        def set_time_out(i, t, args):
            captured["code"] = args[0]
            return 1.0

        app.set("setTimeOut", NativeFunction("setTimeOut", set_time_out))
        app.set("setInterval", NativeFunction("setInterval", lambda i, t, a: 2.0))
        interp.define_global("app", app)
        doc = JSObject()
        interp.global_this = doc
        interp.define_global("this", doc)
        interp.run(generated.code, this=doc)

        wrapped_code = captured["code"]
        assert "var late = 1;" in wrapped_code
        assert wrapped_code.index("enter") < wrapped_code.index("var late")
        assert "leave" in wrapped_code

    @pytest.mark.parametrize("scheme", ENCRYPTION_SCHEMES)
    def test_all_schemes_execute_in_engine(self, scheme, monkeypatch):
        generator = MonitorCodeGenerator("det:doc", seed=9)
        monkeypatch.setattr(generator.rng, "choice", lambda seq: scheme if scheme in seq else seq[0])
        generated = generator.wrap_script("var out = 6 * 7;")
        assert generated.scheme == scheme
        interp, _log = run_wrapped(generated)
        assert interp.global_env.lookup("out") == 42.0


class TestUtf16SourceRoundTrip:
    """The wrapper encrypts the script's UTF-16 code units, which its
    in-JS decryptor gives back under every scheme.  Shift and
    reverse-shift dropped a character above U+FFFF to its low 16 bits,
    and xor's five-hex-digit escape read back as a different string, so
    the verdict depended on the scheme the wrapper drew."""

    @given(
        st.text(st.characters(exclude_categories=()), max_size=160),
        st.sampled_from(ENCRYPTION_SCHEMES),
        st.integers(3, 4000),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_decryptor_in_the_vm_returns_the_code_units(self, text, scheme, key):
        units = code_units(text)
        ciphertext = encrypt_script(units, scheme, key).ciphertext
        source = f"{_decryptor_js('__t', scheme, key)} __tdec({js_string_literal(ciphertext)})"
        for threshold in (1, hotloop.HOT_LOOP_THRESHOLD):
            with mock.patch.object(hotloop, "HOT_LOOP_THRESHOLD", threshold):
                assert BytecodeInterpreter().run(source) == units

    @staticmethod
    def _gated_dropper() -> bytes:
        """A heap-spray dropper that runs only where a JS string is
        UTF-16, stored as a UTF-16BE ``/JS`` text string."""
        script = "if ('\U0001f600'.length == 2) {\n" + spray_js() + "\n}"
        builder = DocumentBuilder()
        builder.add_page("")
        action = builder.document.resolve(builder.add_javascript("x"))
        action[PDFName("JS")] = PDFString(b"\xfe\xff" + script.encode("utf-16-be"))
        return builder.to_bytes()

    def test_the_gated_dropper_is_malicious_under_every_scheme(self):
        data = self._gated_dropper()
        seeds = {}
        for seed in range(16):
            protected = ProtectionPipeline(seed=seed).protect(data, "gated.pdf").data
            seeds.setdefault(_scheme_of(protected), seed)
        assert set(seeds) == set(ENCRYPTION_SCHEMES)
        for scheme, seed in seeds.items():
            for triage in (False, True):
                report = ProtectionPipeline(seed=seed, triage=triage).scan(data, "gated.pdf")
                assert report.verdict.malicious, (scheme, triage)
