"""Context monitoring code generation (§III-C, Figure 3).

For each instrumented script we emit:

* a **prologue** that sends the keyed ``enter`` message to the runtime
  detector over SOAP;
* **method wrappers** for the Table IV runtime-script methods
  (``Doc.addScript``, ``Doc.setAction``, ``Doc.setPageAction``,
  ``Bookmark.setAction``) and the delayed-execution pair
  (``app.setTimeOut`` / ``app.setInterval``) — dynamically added or
  delayed scripts get their own enter/leave wrapping, defeating the
  staged and delayed-execution attacks of §IV-B;
* the original script, stored **encrypted** in a string and executed
  through ``eval(decrypt(...))`` — the script cannot run without the
  monitoring code taking control first, defeating the runtime patching
  attack;
* an **epilogue** (in a ``finally``) sending the keyed ``leave``
  message.

Anti-mimicry measures (§IV-B): the key is random, identifier names and
statement order are randomised per document, and fake monitoring-code
copies carrying decoy keys are planted; any message with a wrong key is
treated as an attack ("zero tolerance").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.js.lexer import code_units

#: Loopback endpoint of the detector's tiny SOAP server.
SOAP_HOST = "127.0.0.1"
SOAP_PORT = 48621
SOAP_URL = f"http://{SOAP_HOST}:{SOAP_PORT}/ctxmon"

ENCRYPTION_SCHEMES = ("shift", "xor", "reverse-shift")


#: The escape ``js_string_literal`` writes for each character that is
#: not printable ASCII, and for ``"`` and ``\\``.
_LITERAL_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _literal_escape(ch: str) -> str:
    escape = _LITERAL_ESCAPES.get(ch)
    if escape is not None:
        return escape
    # A character above U+FFFF is written as its UTF-16 surrogate pair.
    return "".join(["\\u%04x" % ord(unit) for unit in code_units(ch)])


def js_string_literal(text: str) -> str:
    """Encode ``text`` as a double-quoted JS string literal.

    This is the paper's "scan the code and add '\\'" escaping step,
    done properly: quotes, backslashes and non-printable characters are
    escaped so arbitrary script bodies round-trip through eval().  One
    ``str.translate`` does it, over a table of the text's distinct
    characters that need an escape.
    """
    table = {
        ord(ch): _literal_escape(ch)
        for ch in set(text)
        if not " " <= ch <= "~" or ch == '"' or ch == "\\"
    }
    return '"' + text.translate(table) + '"'


@dataclass
class EncryptedScript:
    scheme: str
    key: int
    ciphertext: str


def _cipher(text: str, scheme: str, key: int, sign: int) -> str:
    """``text`` run through ``scheme`` with ``key``, forwards
    (``sign`` 1) or backwards (-1): one ``str.translate`` over a table
    of the text's distinct characters.  Shift and xor act on each
    character's number; a text of UTF-16 code units stays one."""
    if scheme == "xor":
        table = {code: code ^ key for code in map(ord, set(text))}
    elif scheme == "shift" or scheme == "reverse-shift":
        delta = sign * key
        table = {code: (code + delta) % 65536 for code in map(ord, set(text))}
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "reverse-shift":
        text = text[::-1]
    return text.translate(table)


def encrypt_script(code: str, scheme: str, key: int) -> EncryptedScript:
    """Encrypt a script body for the chosen scheme."""
    return EncryptedScript(scheme=scheme, key=key, ciphertext=_cipher(code, scheme, key, 1))


def decrypt_script(encrypted: EncryptedScript) -> str:
    """Python-side inverse (used by tests and de-instrumentation checks)."""
    return _cipher(encrypted.ciphertext, encrypted.scheme, encrypted.key, -1)


def _decryptor_js(prefix: str, scheme: str, key: int) -> str:
    """Emit the in-document JS decryptor for ``scheme``.

    Builds the plaintext through an array join (one final allocation)
    so decryption of large scripts does not itself look like a spray.
    """
    if scheme == "shift":
        expr = f"(s.charCodeAt(i) - {key} + 65536) % 65536"
        order = "i = 0; i < s.length; i++"
    elif scheme == "xor":
        expr = f"s.charCodeAt(i) ^ {key}"
        order = "i = 0; i < s.length; i++"
    elif scheme == "reverse-shift":
        expr = f"(s.charCodeAt(i) - {key} + 65536) % 65536"
        order = "i = s.length - 1; i >= 0; i--"
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return (
        f"var {prefix}dec = function(s) {{"
        f" var a = [];"
        f" for (var {order}) {{ a[a.length] = String.fromCharCode({expr}); }}"
        f" return a.join('');"
        f" }};"
    )


@dataclass
class GeneratedMonitorCode:
    """The wrapped script plus everything needed to reason about it."""

    code: str
    key_text: str
    scheme: str
    cipher_key: int
    seq: int
    fake_keys: List[str] = field(default_factory=list)


class MonitorCodeGenerator:
    """Generates randomised context monitoring code for one document."""

    def __init__(
        self,
        key_text: str,
        soap_url: str = SOAP_URL,
        seed: Optional[int] = None,
        fake_copies: int = 2,
        wrap_dynamic_methods: bool = True,
    ) -> None:
        self.key_text = key_text
        self.soap_url = soap_url
        self.rng = random.Random(seed if seed is not None else hash(key_text) & 0x7FFFFFFF)
        self.fake_copies = fake_copies
        self.wrap_dynamic_methods = wrap_dynamic_methods

    # -- small helpers ----------------------------------------------------

    def _prefix(self) -> str:
        return "__" + "".join(self.rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(6))

    def _fake_key(self) -> str:
        return "".join(self.rng.choice("0123456789abcdef") for _ in range(24)) + ":" + "".join(
            self.rng.choice("0123456789abcdef") for _ in range(24)
        )

    def _soap_call(self, ctx: str, key_expr: str, seq: int, dyn: bool = False) -> str:
        dyn_field = ", dyn: 1" if dyn else ""
        return (
            f"SOAP.request({{cURL: {js_string_literal(self.soap_url)}, "
            f"oRequest: {{ctx: {js_string_literal(ctx)}, key: {key_expr}, seq: {seq}{dyn_field}}}}});"
        )

    # -- main entry -------------------------------------------------------------

    def wrap_script(self, original: str, seq: int = 1) -> GeneratedMonitorCode:
        """Produce the instrumented replacement for ``original``."""
        prefix = self._prefix()
        scheme = self.rng.choice(ENCRYPTION_SCHEMES)
        cipher_key = self.rng.randint(3, 4000)
        # The in-JS decryptor works on UTF-16 code units (charCodeAt,
        # fromCharCode), so it is the code units that are encrypted.
        encrypted = encrypt_script(code_units(original), scheme, cipher_key)

        key_var = f"{prefix}k"
        url_var = f"{prefix}u"
        parts: List[str] = [
            f"var {key_var} = {js_string_literal(self.key_text)};",
            f"var {url_var} = {js_string_literal(self.soap_url)};",
            self._soap_call("enter", key_var, seq),
        ]

        fake_keys: List[str] = []
        decoys: List[str] = []
        for index in range(self.fake_copies):
            fake = self._fake_key()
            fake_keys.append(fake)
            decoy_name = f"{prefix}f{index}"
            decoys.append(
                f"var {decoy_name} = function() {{"
                f" var k = {js_string_literal(fake)};"
                f" if (k.length < 0) {{ {self._soap_call('enter', 'k', seq)} }}"
                f" return k.length; }};"
            )

        wrappers = self._dynamic_wrappers(prefix, key_var, seq) if self.wrap_dynamic_methods else []

        body = [
            _decryptor_js(prefix, scheme, cipher_key),
            f"try {{ eval({prefix}dec({js_string_literal(encrypted.ciphertext)})); }}"
            f" finally {{ {self._soap_call('leave', key_var, seq)} }}",
        ]

        # Randomise placement of decoys among the structural statements
        # (§IV-B: "randomizing the structure of the context monitoring
        # code ... creating copies of fake context monitoring code").
        middle = decoys + wrappers
        self.rng.shuffle(middle)
        code = "\n".join(parts + middle + body)
        return GeneratedMonitorCode(
            code=code,
            key_text=self.key_text,
            scheme=scheme,
            cipher_key=cipher_key,
            seq=seq,
            fake_keys=fake_keys,
        )

    def wrap_dynamic_code_expr(self, prefix: str, key_var: str, seq: int) -> Tuple[str, str]:
        """Enter/leave snippets prepended/appended to dynamic scripts."""
        pro = self._soap_call("enter", key_var, seq, dyn=True)
        epi = self._soap_call("leave", key_var, seq, dyn=True)
        return pro, epi

    def _dynamic_wrappers(self, prefix: str, key_var: str, seq: int) -> List[str]:
        """JS that re-points the Table IV methods at wrapping versions."""
        pro, epi = self.wrap_dynamic_code_expr(prefix, key_var, seq)
        pro_var = f"{prefix}p"
        epi_var = f"{prefix}e"
        header = (
            f"var {pro_var} = {js_string_literal(pro)};"
            f" var {epi_var} = {js_string_literal(epi)};"
        )
        wrappers = [
            # app.setTimeOut / app.setInterval (delayed execution, §IV-B)
            f"try {{ var {prefix}st = app.setTimeOut;"
            f" app.setTimeOut = function(c, m) {{ return {prefix}st({pro_var} + c + {epi_var}, m); }};"
            f" }} catch ({prefix}x1) {{}}",
            f"try {{ var {prefix}si = app.setInterval;"
            f" app.setInterval = function(c, m) {{ return {prefix}si({pro_var} + c + {epi_var}, m); }};"
            f" }} catch ({prefix}x2) {{}}",
            # Doc.addScript / setAction / setPageAction (staged, Table IV)
            f"try {{ var {prefix}as = this.addScript;"
            f" this.addScript = function(n, c) {{ return {prefix}as(n, {pro_var} + c + {epi_var}); }};"
            f" }} catch ({prefix}x3) {{}}",
            f"try {{ var {prefix}sa = this.setAction;"
            f" this.setAction = function(t, c) {{ return {prefix}sa(t, {pro_var} + c + {epi_var}); }};"
            f" }} catch ({prefix}x4) {{}}",
            f"try {{ var {prefix}sp = this.setPageAction;"
            f" this.setPageAction = function(p, t, c) {{ return {prefix}sp(p, t, {pro_var} + c + {epi_var}); }};"
            f" }} catch ({prefix}x5) {{}}",
            f"try {{ var {prefix}bm = this.bookmarkRoot.setAction;"
            f" this.bookmarkRoot.setAction = function(c) {{ return {prefix}bm({pro_var} + c + {epi_var}); }};"
            f" }} catch ({prefix}x6) {{}}",
        ]
        return [header] + wrappers
