"""The wrapper's text builders against their frozen per-character
versions (``tests/core/monitor_code_reference.py``).

``js_string_literal`` must write what the old loop wrote for the text
read as UTF-16 code units, and the cipher must give the old loop's
ciphertext and plaintext for every text, on generated text and on
every corpus script and static-analysis layer.
"""

from __future__ import annotations

import functools
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor_code import (
    ENCRYPTION_SCHEMES,
    EncryptedScript,
    MonitorCodeGenerator,
    decrypt_script,
    encrypt_script,
    js_string_literal,
)
from repro.js.lexer import code_units
from tests.core import monitor_code_reference as reference
from tests.js.test_differential import corpus_scripts
from tests.jsast.static_golden import static_golden_layers

pytestmark = pytest.mark.diff

#: Any character: lone surrogates, the ASCII escapes and characters
#: above U+FFFF included.
any_char = st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\x00", "\x7f", "\ud83d", "\ude00", "\U0001f600", "\U0010ffff"]
)
any_text = st.text(any_char, max_size=80)


@functools.lru_cache(maxsize=None)
def corpus_texts() -> Tuple[str, ...]:
    """Every corpus script and every layer the static analysis parses
    on the snapshot corpus."""
    return tuple(corpus_scripts()) + static_golden_layers()


@functools.lru_cache(maxsize=None)
def wrapped_corpus() -> Tuple[str, ...]:
    """The instrumentation wrapper of every corpus text, under seeds
    that draw every cipher scheme."""
    return tuple(
        MonitorCodeGenerator("det:doc", seed=index).wrap_script(text).code
        for index, text in enumerate(corpus_texts())
    )


def assert_matches_reference(text: str, scheme: str, key: int) -> None:
    assert js_string_literal(text) == reference.js_string_literal(code_units(text))
    ciphertext = encrypt_script(text, scheme, key).ciphertext
    assert ciphertext == reference.encrypt(text, scheme, key)
    encrypted = EncryptedScript(scheme=scheme, key=key, ciphertext=text)
    assert decrypt_script(encrypted) == reference.decrypt(text, scheme, key)


@given(any_text, st.sampled_from(ENCRYPTION_SCHEMES), st.integers(0, 65535))
@settings(max_examples=1000, deadline=None)
def test_wrapper_text_matches_the_reference(text: str, scheme: str, key: int) -> None:
    assert_matches_reference(text, scheme, key)


def test_wrapper_text_matches_the_reference_on_every_corpus_text() -> None:
    texts = corpus_texts()
    assert len(texts) > 50
    for index, text in enumerate(texts):
        scheme = ENCRYPTION_SCHEMES[index % len(ENCRYPTION_SCHEMES)]
        assert_matches_reference(text, scheme, 3 + index * 37 % 3998)


def test_wrappers_draw_every_scheme() -> None:
    schemes = {
        MonitorCodeGenerator("det:doc", seed=index).wrap_script("x").scheme
        for index in range(len(corpus_texts()))
    }
    assert schemes == set(ENCRYPTION_SCHEMES)
