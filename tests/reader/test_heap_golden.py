"""JS heap accounting and the step budget must not drift: every
snapshot document's scan charges the bytes, sprays the bytes, pools the
strings, peaks the reader process and takes the JS steps where
``tests/data/js_heap_golden.json`` says (``tests/reader/heap_golden.py``
defines the corpora and prints the regeneration command)."""

import pytest

from tests.reader.heap_golden import GOLDEN_PATH, REGEN_COMMAND, compute_figures, load_figures

pytestmark = pytest.mark.diff


def test_heap_figures_match_the_snapshot():
    assert GOLDEN_PATH.exists(), f"snapshot missing: {GOLDEN_PATH}\nregenerate with: {REGEN_COMMAND}"
    expected = load_figures()
    actual = compute_figures()
    assert {corpus: len(docs) for corpus, docs in expected.items()} == {
        "benign": 120,
        "malicious": 80,
        "obfuscated": 12,
        "table_x_js": 6,
    }
    problems = [
        f"  {corpus}/{name}: {expected.get(corpus, {}).get(name)} != {actual.get(corpus, {}).get(name)}"
        for corpus in sorted(set(expected) | set(actual))
        for name in sorted(set(expected.get(corpus, {})) | set(actual.get(corpus, {})))
        if expected.get(corpus, {}).get(name) != actual.get(corpus, {}).get(name)
    ]
    assert not problems, (
        f"JS heap figures drifted from {GOLDEN_PATH.name} ({len(problems)} document(s)):\n"
        + "\n".join(problems)
        + f"\nIf this change is intentional, regenerate with:\n  {REGEN_COMMAND}"
    )
