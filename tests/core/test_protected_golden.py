"""Phase I output must not drift: every protected document's bytes
match the checked-in SHA-256 snapshot (``tests/core/protected_golden.py``
defines the corpora and prints the regeneration command)."""

from tests.core.protected_golden import (
    DIGESTS_PATH,
    REGEN_COMMAND,
    compute_digests,
    load_digests,
)


def test_protected_bytes_match_the_snapshot():
    assert DIGESTS_PATH.exists(), f"snapshot missing: {DIGESTS_PATH}\nregenerate with: {REGEN_COMMAND}"
    expected = load_digests()
    actual = compute_digests()
    problems = [
        f"  {corpus}/{name}"
        for corpus in sorted(set(expected) | set(actual))
        for name in sorted(set(expected.get(corpus, {})) | set(actual.get(corpus, {})))
        if expected.get(corpus, {}).get(name) != actual.get(corpus, {}).get(name)
    ]
    assert not problems, (
        f"protected bytes drifted from {DIGESTS_PATH.name} ({len(problems)} document(s)):\n"
        + "\n".join(problems)
        + f"\nIf this change is intentional, regenerate with:\n  {REGEN_COMMAND}"
    )


def test_snapshot_covers_every_corpus():
    digests = load_digests()
    assert {corpus: len(docs) for corpus, docs in digests.items()} == {
        "golden": 56,
        "obfuscated": 12,
        "table_x_js": 6,
    }
