"""Golden static-analysis snapshot: static reports must not drift.

Every document of the static golden set (the golden corpus plus
``obfuscated_corpus(6, 6)``) is analysed and its projected ``static_js``
section compared with ``tests/data/static_golden.jsonl``.  A mismatch
means a lint finding, eligibility or absint verdict changed: either fix
the regression, or, if the change is intentional, regenerate the file
and commit it with the change (the failure message prints the command).
"""

import json

import pytest

from tests.jsast.static_golden import (
    REGEN_COMMAND,
    STATIC_GOLDEN_PATH,
    load_static_golden,
    snapshot,
)

pytestmark = pytest.mark.absint


def test_static_reports_match_snapshot():
    assert STATIC_GOLDEN_PATH.exists(), (
        f"snapshot missing: {STATIC_GOLDEN_PATH}\nregenerate with: {REGEN_COMMAND}"
    )
    expected = load_static_golden()
    actual = {record["name"]: record for record in snapshot()}
    assert len(expected) == 68
    problems = [
        f"  {name}:\n    golden : {json.dumps(expected.get(name), sort_keys=True)}\n"
        f"    actual : {json.dumps(actual.get(name), sort_keys=True)}"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    ]
    if problems:
        pytest.fail(
            f"static reports drifted from {STATIC_GOLDEN_PATH.name} "
            f"({len(problems)} document(s)):\n"
            + "\n".join(problems)
            + "\n\nIf this change is intentional, regenerate the snapshot "
            f"with:\n  {REGEN_COMMAND}\nand commit it with your change.",
            pytrace=False,
        )


def test_snapshot_covers_both_verdict_directions():
    """The pinned set must keep exercising both proof directions."""
    verdicts = {
        script["absint"]["verdict"]
        for record in load_static_golden().values()
        for script in record["scripts"]
    }
    assert {"proven-benign", "proven-malicious", "unknown"} <= verdicts
