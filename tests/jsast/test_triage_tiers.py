"""Triage against the full run on the benign, mixed and obfuscated tiers.

Each tier is scanned twice with the same seed, once with triage and
once without, and every document must keep the per-document contract:

* triaged and benign: the full run's verdict exactly (flag, malscore,
  feature bits);
* triaged and malicious (statically proven): the full run flags it too,
  as malicious or as crashed by its own exploit (a crash is a
  detection event); the feature bits may differ, because the proof
  guarantees the behaviour, not the payload-dependent bit mix;
* not triaged: both runs emulate, so the verdicts are identical.

The tiers must also engage triage: some benign documents, more than
80% of the mixed tier with at least one proven-malicious document, and
the whole obfuscated tier, whose scripts hide under three layers of
``eval(unescape(...))`` that only the proof tier peels.  Speed is not
checked here; perfbench's ``mixed-triage`` workload measures it.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

import pytest

from repro.core.pipeline import OpenReport, ProtectionPipeline
from repro.corpus import CorpusConfig, build_dataset, dataset_items
from repro.corpus.obfuscated import obfuscated_corpus

pytestmark = pytest.mark.absint

SEED = 1404

TIERS = {
    "benign": lambda: dataset_items(
        build_dataset(CorpusConfig(n_benign=24, n_benign_with_js=8, n_malicious=0))
    ),
    "mixed": lambda: dataset_items(
        build_dataset(CorpusConfig(n_benign=12, n_benign_with_js=4, n_malicious=12))
    ),
    "obfuscated": lambda: obfuscated_corpus(n_benign=6, n_malicious=6, seed=SEED),
}

Reports = Dict[str, OpenReport]


def _scan_all(items: List[Tuple[str, bytes]], triage: bool) -> Reports:
    pipeline = ProtectionPipeline(seed=SEED, triage=triage)
    return {name: pipeline.scan(data, name) for name, data in items}


@functools.lru_cache(maxsize=None)
def _tier(name: str) -> Tuple[Reports, Reports]:
    """``(full, triaged)`` reports of one tier, scanned once per session."""
    items = TIERS[name]()
    return _scan_all(items, False), _scan_all(items, True)


def _verdict(report: OpenReport) -> Tuple[bool, float, object]:
    verdict = report.verdict
    return verdict.malicious, verdict.malscore, verdict.features.bits


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_every_document_keeps_the_contract(tier):
    full, fast = _tier(tier)
    broken = []
    for name, report in fast.items():
        if report.triaged and report.verdict.malicious:
            if not (full[name].verdict.malicious or full[name].crashed):
                broken.append(name)
        elif _verdict(report) != _verdict(full[name]):
            broken.append(name)
    assert not broken, f"triage changed a verdict: {broken}"


def test_benign_tier_is_triaged():
    _full, fast = _tier("benign")
    assert sum(report.triaged for report in fast.values()) > 0


def test_mixed_tier_is_mostly_triaged():
    _full, fast = _tier("mixed")
    triaged = [report for report in fast.values() if report.triaged]
    assert len(triaged) / len(fast) > 0.80
    assert any(report.verdict.malicious for report in triaged)


def test_obfuscated_tier_is_wholly_triaged():
    _full, fast = _tier("obfuscated")
    assert all(report.triaged for report in fast.values())
