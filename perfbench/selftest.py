"""Benchmark self-test: a slowdown injected into one layer must show up
in that layer's row and on the workload it dominates, and nowhere else.

Usage, from the repository root::

    python3 perfbench/selftest.py

It runs ``run.py`` with and without ``--inject jsast.absint:0.01`` (a
10 ms busy wait inside every call of the layer) and checks that:

1. in the traced ``mixed-triage`` run the injected layer's self time
   moves beyond its band (see ``moved``) and by at least half the
   injected total, while every other layer's share of the time the
   uninjected layers take stays inside its band (shares, because the
   host's speed can drift by a third between two runs);
2. the end-to-end comparison flags ``mixed-triage``, where the layer
   dominates, beyond the ``BENCHMARK.json`` bound;
3. it flags nothing on ``js-heavy``, where the layer runs once per
   document.

End-to-end figures are the medians of ``PAIRS`` runs per side, with
baseline and injected runs alternating, as a comparison between two
commits would be made; a shared host drifts too much for single runs.
Only ``docs_per_s`` and ``scan_p50_ms`` are compared: set-up does not
run the injected layer, and ``js-heavy`` has too few scans per run for
a steady p95.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: A layer row "moves" when it changes by more than this share of the
#: baseline, and by more than ``LAYER_FLOOR`` of the baseline's total
#: (the noise on rows of a few ms).
LAYER_BAND = 0.35
LAYER_FLOOR = 0.02
COMPARED = ("docs_per_s", "scan_p50_ms")
#: The layer slowed down, by how much per call, the ``--seconds`` of
#: every run, and the baseline/injected run pairs per workload.
LAYER = "jsast.absint"
DELAY_S = 0.01
SECONDS = 4.0
PAIRS = 3


def run(workload: str, seconds: float, trace: int, inject: str = "") -> Dict[str, float]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", str(seconds), "--trace", str(trace),
    ]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: benchmark reported incorrect verdicts")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def regressions(base: Dict[str, float], new: Dict[str, float]) -> List[str]:
    """End-to-end metrics that got worse by more than their bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    flagged = []
    for spec in bench["end_to_end"]:
        name = spec["name"]
        if name not in COMPARED:
            continue
        change = (new[name] - base[name]) / base[name]
        worse = -change if spec["better"] == "higher" else change
        if worse > spec["bound"]:
            flagged.append(f"{name} {change:+.1%}")
    return flagged


def paired(workload: str, seconds: float, inject: str, pairs: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Median end-to-end metrics of alternating baseline/injected runs."""
    base: List[Dict[str, float]] = []
    slow: List[Dict[str, float]] = []
    for _ in range(pairs):
        base.append(run(workload, seconds, 0))
        slow.append(run(workload, seconds, 0, inject))
    return (
        {name: statistics.median(r[name] for r in base) for name in COMPARED},
        {name: statistics.median(r[name] for r in slow) for name in COMPARED},
    )


def moved(base: float, new: float, total: float) -> bool:
    return abs(new - base) > max(LAYER_BAND * base, LAYER_FLOOR * total)


def shares(rows: Dict[str, float], skip: str) -> Dict[str, float]:
    """Each self-time row as a share of all rows but ``skip``."""
    kept = {
        name: value for name, value in rows.items()
        if name.endswith("_s") and name not in (skip, "trace.wall_s", "trace.overhead_s")
    }
    total = sum(kept.values())
    return {name: value / total for name, value in kept.items()}


def main() -> int:
    inject = f"{LAYER}:{DELAY_S}"
    failures = []

    base = run("mixed-triage", SECONDS, 1)
    slow = run("mixed-triage", SECONDS, 1, inject)
    row = f"{LAYER}_s"
    added = slow[row] - base[row]
    expected = DELAY_S * slow[f"{LAYER}_calls"]
    print(f"{row}: {base[row]:.4f} -> {slow[row]:.4f} s per pass (injected {expected:.4f})")
    wall = base["trace.wall_s"]
    if not moved(base[row], slow[row], wall) or added < 0.5 * expected:
        failures.append(f"{row} did not move beyond its band")
    base_shares, slow_shares = shares(base, row), shares(slow, row)
    for name, share in base_shares.items():
        if moved(share, slow_shares[name], 1.0):
            failures.append(f"{name} share moved: {share:.3f} -> {slow_shares[name]:.3f}")

    for workload, expect_flag in (("mixed-triage", True), ("js-heavy", False)):
        flags = regressions(*paired(workload, SECONDS, inject, PAIRS))
        print(f"{workload}: flagged {flags or 'nothing'}")
        if bool(flags) != expect_flag:
            failures.append(f"{workload}: expected {'a' if expect_flag else 'no'} regression flag")

    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
