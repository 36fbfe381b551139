"""Host-speed probe: puts the benchmark's timings on one reference speed.

The shared 2-core host this benchmark was built on changes speed by up
to 2x over tens of seconds, and the process's CPU time slows with its
wall time, so neither clock alone gives a steady figure.  A fixed
chunk of pure-Python work (regex tokenizing, dict and tuple churn, a
small stack interpreter: what the scanner spends its time on) is timed
every ``EVERY_S`` from a thread while the scans run.  A scan's time is then scaled by ``REFERENCE_S`` over the
median chunk time around it, which is the time the scan would have
taken with the host at the reference speed.

The chunk is benchmark code, so no change to the program moves it.  It
runs with the garbage collector off, so the program's heap does not
make it slower either.
"""

from __future__ import annotations

import bisect
import gc
import random
import re
import statistics
import threading
import time
from typing import Callable, List, Optional

#: Median chunk time on a 2-core Intel Xeon, Python 3.11, in one of the
#: host's fast phases.  Only ratios to it matter.
REFERENCE_S = 0.001
#: Wall time between two chunks of the sampling thread, and the window
#: around a scan whose chunks give its speed (widened until it holds
#: ``MIN_SAMPLES``).
EVERY_S = 0.04
WINDOW_S = 0.5
MIN_SAMPLES = 5

_rng = random.Random(1404)
_BLOB = b"".join(
    b"%d 0 obj << /Type /Page /Length %d /Name (n%d) >> stream\n" % (i, _rng.randrange(9999), i)
    for i in range(2000)
)
_TOKEN = re.compile(rb"/[A-Za-z]+|\d+|\([^)]*\)|<<|>>|[a-z]+")
_CODE = [
    ("push", 1), ("push", 2), ("add", None), ("store", "x"),
    ("load", "x"), ("push", 3), ("mul", None), ("pop", None),
] * 20


def chunk() -> None:
    """The fixed unit of work; about 1 ms at the reference speed."""
    counts: dict = {}
    for match in _TOKEN.finditer(_BLOB, 0, 3000):
        token = match.group()
        counts[token] = counts.get(token, 0) + len(token)
    for _ in range(4):
        stack: list = []
        env: dict = {}
        for op, arg in _CODE:
            if op == "push":
                stack.append(arg)
            elif op == "add":
                right = stack.pop()
                stack.append(stack.pop() + right)
            elif op == "mul":
                right = stack.pop()
                stack.append(stack.pop() * right)
            elif op == "store":
                env[arg] = stack.pop()
            elif op == "load":
                stack.append(env[arg])
            else:
                stack.pop()
    total = 0
    for i in range(600):
        total += (i * i) % 7
        str(i)


class SpeedProbe:
    """Chunk timings along one run, and the speed factor they give."""

    def __init__(self) -> None:
        self.times: List[float] = []  # chunk midpoints, ascending
        self.seconds: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Time ``count`` chunks now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                chunk()
                end = time.perf_counter()
                self.times.append((start + end) / 2)
                self.seconds.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def in_background(self) -> Callable[[], None]:
        """Sample every ``EVERY_S`` from a thread until the returned
        function is called (which waits for the thread to end)."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(EVERY_S):
                self.sample()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()

        def finish() -> None:
            stop.set()
            thread.join()

        return finish

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's speed during ``[start, end]``:
        multiply a time measured then by this."""
        window = WINDOW_S
        while True:
            low = bisect.bisect_left(self.times, start - window)
            high = bisect.bisect_right(self.times, end + window)
            if high - low >= MIN_SAMPLES or high - low == len(self.times):
                break
            window *= 2
        near = self.seconds[low:high]
        if not near:
            raise RuntimeError("no host-speed samples")
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, end: float, in_process: bool = False) -> float:
        """``end - start`` at the reference speed.  ``in_process``: the
        interval was timed in this process, so it also held the chunks
        run in between (the sampling thread holds the GIL), and their
        time is taken out first."""
        seconds = end - start
        if in_process:
            low = bisect.bisect_left(self.times, start)
            high = bisect.bisect_right(self.times, end)
            seconds -= sum(self.seconds[low:high])
        return seconds * self.factor(start, end)

    def median_factor(self) -> Optional[float]:
        """The run's overall factor, for the run metadata."""
        if not self.seconds:
            return None
        return REFERENCE_S / statistics.median(self.seconds)
