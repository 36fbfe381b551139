"""Run ``repro serve`` with the layer tracer in its scan workers.

Usage: ``python3 perfbench/traced_serve.py OUT_DIR [serve options...]``

The tracer is installed before the service starts its process pool, so
the forked workers inherit the wrapped layers.  After every scan a
worker writes its running totals to ``OUT_DIR/<pid>.json``; the
benchmark sums those files once the server has stopped.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import LayerTracer  # noqa: E402


def main(argv: list) -> int:
    out_dir = argv[0]
    tracer = LayerTracer().install()

    from repro.batch import scanner
    from repro.cli import main as cli_main

    work = scanner._service_process_worker

    @functools.wraps(work)
    def traced_worker(*args, **kwargs):
        try:
            return work(*args, **kwargs)
        finally:
            tracer.dump(os.path.join(out_dir, f"{os.getpid()}.json"))

    # Looked up by name when the pool starts, and pickled by name into
    # the workers, where it resolves to this same wrapper.
    scanner._service_process_worker = traced_worker
    return cli_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
