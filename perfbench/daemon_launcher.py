"""Run ``repro.cli.main`` with the benchmark's wrappers installed.

Usage: ``python3 perfbench/daemon_launcher.py <repro-sac arguments>``.

With ``PERFBENCH_TRACE_OUT=<path>`` every layer entry point is wrapped and
the spans are written to ``<path>`` (and the per-target binding counts to
``<path>.bindings.json``) when the command returns — for ``serve``, after
its SIGTERM drain.  ``PERFBENCH_DELAYS`` injects per-call sleeps exactly as
in the benchmark process.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    import tracing
    from layers import OBSERVERS

    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    delays = tracing.parse_delays(os.environ.get("PERFBENCH_DELAYS", ""))
    tracer = tracing.install(record=bool(trace_out), delays=delays, observers=OBSERVERS)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        if trace_out:
            tracer.dump(trace_out)
            with open(f"{trace_out}.bindings.json", "w", encoding="utf-8") as handle:
                json.dump(tracer.bindings, handle)


if __name__ == "__main__":
    raise SystemExit(main())
