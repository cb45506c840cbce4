"""Start ``repro-stencil serve`` for the ``serve`` workload.

Usage::

    python3 perfbench/serve_launcher.py STATS_JSON [--trace] -- serve ARGS...

Calls the CLI entry point in this interpreter.  With ``--trace`` the
per-layer wrappers of :mod:`layers` are installed first.  When the
server exits (SIGTERM drains it cleanly) the launcher writes the
process's peak RSS, CPU time and, if traced, the layer timers to
``STATS_JSON``.  The server gets SIGTERM too when the benchmark process
dies first, so it never outlives it.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys
import time

from common import peak_rss_mb, use_source_tree


#: ``prctl`` option: the signal Linux sends when the parent dies.
PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Have Linux SIGTERM this process when the benchmark process exits."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass  # not Linux: the benchmark's own cleanup still stops it


def main(argv) -> int:
    if "--" not in argv or not argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    stats_path, flags, cli_args = argv[0], argv[1:split], argv[split + 1:]
    _die_with_parent()
    use_source_tree()
    clock = None
    if "--trace" in flags:
        from layers import LayerClock

        clock = LayerClock()
        clock.install()
    from repro.cli import main as cli_main

    rc = cli_main(cli_args)
    stats = {"peak_rss_mb": peak_rss_mb(), "cpu_s": time.process_time()}
    if clock is not None:
        stats["timers"] = clock.snapshot()
    tmp = f"{stats_path}.tmp"
    with open(tmp, "w") as f:
        json.dump(stats, f)
    os.replace(tmp, stats_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
