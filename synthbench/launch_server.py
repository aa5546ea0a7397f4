"""Boot the synthesis service for the benchmark, optionally traced.

    python3 synthbench/launch_server.py CACHE_DIR [TRACE_OUT]

Calls ``repro.service.server.serve`` on a free local port (announced on
stdout).  With ``TRACE_OUT`` the layer tracer is installed first, and its
span totals and counters are written there as JSON once the server has
stopped (on SIGTERM).
"""

from __future__ import annotations

import json
import sys

from goals import ROOT


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cache_dir = sys.argv[1]
    trace_out = sys.argv[2] if len(sys.argv) > 2 else None
    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer().install()
    from repro.service.server import serve

    code = serve(host="127.0.0.1", port=0, cache_dir=cache_dir, out=sys.stdout)
    if tracer is not None:
        with open(trace_out, "w") as handle:
            json.dump({"spans": tracer.totals(), "counters": tracer.counters()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
