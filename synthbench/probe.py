"""One set-up sample, taken in a fresh interpreter.

Times importing the package's command-line entry module plus parsing every
input of the workload, then, if asked, synthesizes one goal the way
``python -m repro synth --cache-dir DIR`` does, so the parent can compare
search counters across hash seeds and serve the cached answer as a hit.
Prints one JSON line::

    python3 synthbench/probe.py '{"sources": [...], "goal": ..., "path": ...,
                                   "depth": ..., "cache_dir": ...}'
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from goals import ROOT, search_counters


def main() -> int:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import repro.cli  # noqa: F401 - what `python -m repro` loads
    from repro.syntax.parser import parse_program

    programs = {path: parse_program((ROOT / path).read_text()) for path in request["sources"]}
    setup_s = perf_counter() - start
    report = {"setup_s": setup_s}
    if request.get("goal"):
        from repro.service import api
        from repro.service.cache import ResultCache
        from repro.service.worker import WarmStack

        stack = WarmStack()
        with stack.query() as backend:
            payload, _, digest = api.synth_query(
                programs[request["path"]],
                only=request["goal"],
                depth=request["depth"],
                cache=ResultCache(request["cache_dir"]),
                backend=backend,
            )
        item = payload["items"][0]
        report.update(
            program=item["program"],
            counters=search_counters(item["statistics"], backend.statistics),
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
