"""One unit of a workload in a fresh process: ``python -m perfbench.child REQ``.

REQ is a JSON object: ``unit``, ``seed``, ``mode`` (``setup``, ``run`` or
``trace``) and ``out``, the file the result is written to.  ``setup``
stops right before the first call into the workload, so it times only
what a user pays to start a run.  The result records the monotonic time
of that first call; the parent subtracts the time it started the process.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time


def main(argv: list) -> int:
    request = json.loads(argv[0])
    from perfbench import tracing, workloads
    from perfbench.run import exit_on_sigterm

    signal.signal(signal.SIGTERM, exit_on_sigterm)

    body = workloads.SETUPS[request["unit"]]()
    tracer = tracing.Tracer() if request["mode"] == "trace" else None
    if tracer is not None:
        tracing.install(tracer)
    result = {"first_call_mono": time.monotonic()}
    if request["mode"] != "setup":
        start = time.perf_counter()
        result.update(body(request["seed"], tracer is not None))
        result["body_s"] = time.perf_counter() - start
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = max(own.ru_maxrss, children.ru_maxrss) / 1024.0
        result["cpu_s"] = sum(u.ru_utime + u.ru_stime for u in (own, children))
        if tracer is not None:
            result["trace"] = tracer.export()
    with open(request["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
