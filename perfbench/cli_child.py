"""Child-process entry points of the benchmark (run with ``src`` on PYTHONPATH).

    python3 perfbench/cli_child.py probe [--load-table]
        Import bosegas.cli in this fresh interpreter and print one JSON line:
        the monotonic clock when the import returned, the import time and,
        with --load-table, the time of a warm ``onedim.default_curve()`` load.

    python3 perfbench/cli_child.py trace SPANS OP -- <bosegas arguments>
        Run ``bosegas.cli.main`` with every bosegas module traced, write the
        spans to SPANS (tagged with operation id OP) and exit with the CLI's
        exit code.

perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes, so the
parent can place these times on its own clock.
"""

from __future__ import annotations

import json
import sys
import time


def probe(load_table: bool) -> int:
    t0 = time.perf_counter()
    import bosegas.cli  # noqa: F401
    t1 = time.perf_counter()
    out = {"import_done": t1, "import_s": t1 - t0}
    if load_table:
        from bosegas import onedim
        onedim.default_curve()
        out["load_s"] = time.perf_counter() - t1
    print(json.dumps(out))
    return 0


def trace(spans_path: str, op: str, argv: list[str]) -> int:
    from spans import Tracer
    tracer = Tracer(id_prefix=f"{op}.")
    tracer.op = op
    t0 = time.perf_counter()
    import bosegas.cli
    t1 = time.perf_counter()
    tracer.install()
    try:
        code = bosegas.cli.main(argv)
    finally:
        imp = {"id": f"{op}.import", "name": "cli.import", "start": t0,
               "end": t1, "parent": None, "op": op}
        tracer.dump(spans_path, extra=[imp])
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        sys.exit(probe("--load-table" in sys.argv[2:]))
    if mode == "trace" and sys.argv[4] == "--":
        sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[5:]))
    sys.exit(f"usage: {sys.argv[0]} probe [--load-table] | trace SPANS OP -- ARGS")
