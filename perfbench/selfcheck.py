"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and fails (exit 1) when a run does not exit 0, when its last line is not a
result object of the agreed shape, or when the metric names or units it
prints differ from those BENCHMARK.json declares for that mode.  Takes
about three minutes, most of it the cli-session, which has no tiny form.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(bench: dict, workload: str, trace: int) -> list[str]:
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append(f"{where}: bad attempted/failed")
    printed = result.get("metrics", {})
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"{where}: printed metric {name} missing from BENCHMARK.json")
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"{where}: declared metric {name} not printed")
    for name in sorted(set(printed) & set(declared)):
        if printed[name].get("unit") != declared[name]:
            problems.append(f"{where}: {name} unit {printed[name].get('unit')!r}"
                            f" != {declared[name]!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check(bench, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
