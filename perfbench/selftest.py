#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of liblnc).

    python3 perfbench/selftest.py

Run from the root of a source tree. In the benchmark's tiny mode (smallest
inputs, a fraction of a second of timing) it asserts that:

  * every workload, untraced, prints exactly the end_to_end metrics named
    in BENCHMARK.json, each with its unit, and passes its checks;
  * every workload, traced, prints exactly the per_layer metrics, each
    with its unit, and passes its checks;
  * with a deliberately corrupted correctness reference, every workload
    reports failed operations (failed_frac > 0) and correct = false.

Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--tiny", *extra]
    done = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, declared: list, what: str) -> list:
    problems = []
    printed = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in declared}
    for name, unit in wanted.items():
        if name not in printed:
            problems.append(f"{what}: missing metric {name}")
        elif printed[name].get("unit") != unit:
            problems.append(f"{what}: {name} has unit "
                            f"{printed[name].get('unit')!r}, not {unit!r}")
        elif not isinstance(printed[name].get("value"), (int, float)):
            problems.append(f"{what}: {name} has no numeric value")
    for name in printed:
        if name not in wanted:
            problems.append(f"{what}: undeclared metric {name}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{what}: checks failed on an intact run")
    if result["attempted"] < 1:
        problems.append(f"{what}: attempted no operation")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        problems += expect_metrics(run(workload, 0), SPEC["end_to_end"],
                                   f"{workload} untraced")
        problems += expect_metrics(run(workload, 1), SPEC["per_layer"],
                                   f"{workload} traced")
        broken = run(workload, 0, "--corrupt-reference")
        if broken["failed"] == 0 or broken["correct"]:
            problems.append(f"{workload}: a corrupted reference went "
                            "unnoticed (failed_frac = 0)")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
