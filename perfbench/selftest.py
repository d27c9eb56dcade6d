"""Self-test of the benchmark at tiny lengths; takes about 15 seconds.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run emit exactly
the metrics BENCHMARK.json names, with their units, that the error rate is
0, and that a corrupted artifact (a truncated log, or a log whose events
have wrong outputs) is counted as a failed operation while the run
carries on.  It exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# the analysis workload needs a nonempty compressible stream, which starts at L=11
TINY = {"session": 10, "registry": 10, "analysis": 12}
SEED = 5


def truncate(path: str) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) * 2 // 3])


def lengthen_outputs(path: str) -> None:
    """Append a bit to every event's output; the log stays valid JSON."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    for i in range(1, len(lines)):
        event = json.loads(lines[i])
        event["output"] += "0"
        lines[i] = json.dumps(event, sort_keys=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def expected_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_run(workload: str, trace: int) -> list[str]:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
        "--max-len", str(TINY[workload]),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected_metrics(trace)))}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("a metric value is not a number")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed: {lines[:-1]}")
    if not any(line.split()[:2] == ["error_rate", "0.000000"] for line in lines):
        problems.append("no error_rate line reading 0")
    return problems


def check_tamper(workload: str, tamper) -> list[str]:
    args = run.parse_args([
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
        "--trace", "0", "--max-len", str(TINY[workload]), "--role", "run",
    ])
    try:
        result = run.child_main(args, tamper=tamper)
    except Exception as exc:  # the point of the test: a corrupt artifact must not crash the run
        return [f"{tamper.__name__}: run crashed: {type(exc).__name__}: {exc}"]
    if result["failed"] < 1:
        return [f"{tamper.__name__}: the corrupted log was not counted as a failure"]
    return []


def main() -> int:
    failures = 0
    for workload in TINY:
        problems = check_run(workload, 0) + check_run(workload, 1)
        for tamper in (truncate, lengthen_outputs):
            problems += check_tamper(workload, tamper)
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        if not problems:
            print(f"ok   {workload}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
