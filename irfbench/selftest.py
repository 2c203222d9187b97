#!/usr/bin/env python3
"""Self-tests of the repository benchmark, run from the repository root:

    python3 irfbench/selftest.py [--seconds 2]

1. A short untraced run of every workload is correct, fails no op, and
   prints every end_to_end metric of BENCHMARK.json with its unit.
2. A short traced run of every workload prints every per_layer metric.
3. A run with a deliberately perturbed reference map trips the correctness
   gate: it exits non-zero and reports correct=false with a failed op.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seconds, trace, *extra):
    cmd = [sys.executable, str(ROOT / "irfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, declared):
    problems = []
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{m['name']} value {got['value']!r} is not a number")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    problems += [f"undeclared {name}" for name in sorted(extra)]
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    failures = []

    for w in SPEC["workloads"]:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result, err = run(w["name"], args.seconds, trace)
            label = f"{w['name']} trace={trace}"
            if result is None:
                failures.append(f"{label}: no result (exit {code})\n{err[-2000:]}")
                continue
            problems = check_metrics(result, declared)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"exit {code}, correct {result['correct']}, "
                                f"failed {result['failed']}")
            if result["attempted"] < 1:
                problems.append("no op attempted")
            print(f"{label}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
            failures += [f"{label}: {p}" for p in problems]

        code, result, _ = run(w["name"], args.seconds, 0, "--perturb-reference")
        tripped = code != 0 and result is not None and not result["correct"] \
            and result["failed"] >= 1
        print(f"{w['name']} perturbed reference: {'gate tripped' if tripped else 'FAIL'}")
        if not tripped:
            failures.append(f"{w['name']}: perturbed reference did not trip the gate")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
