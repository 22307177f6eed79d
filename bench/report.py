"""Print every benchmark metric for every workload, by name, with its unit.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Runs bench/run.py once per workload (and, with --trace, once more traced) and
prints ``workload  metric  value  unit`` lines, plus each workload's
fail_ratio = failed / attempted. Exits non-zero if any run fails or any
output check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl

RUN = Path(run.__file__).resolve()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run.SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args()
    status = 0
    for name in wl.NAMES:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=RUN.parent.parent, capture_output=True, text=True,
            )
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{name:18s} run failed (exit {proc.returncode}):\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if trace == 0:
                print(f"{name:18s} {'fail_ratio':48s} {result['failed'] / result['attempted']:<14.6g} "
                      f"ratio ({result['failed']}/{result['attempted']})")
            for metric, m in result["metrics"].items():
                print(f"{name:18s} {metric:48s} {m['value']:<14.6g} {m['unit']}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
