#!/usr/bin/env python3
"""Run-to-run noise of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload serve-transfuser ...]

Runs perfbench/run.py once per seed (1..runs) for each workload, with
BENCHMARK.json's run_seconds, and prints each metric's median, its
quartile spread (q3 - q1) / median and the metric's bound. A spread
above a third of the bound is flagged: such a metric is too noisy to
judge a change by.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    noisy = False
    for workload in workloads:
        values, hosts = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode not in (0, 1) or not lines:
                print("%s seed %d: exit code %d" % (workload, seed,
                                                     out.returncode))
                noisy = True
                continue
            result = json.loads(lines[-1])
            hosts.extend("seed %d %s" % (seed, line.strip())
                         for line in lines if line.strip().startswith("host:"))
            if not result["correct"] or result["failed"]:
                print("%s seed %d: checks failed" % (workload, seed))
                print("\n".join(line for line in lines[:-1]
                                if "check ok" not in line))
                noisy = True
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs)" % (workload, args.runs))
        for name, vs in values.items():
            spread = stats.quartile_spread(vs)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                noisy = True
            print("  %-24s median %12.6g  spread %6.3f  bound %s%s" % (
                name, stats.median(vs), spread, bound, flag))
            print("  %-24s %s" % ("", " ".join("%.5g" % v for v in vs)))
        for line in hosts:
            print("  " + line)
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
