#!/usr/bin/env python3
"""Summarise result files written by run.py: median, quartiles and spread.

    python3 perfbench/collect.py [RESULT_DIR]

Groups result-*.json files (smoke runs excluded) by workload and trace
mode and prints, for every metric and every unadjusted wall-clock figure,
its values over the runs, their median and quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median.
End-to-end metrics whose spread reaches a third of their bound in
BENCHMARK.json are listed under "unsteady". The summary is labelled with
the commit the runs recorded; runs of different commits are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="?", default=str(ROOT / ".perfbench_runs"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    groups: dict = {}
    for path in sorted(Path(args.results).glob("result-*.json")):
        run = json.loads(path.read_text())
        if run["env"]["smoke"]:
            continue
        groups.setdefault((run["env"]["workload"], run["env"]["trace"]), []).append(run)
    commits = {r["env"]["git_commit"] for runs in groups.values() for r in runs}
    if len(commits) > 1:
        sys.exit(f"error: the runs measured different commits: {sorted(commits)}")

    summary, unsteady = {}, []
    for (workload, trace), runs in sorted(groups.items()):
        if len(runs) < 2:
            continue
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"],
                             **summarise([r["metrics"][name]["value"] for r in runs])}
            bound = bounds.get(name)
            if not trace and bound and metrics[name]["spread"] >= bound / 3:
                unsteady.append(f"{workload}.{name}")
        wall = {name: summarise([r["wall"][name] for r in runs]) for name in runs[0]["wall"]}
        env = {k: v for k, v in runs[0]["env"].items() if k not in ("seed", "trace")}
        summary[f"{workload}.trace{trace}"] = {
            "env": env,
            "seeds": [r["env"]["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
            "wall": wall,
        }
    json.dump({"commit": commits.pop() if commits else None, "unsteady": unsteady,
               "runs": summary},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
