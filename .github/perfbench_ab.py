"""Same-runner perfbench A/B gate over BENCHMARK.json's end-to-end bounds.

Usage: python3 .github/perfbench_ab.py RUNS_DIR

RUNS_DIR holds one standard-output capture per perfbench run, named
`<workload>.<side>.<pair>.out` with side `base` or `change`. The last line
of each capture is perfbench's summary object
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

For every workload and every `end_to_end` metric in BENCHMARK.json (read
from the current directory), prints the median over the base runs and over
the change runs. Exits 1 when a change run is not `correct`, when a
workload has no runs on either side, or when a change median is worse than
the base median by more than the metric's `bound` (a share of the base
median) in its `better` direction. The gate has no threshold of its own.
"""

import json
import statistics
import sys
from pathlib import Path


def summary(path):
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(runs_dir):
    bench = json.loads(Path("BENCHMARK.json").read_text())
    failed = False
    print(f"{'workload':<14} {'metric':<26} {'better':<7} {'bound':>5} "
          f"{'base':>14} {'change':>14} {'change/base':>11}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"base": [], "change": []}
        for side in runs:
            for path in sorted(Path(runs_dir).glob(f"{workload}.{side}.*.out")):
                s = summary(path)
                if s is None:
                    print(f"{path.name}: no summary line")
                    failed = True
                    continue
                if side == "change" and s.get("correct") is not True:
                    print(f"{path.name}: change run not correct "
                          f"(failed {s.get('failed')} of {s.get('attempted')})")
                    failed = True
                runs[side].append(s["metrics"])
        if not runs["base"] or not runs["change"]:
            print(f"{workload}: {len(runs['base'])} base runs, "
                  f"{len(runs['change'])} change runs")
            failed = True
            continue
        for metric in bench["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            base = statistics.median(m[name]["value"] for m in runs["base"])
            change = statistics.median(m[name]["value"] for m in runs["change"])
            if better == "higher":
                worse = change < base * (1 - bound)
            else:
                worse = change > base * (1 + bound)
            ratio = change / base if base else float("nan")
            verdict = "WORSE" if worse else "ok"
            failed |= worse
            print(f"{workload:<14} {name:<26} {better:<7} {bound:>5} "
                  f"{base:>14.6g} {change:>14.6g} {ratio:>11.4f}  {verdict}")
        print(f"{workload:<14} runs: {len(runs['base'])} base, "
              f"{len(runs['change'])} change")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
