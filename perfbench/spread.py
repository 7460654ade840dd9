#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--baseline FILE]

Runs the untraced benchmark command from BENCHMARK.json once per seed and
workload, one run at a time, and reports per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
against the metric's bound.  ``--baseline`` names an earlier summary and
adds the change of each median, signed so that positive is worse.  The
summary goes to ``perfbench/out/spread-<workloads>-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    base = json.loads(args.baseline.read_text()) if args.baseline else {}

    summary = {}
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {"wall_s": {"values": walls}}
        print(f"{workload}  ({len(args.seeds)} seeds, {max(walls):.1f} s longest run)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            row = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread}
            line = f"  {name:14s} median {med:11.5g}  spread {spread:6.3f}"
            if name in spec:
                bound = spec[name]["bound"]
                line += f"  bound {bound:.2f}  {'ok' if spread <= bound / 3 else 'WIDE' if spread > bound else 'over 1/3'}"
                old = base.get(workload, {}).get(name)
                if old:
                    sign = 1 if spec[name]["better"] == "lower" else -1
                    row["worse_by"] = sign * (med - old["median"]) / old["median"]
                    line += f"  worse by {row['worse_by']:+.3f}"
            summary[workload][name] = row
            print(line)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spread-{args.workloads.replace(',', '+')}-{args.seeds[0]}-{args.seeds[-1]}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"summary written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
