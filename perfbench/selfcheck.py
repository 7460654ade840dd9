#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. One seed gives byte-identical inputs in two fresh processes, and another
   seed gives different ones (SHA-256 of every matrix, vector, time and
   fixture file the program receives).
2. A short run of every workload, untraced and traced, prints every metric
   BENCHMARK.json names, with its unit, both as a ``name value unit`` line
   and in the JSON result line, and nothing else in that line.
3. In a directory holding only BENCHMARK.json and the benchmark's files the
   command exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHORT_SECONDS = "1"


def digest(workload: str, seed: int) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    w = run.make_workload(workload, seed)
    w.close()
    return w.digest


def _digest_in_child(workload, seed):
    out = subprocess.run([sys.executable, __file__, "--digest", workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        a, b, c = (_digest_in_child(name, s) for s in (7, 7, 8))
        check(a == b and a != c, f"{name}: seed 7 inputs identical twice ({a[:12]}), seed 8 differs")

    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[group]}
        for w in bench["workloads"]:
            cmd = [*bench["command"], "--workload", w["name"], "--seed", "7",
                   "--seconds", SHORT_SECONDS, "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{w['name']} trace {trace}: no JSON result line "
                             f"(exit {proc.returncode}): {proc.stderr[-300:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
            check(proc.returncode == 0 and result["correct"] is True
                  and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1,
                  f"{w['name']} trace {trace}: exit 0 with a well-formed result")
            check(got == want, f"{w['name']} trace {trace}: result has exactly the "
                               f"{len(want)} {group} metrics with their units")
            missing = [k for k, u in want.items() if (k, u) not in printed]
            check(not missing, f"{w['name']} trace {trace}: every metric printed as "
                               f"'name value unit'{' (missing ' + str(missing) + ')' if missing else ''}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    cmd = [*bench["command"], "--workload", bench["workloads"][0]["name"], "--seed", "1",
           "--seconds", SHORT_SECONDS, "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without the package source: exit {proc.returncode}, no result printed")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        print(digest(sys.argv[2], int(sys.argv[3])))
        sys.exit(0)
    sys.exit(main())
