"""Steadiness check: two sets of runs of the same code, compared against the bounds.

For each workload, runs `perfbench/run.py` RUNS times per set, each run with
another seed, one run at a time. For every end-to-end metric it prints each
set's median and its spread (interquartile range over median), and how far
the second median moved from the first. A spread above the metric's bound is
marked, except for `setup_s`: the host's speed switches between a fast and a
slow state, some runs spend all their set-ups in the slow one, and so its
spread between runs reaches about 30%. Its bound applies to how far its
median moves. A second median that differs from the first by more than the bound,
either way, is marked: the two sets ran the same code. The failed share of
operations must be equal in every run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(runs: int, workloads: list[str], seconds: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report, ok = {}, True
    for workload in workloads:
        sets = []
        for s in (0, 1):
            batch = []
            for r in range(runs):
                started = time.monotonic()
                batch.append(one_run(workload, 1000 * s + r + 1, seconds))
                print(f"{workload} set {s + 1} run {r + 1}: {time.monotonic() - started:.1f} s",
                      file=sys.stderr)
            sets.append(batch)
        shares = {res["failed"] / res["attempted"] for batch in sets for res in batch}
        correct = all(res["correct"] for batch in sets for res in batch)
        print(f"\n{workload}: correct={correct} failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        print(f"  {'metric':16s} {'set 1 median':>12s} {'spread':>8s}  "
              f"{'set 2 median':>12s} {'spread':>8s} {'moved':>7s}  {'bound':>6s}")
        report[workload] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row, cols = {}, []
            for i, batch in enumerate(sets):
                values = [res["metrics"][name]["value"] for res in batch]
                med, spr = statistics.median(values), spread(values)
                flag = "*" if spr > bound and name != "setup_s" else " "
                ok &= flag == " "
                cols.append(f"{med:12.4f} {spr:7.1%}{flag}")
                row[f"set{i + 1}"] = {"median": med, "spread": spr, "values": values}
            first, second = row["set1"]["median"], row["set2"]["median"]
            moved = (second - first) / first
            flag = "!" if abs(moved) > bound else " "
            ok &= flag == " "
            report[workload][name] = row
            print(f"  {name:16s} {cols[0]}  {cols[1]} {moved:+6.1%}{flag}  {bound:6.2f}")
    out = HERE / "out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\n{'steady' if ok else 'NOT steady'}; figures in {out.relative_to(ROOT)}")
    return 0 if ok else 1
