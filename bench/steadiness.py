"""Do two sets of benchmark runs, taken apart in time, agree within the bounds?

    python3 bench/steadiness.py

Reads BENCHMARK.json at the root of the checkout and runs its command on
every workload once per seed (seeds 1..RUNS), then the whole set again.
For each end-to-end metric and workload it prints both sets' medians and
quartiles, the spread (Q3 - Q1) / median of each set and the shift of the
second median against the first, next to the metric's bound.  Every
spread and every shift, for the better or the worse, must stay within
the bound, and the share of failed operations must be the same in both
sets.  Raw results go to bench/results/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # seeds per workload and set


def one_run(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median), quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for set_no in (1, 2):
        for workload in names:
            for seed in range(1, RUNS + 1):
                result = one_run(spec, workload, seed)
                results.setdefault(workload, {}).setdefault(set_no, []).append(result)
                print(f"set {set_no} {workload} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    out = ROOT / "bench" / "results"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    ok = True
    print(f"{'workload':9} {'metric':12} {'bound':>5}  {'set 1: median [Q1, Q3] spread':>37}"
          f"  {'set 2: median [Q1, Q3] spread':>37} {'shift':>7}")
    for workload in names:
        sets = results[workload]
        shares = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for n, rs in sets.items()}
        if not all(r["correct"] for rs in sets.values() for r in rs) or shares[1] != shares[2]:
            ok = False
            print(f"{workload}: incorrect output or failed share {shares[1]} != {shares[2]}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in sets[n]]) for n in (1, 2)]
            shift = stats[1][0] / stats[0][0] - 1
            steady = max(stats[0][3], stats[1][3]) <= bound and abs(shift) <= bound
            ok &= steady
            cells = [f"{m:8.4f} [{q1:8.4f}, {q3:8.4f}] {s:6.3f}" for m, q1, q3, s in stats]
            print(f"{workload:9} {name:12} {bound:5.2f}  {cells[0]:>37}  {cells[1]:>37} {shift:+7.3f}"
                  + ("" if steady else "  OUT OF BOUND"))
    print("all within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
