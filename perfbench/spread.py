"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload village30 --seeds 1-10

For every end-to-end metric: the median over the runs, the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, and that share against the metric's bound in BENCHMARK.json. Runs
go one after another; each run's result line is kept in
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(raw: str) -> list[int]:
    seeds = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    log_path = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    results = []
    with open(log_path, "a", encoding="utf-8") as log:
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            res["seed"] = seed
            log.write(json.dumps(res) + "\n")
            results.append(res)
            short = {k: round(v["value"], 3) for k, v in res["metrics"].items()}
            print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {short}", flush=True)
    print(f"{'metric':14s} {'median':>10s} {'IQR/med':>8s} {'bound':>6s}  within bound/3")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        share = (q3 - q1) / med
        print(f"{m['name']:14s} {med:10.4f} {share:8.4f} {m['bound']:6.2f}  "
              f"{'yes' if share < m['bound'] / 3 else 'NO'}")
    fails = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share(s): {sorted(fails)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
