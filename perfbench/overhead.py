"""Compare the traced replay with the untraced commands, run by run.

    python3 perfbench/overhead.py --workload village30 --seeds 1-3

For each seed, runs run.py with --trace 0 and --trace 1 back to back (the
order alternates between seeds) and prints, per command, the untraced wall
time (the median of its samples in the run) against cli.import_s plus the wall time of the
command's top-level spans. The two totals are reached independently: one
from outside the process, one summed from spans inside it. The last table
gives the median ratio per command over the seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from spread import parse_seeds  # noqa: E402


def run(workload, seed, trace, seconds):
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(HERE, "out", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def ratios(untraced, traced) -> dict[str, tuple[float, float]]:
    import_s = traced["metrics"]["cli.import_s"]["value"]
    walls = {"simulate": untraced["simulate"]["wall_s"]}
    for name in untraced["rounds"][0]:
        # the replay runs each command once, so its counterpart is a typical
        # single untraced run: the median sample, not the best one
        walls[name] = statistics.median(rec["wall_s"] for r in untraced["rounds"]
                                        for rec in r[name])
    return {name: (wall, import_s + traced["command_spans_s"][name])
            for name, wall in walls.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-3")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    per_command: dict[str, list[float]] = {}
    totals = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        records = {t: run(args.workload, seed, t, seconds) for t in order}
        pairs = ratios(records[0], records[1])
        print(f"seed {seed}: {'command':12s} {'untraced s':>10s} {'import+spans s':>14s} "
              f"{'ratio':>6s}")
        for name, (wall, traced_s) in pairs.items():
            per_command.setdefault(name, []).append(traced_s / wall)
            print(f"{'':8s}{name:12s} {wall:10.3f} {traced_s:14.3f} {traced_s / wall:6.3f}")
        u = sum(w for w, _ in pairs.values())
        t = sum(s for _, s in pairs.values())
        totals.append(t / u)
        print(f"{'':8s}{'total':12s} {u:10.3f} {t:14.3f} {t / u:6.3f}")
    print("median ratio (import + spans) / untraced wall:")
    for name, vals in per_command.items():
        print(f"  {name:12s} {statistics.median(vals):6.3f}")
    print(f"  {'total':12s} {statistics.median(totals):6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
