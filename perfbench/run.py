"""torquenet benchmark: generate a workload, run its CLI commands, check them.

    python3 perfbench/run.py --workload village30 --seed 1 --seconds 10 --trace 0

Run from the root of a torquenet checkout. One run has three phases:

1. Set-up: ``torquenet simulate`` writes the workload's CSVs from --seed.
   ``setup_s`` is the time from this process's start to the end of it.
2. With ``--trace 0``, the workload's commands run one after another as
   ``python -m torquenet.cli ...`` (PYTHONPATH=src), each timed from outside
   (wall time, user + system CPU, peak RSS). Whole rounds of the
   workload's schedule repeat while another round is expected to end within
   --seconds (at least one round); each command's figures are its best
   sample in the run. With ``--trace 1`` the same calls (simulate first) run once more
   in this process through ``torquenet.cli.main``, with the library's
   functions wrapped in spans (see replay.py).
3. The outputs are checked against independent recounts (see checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics. A per-run record is also written to
``perfbench/out/results/<workload>-seed<seed>-trace<trace>.json``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, fill  # noqa: E402

STAGES = ("structure", "exposure", "estimate")


def child_env(blas_threads=None) -> dict:
    """The user's environment, with the source tree importable.

    BLAS threading is left at whatever the environment says, as users get,
    unless the workload pins it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TORQUENET_THREADS", None)
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return env


def run_cli(argv, log_path, blas_threads=None) -> dict:
    """Run one CLI command to completion; wall, CPU and peak RSS of the child."""
    cmd = [sys.executable, "-m", "torquenet.cli"] + list(argv)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(blas_threads), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


def thread_args(workload) -> list[str]:
    return ["--threads", str(workload.threads)] if workload.threads > 1 else []


def simulate_argv(workload, seed, data_dir) -> list[str]:
    return (["simulate", "--config", workload.config, "--seed", str(seed),
             "--out-dir", data_dir] + thread_args(workload))


def simulate(workload, seed, data_dir, log_path) -> dict:
    os.makedirs(data_dir, exist_ok=True)
    res = run_cli(simulate_argv(workload, seed, data_dir), log_path, workload.blas_threads)
    if res["rc"] != 0:
        raise RuntimeError(f"simulate exited {res['rc']}; see {log_path}")
    return res


def command_argv(workload, cmd, seed, data_dir, out_dir) -> list[str]:
    return (fill(cmd.argv, data=data_dir, out=out_dir, config=workload.config,
                 seed=seed) + ["--out-dir", out_dir] + thread_args(workload))


def run_round(workload, seed, data_dir, round_dir, log_path):
    """One pass over the workload's schedule.

    Returns each command's records (one per time it runs in the round) and
    a list of output maps, command name -> output directory: the first
    holds every command's first run, the next the second runs of the
    commands the schedule repeats, and so on.
    """
    records, out_dirs = {}, []
    for cmd in workload.round_order():
        runs = records.setdefault(cmd.name, [])
        out_dir = os.path.join(round_dir, cmd.name if not runs else f"{cmd.name}.{len(runs)}")
        os.makedirs(out_dir, exist_ok=True)
        rec = run_cli(command_argv(workload, cmd, seed, data_dir, out_dir), log_path,
                      workload.blas_threads)
        rec["stage"] = cmd.stage
        if rec["rc"] == 0:
            while len(out_dirs) <= len(runs):
                out_dirs.append({})
            out_dirs[len(runs)][cmd.name] = out_dir
        runs.append(rec)
    return records, out_dirs


def run_metrics(rounds) -> dict:
    """End-to-end metrics from each command's best sample.

    A command's wall time, CPU time and peak RSS are each its lowest over
    every time it ran in the run: on a shared machine other load only ever
    adds time, so the fastest sample is the one least disturbed by it.
    The stage and whole-sequence figures add up one best run of each
    command.
    """
    best = {}
    for name, first in rounds[0].items():
        samples = [rec for r in rounds for rec in r[name]]
        best[name] = {k: min(rec[k] for rec in samples)
                      for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        best[name]["stage"] = first[0]["stage"]
    m = {"wall_s": sum(c["wall_s"] for c in best.values())}
    for stage in STAGES:
        m[f"{stage}_s"] = sum(c["wall_s"] for c in best.values() if c["stage"] == stage)
    m["cpu_s"] = sum(c["cpu_s"] for c in best.values())
    m["peak_rss_mb"] = max(c["peak_rss_mb"] for c in best.values())
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torquenet", "cli.py")):
        print(f"error: no torquenet source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    data_dir = os.path.join(work, "data")
    log_path = os.path.join(work, "stderr.log")
    os.makedirs(work)

    setup = simulate(workload, args.seed, data_dir, log_path)
    setup_s = time.perf_counter() - T0

    from checks import CheckFailed, Inputs, check_outputs, check_same_files

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "simulate": setup}
    attempted = failed = 0
    correct = True
    if args.trace == 0:
        # whole rounds; another starts only if it should end within --seconds
        rounds = []
        start = time.perf_counter()
        while True:
            round_dir = os.path.join(work, f"round{len(rounds)}")
            records, out_dirs = run_round(workload, args.seed, data_dir, round_dir,
                                          log_path)
            samples = [rec for runs in records.values() for rec in runs]
            attempted += len(samples)
            failed += sum(rec["rc"] != 0 for rec in samples)
            rounds.append((records, out_dirs))
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        check_start = time.perf_counter()
        inputs = Inputs(data_dir, workload.config)
        try:
            for _, round_out_dirs in rounds:
                for out_dirs in round_out_dirs:
                    check_outputs(workload, inputs, out_dirs)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        record["check_s"] = time.perf_counter() - check_start
        values = run_metrics([r for r, _ in rounds])
        units = {"wall_s": "s", "structure_s": "s", "exposure_s": "s",
                 "estimate_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update({k: {"value": values[k], "unit": u} for k, u in units.items()})
        record["rounds"] = [r for r, _ in rounds]
    else:
        from replay import replay_workload

        # simulate again, then every command, each into its own directory
        names = ["simulate"] + [cmd.name for cmd in workload.commands]
        out_dirs = {name: os.path.join(work, "replay", name) for name in names}
        calls = [("simulate", simulate_argv(workload, args.seed, out_dirs["simulate"]))]
        calls += [(cmd.name, command_argv(workload, cmd, args.seed, data_dir,
                                          out_dirs[cmd.name]))
                  for cmd in workload.commands]
        for out_dir in out_dirs.values():
            os.makedirs(out_dir)
        result = replay_workload(calls, child_env(workload.blas_threads))
        attempted = len(calls)
        failed = sum(rc != 0 for rc in result.returncodes.values())
        out_dirs = {name: d for name, d in out_dirs.items()
                    if result.returncodes.get(name) == 0}
        inputs = Inputs(data_dir, workload.config)
        try:
            # the replayed simulate must write the CLI's bytes
            if "simulate" in out_dirs:
                check_same_files(out_dirs["simulate"], data_dir,
                                 ("edges.csv", "attributes.csv"))
            check_outputs(workload, inputs, out_dirs)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        metrics = result.metrics
        record["spans"] = result.spans
        record["command_spans_s"] = result.commands
        record["missing_hooks"] = result.missing_hooks

    record["machine"] = json.loads(subprocess.run(
        [sys.executable, os.path.join(HERE, "machine.py")], env=child_env(workload.blas_threads),
        check=True, capture_output=True, text=True).stdout)
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
