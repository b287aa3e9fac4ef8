"""Self-test of the benchmark's output checks on a tiny scenario.

    python3 perfbench/selftest.py

Runs the village30 command set, PRIMARY-mode exposure included, on the small
scenario in scenarios/tiny.ini, checks that every check passes on the
program's real outputs, and then that each check fails once one cell of
the output it guards is corrupted. Exits 0 when every corruption is caught.
"""

import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from run import OUT, run_round, simulate  # noqa: E402
from workloads import TINY  # noqa: E402

SEED = 3


def rewrite_csv(path, edit):
    """Apply edit(rows) to a CSV's rows (header first) and write it back."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def first_row(rows, pred):
    col = {name: i for i, name in enumerate(rows[0])}
    for row in rows[1:]:
        if pred(row, col):
            return row, col
    raise AssertionError("no row to corrupt")


def bump_cell(path, column, delta, pred=lambda row, col: True):
    def edit(rows):
        row, col = first_row(rows, pred)
        raw = row[col[column]]
        row[col[column]] = (str(int(raw) + delta) if raw.lstrip("-").isdigit()
                            else f"{float(raw) + delta:.6f}")
    rewrite_csv(path, edit)


def shift_critical(path):
    """One more critical pair, with torque recomputed so the row stays consistent."""
    def edit(rows):
        row, col = first_row(rows, lambda r, c: True)
        crit = int(row[col["critical_pairs"]]) + 1
        row[col["critical_pairs"]] = str(crit)
        row[col["torque"]] = f"{crit / int(row[col['connected_pairs']]):.6f}"
    rewrite_csv(path, edit)


def shift_connected(path):
    """One more connected pair on every row of the first village, consistently."""
    def edit(rows):
        col = {name: i for i, name in enumerate(rows[0])}
        village = rows[1][col["village"]]
        for row in rows[1:]:
            if row[col["village"]] == village:
                conn = int(row[col["connected_pairs"]]) + 1
                row[col["connected_pairs"]] = str(conn)
                row[col["torque"]] = f"{int(row[col['critical_pairs']]) / conn:.6f}"
    rewrite_csv(path, edit)


def move_exposure(path, inp):
    """Move one count between xi_L and xi_notL at the first sampled focal node,
    which keeps every row's sum and every bound intact."""
    village = inp.villages()[0]
    focal = inp.nodes(village)[0]

    def edit(rows):
        row, col = first_row(rows, lambda r, c: r[c["village"]] == village
                             and r[c["node"]] == focal
                             and int(r[c["xi_L"]]) + int(r[c["xi_notL"]]) > 0)
        xl, xr = int(row[col["xi_L"]]), int(row[col["xi_notL"]])
        xl, xr = (xl + 1, xr - 1) if xr > 0 else (xl - 1, xr + 1)
        row[col["xi_L"]], row[col["xi_notL"]] = str(xl), str(xr)
    rewrite_csv(path, edit)


def overflow_exposure(path):
    def edit(rows):
        row, col = first_row(rows, lambda r, c: True)
        row[col["xi_L"]] = str(int(row[col["N_k"]]) + 1)
    rewrite_csv(path, edit)


def edit_fit(path, field, delta, term_index=None):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if term_index is None:
        payload[field] += delta
    else:
        payload["terms"][term_index][field] += delta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def swap_ci(path):
    def edit(rows):
        row, col = first_row(rows, lambda r, c: True)
        i, j = col["ci_low"], col["ci_high"]
        row[i], row[j] = row[j], row[i]
    rewrite_csv(path, edit)


def untreat_village(path):
    def edit(rows):
        col = {name: i for i, name in enumerate(rows[0])}
        village = rows[1][col["village"]]
        for row in rows[1:]:
            if row[col["village"]] == village:
                for name, i in col.items():
                    if name.startswith("treated_"):
                        row[i] = "0"
    rewrite_csv(path, edit)


def main() -> int:
    work = os.path.join(OUT, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    data_dir = os.path.join(work, "data")
    log_path = os.path.join(work, "stderr.log")
    os.makedirs(work)
    simulate(TINY, SEED, data_dir, log_path)
    records, out_dirs = run_round(TINY, SEED, data_dir, os.path.join(work, "clean"),
                                  log_path)
    bad = [name for name, runs in records.items() if any(r["rc"] != 0 for r in runs)]
    if bad:
        print(f"commands failed on the tiny scenario: {bad}; see {log_path}")
        return 1
    out_dirs = out_dirs[0]

    inp = checks.Inputs(data_dir, TINY.config)
    torque_csv = os.path.join(out_dirs["torque"], "torque.csv")

    def primary(path, inputs):
        checks.check_exposure(path, inputs, "story", [2, 3], "primary",
                              TINY.exposure_focal, TINY.exposure_village_stride)

    def secondary(path, inputs):
        checks.check_exposure(path, inputs, "story", [2, 3, 4], "secondary",
                              TINY.exposure_focal, TINY.exposure_village_stride)

    def reduce(path, inputs):
        checks.check_reduce(path, checks.check_fit(out_dirs["fit"]), "closest_friend")

    def experiment(path, inputs):
        checks.check_experiment(path, checks.check_torque(torque_csv, inputs, None), inputs)

    def simulate_check(path, inputs):
        checks.check_simulate(checks.Inputs(os.path.dirname(path), TINY.config))

    # (label, output file, its check, corruption)
    cases = [
        ("simulate: a village left untreated", "data/attributes.csv", simulate_check,
         untreat_village),
        ("torque: torque cell", "torque/torque.csv",
         lambda p, i: checks.check_torque(p, i, None),
         lambda p: bump_cell(p, "torque", 0.01)),
        ("torque: critical_pairs vs BFS", "torque/torque.csv",
         lambda p, i: checks.check_torque(p, i, None), shift_critical),
        ("torque: connected_pairs vs union-find", "torque/torque.csv",
         lambda p, i: checks.check_torque(p, i, None), shift_connected),
        ("metrics: prevalence", "metrics/metrics.csv", checks.check_metrics,
         lambda p: bump_cell(p, "prevalence", 0.01)),
        ("metrics: dyads", "metrics/metrics.csv", checks.check_metrics,
         lambda p: bump_cell(p, "dyads", 1)),
        ("exposure: xi_L above N_k", "exposure/exposure.csv", secondary,
         overflow_exposure),
        ("exposure: xi_L vs BFS", "exposure/exposure.csv", secondary,
         lambda p: move_exposure(p, inp)),
        ("exposure PRIMARY: xi_L vs BFS", "exposure_primary/exposure.csv", primary,
         lambda p: move_exposure(p, inp)),
        ("fit: coefficient", "fit/fit.json", lambda p, i: checks.check_fit(os.path.dirname(p)),
         lambda p: edit_fit(p, "coefficient", 0.01, term_index=1)),
        ("fit: std_error", "fit/fit.json", lambda p, i: checks.check_fit(os.path.dirname(p)),
         lambda p: edit_fit(p, "std_error", 0.001, term_index=1)),
        ("fit: loglik", "fit/fit.json", lambda p, i: checks.check_fit(os.path.dirname(p)),
         lambda p: edit_fit(p, "loglik", 0.01)),
        ("reduce: reduction", "reduce/reduce.csv", reduce,
         lambda p: bump_cell(p, "reduction", 0.001)),
        ("reduce: ci_low above ci_high", "reduce/reduce.csv", reduce, swap_ci),
        ("screen: z", "screen/screen.csv", lambda p, i: checks.check_screen(p, i.topics),
         lambda p: bump_cell(p, "z", 0.01)),
        ("screen: p_value", "screen/screen.csv", lambda p, i: checks.check_screen(p, i.topics),
         lambda p: bump_cell(p, "p_value", 0.001)),
        ("experiment: mean_torque", "experiment/experiment.csv", experiment,
         lambda p: bump_cell(p, "mean_torque", 0.001)),
    ]
    failures = 0
    for label, rel, check, corrupt in cases:
        root = work if rel.startswith("data/") else os.path.join(work, "clean")
        clean = os.path.join(root, rel)
        check(clean, inp)  # passes on the real output
        copy_dir = os.path.join(work, "corrupt", os.path.dirname(rel))
        shutil.rmtree(copy_dir, ignore_errors=True)
        shutil.copytree(os.path.dirname(clean), copy_dir)
        path = os.path.join(copy_dir, os.path.basename(rel))
        corrupt(path)
        try:
            check(path, inp)
        except checks.CheckFailed as exc:
            print(f"caught   {label}: {exc}")
        else:
            print(f"MISSED   {label}")
            failures += 1
    print(f"{len(cases) - failures}/{len(cases)} corruptions caught")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
