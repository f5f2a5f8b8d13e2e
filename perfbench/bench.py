"""lagraph benchmark: four CLI workloads, end-to-end metrics, per-layer spans.

    python3 perfbench/bench.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every experiment runs as a fresh ``lagraph`` CLI process, started through
``child.py``, which times the experiment from outside the package. The
workload seed goes to the CLI's ``--seeds``. A run repeats the workload
until ``--seconds`` is used up (at least twice, so the metrics CSV of two
runs of the same code can be compared byte for byte) and reports medians.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of the same command and prints the per-layer
metrics derived from the traced run's spans. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Outputs, records and span sidecars go to ``.perfbench_out/``.
See ``README.md`` beside this file for the metrics and why each workload
exists.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_LAUNCHES = 5
MIN_RUNS = 2
RUN_DEADLINE_S = 170.0
# family-wise false-alarm rate of the Monte Carlo z-gate over all rows
MC_FAMILY_ALPHA = 1e-3


@dataclass(frozen=True)
class Workload:
    """One CLI command at a stated size; ``config`` is deep-merged over the defaults."""

    name: str
    command: str
    flags: tuple[str, ...]
    config: dict
    metrics_csv: str
    arms_per_seed: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pipeline_sgc_16k", "pipeline", (), {"dataset": {"n": 16000}}, "pipeline.csv", 2,
            "full method at the largest size: classifier and two-hop refinement dominate, "
            "node model under 5%, large working set"),
        Workload(
            "ablation_gcn_2k", "ablation", (), {"dataset": {"n": 2000}, "model": {"kind": "gcn"}},
            "ablation.csv", 4,
            "four GCN fits dominate (gather_sum, per-epoch transpose); one classifier shared by "
            "three refine arms"),
        Workload(
            "sweep_ppre_4k", "sweep", ("--kind", "p_pre"), {"dataset": {"n": 4000}},
            "sweep_ppre.csv", 7,
            "six add-only refinements with the oracle ranking one pool per node: two-hop and "
            "pool scoring dominate, classifier never runs"),
        Workload(
            "theory_mc", "theory", ("--trials", "200000"), {}, "theory_sweep.csv", 45,
            "Monte Carlo aggregation: few large hashing batches plus ndtri; only workload "
            "that measures the theory layer"),
    )
}


@dataclass
class Invocation:
    """One CLI process: its timings, peak RSS, exit status and outputs."""

    mode: str
    out_dir: str
    setup_s: float = math.nan
    wall_s: float = math.nan
    peak_rss_mb: float = math.nan
    record: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def invoke(mode: str, argv: list[str], out_dir: str, deadline: float) -> Invocation:
    """Start ``child.py`` for one CLI command and wait for it, at most until ``deadline``."""
    os.makedirs(out_dir, exist_ok=True)
    inv = Invocation(mode=mode, out_dir=out_dir)
    record_path = os.path.join(out_dir, "record.json")
    cmd = [sys.executable, CHILD, record_path, mode, "--", *argv, "--output-dir", out_dir]
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    inv.errors.append("timed out")
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
    inv.peak_rss_mb = usage.ru_maxrss / 1024.0
    with open(os.path.join(out_dir, "stderr.txt"), "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    failed_lines = [line for line in stderr.splitlines() if line.startswith("FAILED")]
    if exit_code != 0:
        inv.errors.append(f"exit code {exit_code}: {stderr.strip()[-500:]}")
    if failed_lines:
        inv.errors.append(f"{len(failed_lines)} FAILED line(s)")
    if os.path.exists(record_path):
        with open(record_path, "r", encoding="utf-8") as fh:
            inv.record = json.load(fh)
    if "t_enter" in inv.record:
        inv.setup_s = inv.record["t_enter"] - t0
        if "t_exit" in inv.record:
            inv.wall_s = inv.record["t_exit"] - inv.record["t_enter"]
    elif not inv.errors:
        inv.errors.append("the experiment never started")
    return inv


def _data_rows(text: str) -> list[dict]:
    """Per-seed rows of a metrics CSV (summary rows dropped), numbers as floats."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        if row.get("seed") in ("mean", "std"):
            continue
        rows.append({k: (v if k in ("experiment", "arm", "seed", "config_hash", "mode") else float(v))
                     for k, v in row.items()})
    return rows


def _mean(xs) -> float:
    xs = [x for x in xs if not math.isnan(x)]
    return statistics.fmean(xs) if xs else math.nan


def refine_quality(rows: list[dict]) -> dict:
    """Seed means of accuracy gain, ratio gain and held-out p - q over non-origin arms."""
    seeds = sorted({r["seed"] for r in rows})
    acc, ratio, pq = [], [], []
    for seed in seeds:
        mine = [r for r in rows if r["seed"] == seed]
        origin = next(r for r in mine if r["arm"] == "origin")
        arms = [r for r in mine if r["arm"] != "origin"]
        acc.append(_mean(r["acc_test"] for r in arms) - origin["acc_test"])
        ratio.append(_mean(r["ratio_after"] - r["ratio_before"] for r in arms))
        pq.append(_mean(r["p"] - r["q"] for r in arms))
    return {"acc_test_gain": _mean(acc), "ratio_gain": _mean(ratio), "p_minus_q": _mean(pq)}


def gate_pipeline(rows: list[dict], out_dir: str) -> tuple[dict, list[str]]:
    """Criterion 5's bounds: p - q >= 0.3, ratio gain >= 0.10, accuracy gain >= 0.03."""
    quality = refine_quality(rows)
    refined = [r for r in rows if r["arm"] == "refined"]
    worst_pq = min(r["p"] - r["q"] for r in refined)
    worst_gain = min(r["ratio_after"] - r["ratio_before"] for r in refined)
    errors = []
    if not worst_pq >= 0.3:
        errors.append(f"held-out p - q {worst_pq:.4f} < 0.3")
    if not worst_gain >= 0.10:
        errors.append(f"ratio gain {worst_gain:.4f} < 0.10")
    if not quality["acc_test_gain"] >= 0.03:
        errors.append(f"accuracy gain {quality['acc_test_gain']:.4f} < 0.03")
    return quality, errors


def gate_ablation(rows: list[dict], out_dir: str) -> tuple[dict, list[str]]:
    """Refined arms beat origin; filtering arms raise the same-label ratio.

    Criterion 7's compose bound is reported as ``compose_margin`` only.
    """
    quality = refine_quality(rows)
    errors = []
    for seed in sorted({r["seed"] for r in rows}):
        mine = {r["arm"]: r for r in rows if r["seed"] == seed}
        origin = mine["origin"]["acc_test"]
        for arm in ("filter", "add", "filter_add"):
            if not mine[arm]["acc_test"] > origin:
                errors.append(f"seed {seed} {arm} acc_test {mine[arm]['acc_test']:.4f} <= origin {origin:.4f}")
        for arm in ("filter", "filter_add"):
            if not mine[arm]["ratio_after"] > mine[arm]["ratio_before"]:
                errors.append(f"seed {seed} {arm} ratio_after <= ratio_before")
    means = {arm: _mean(r["acc_test"] for r in rows if r["arm"] == arm)
             for arm in ("filter", "add", "filter_add")}
    quality["compose_margin"] = means["filter_add"] - (max(means["filter"], means["add"]) - 0.01)
    return quality, errors


def gate_sweep(rows: list[dict], out_dir: str) -> tuple[dict, list[str]]:
    """Spearman(acc_test, p_pre) >= 0.9 over the sweep arms (seed means)."""
    from scipy import stats

    quality = refine_quality(rows)
    arms = sorted({r["arm"] for r in rows if r["arm"] != "origin"})
    acc = [_mean(r["acc_test"] for r in rows if r["arm"] == arm) for arm in arms]
    pre = [_mean(r["p_pre"] for r in rows if r["arm"] == arm) for arm in arms]
    rho = float(stats.spearmanr(pre, acc).statistic)
    quality["spearman_acc_p_pre"] = rho
    del quality["p_minus_q"]
    errors = [] if rho >= 0.9 else [f"Spearman(acc_test, p_pre) {rho:.4f} < 0.9"]
    return quality, errors


def gate_theory(rows: list[dict], out_dir: str) -> tuple[dict, list[str]]:
    """Propositions pass and every Monte Carlo row agrees with its closed form.

    A row passes when ``|mc_mean - analytic| / mc_std_error`` stays under the
    two-sided Bonferroni bound for :data:`MC_FAMILY_ALPHA` over all rows
    (about 4.24 for 45 rows), so a correct program fails the gate on about
    one seed in a thousand.
    """
    from scipy.special import ndtri

    with open(os.path.join(out_dir, "theory_propositions.json"), "r", encoding="utf-8") as fh:
        props = json.load(fh)
    z = [abs(r["mc_mean"] - r["analytic"]) / r["mc_std_error"] for r in rows]
    bound = float(ndtri(1.0 - MC_FAMILY_ALPHA / (2 * len(rows))))
    quality = {"mc_max_abs_z": max(z), "mc_z_bound": bound}
    errors = []
    if not props["passed"]:
        errors.append("propositions failed")
    if not max(z) <= bound:
        errors.append(f"max |z| {max(z):.3f} > {bound:.3f}")
    return quality, errors


GATES = {
    "pipeline_sgc_16k": gate_pipeline,
    "ablation_gcn_2k": gate_ablation,
    "sweep_ppre_4k": gate_sweep,
    "theory_mc": gate_theory,
}

QUALITY_UNITS = {"acc_test_gain": "accuracy", "ratio_gain": "ratio", "p_minus_q": "rate",
                 "mc_max_abs_z": "SE", "mc_z_bound": "SE", "compose_margin": "accuracy",
                 "spearman_acc_p_pre": "rho"}


def environment(setup_record: dict, workload: Workload) -> dict:
    """Where and on what the numbers were measured."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lagraph")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        **setup_record.get("env", {}),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **setup_record.get("resolved", {}),
        "command": ["lagraph", workload.command, *workload.flags],
        "config": workload.config,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return its result (metrics, checks, environment)."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    work_dir = os.path.join(OUT, workload.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cfg_path = os.path.join(work_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh)
    argv = [workload.command, "--config", cfg_path, "--seeds", str(seed), *workload.flags]

    # the first launch compiles bytecode, which users pay once, not per run
    warm = invoke("setup", argv, os.path.join(work_dir, "warmup"), deadline)
    errors = [f"warmup: {e}" for e in warm.errors]
    setup = []
    if not trace:
        setup = [invoke("setup", argv, os.path.join(work_dir, f"setup{i}"), deadline)
                 for i in range(SETUP_LAUNCHES)]
    for i, inv in enumerate(setup):
        errors += [f"setup{i}: {e}" for e in inv.errors]

    modes = ("run", "trace") if trace else ("run",)
    runs: list[Invocation] = []
    loop_start = time.monotonic()
    while not errors:
        mode = modes[len(runs) % len(modes)]
        runs.append(invoke(mode, argv, os.path.join(work_dir, f"{mode}{len(runs)}"), deadline))
        elapsed = time.monotonic() - loop_start
        per_run = elapsed / len(runs)
        if runs[-1].errors or (len(runs) >= MIN_RUNS and elapsed + per_run > seconds):
            break

    # correctness: clean exits, byte-identical metrics CSV, then the workload's gate
    reference = None
    quality: dict = {}
    for i, inv in enumerate(runs):
        path = os.path.join(inv.out_dir, workload.metrics_csv)
        if not inv.errors and not os.path.exists(path):
            inv.errors.append(f"{workload.metrics_csv} not written")
        if not inv.errors:
            with open(path, "rb") as fh:
                body = fh.read()
            if reference is None:
                reference = body
                try:
                    quality, gate_errors = GATES[workload.name](_data_rows(body.decode()), inv.out_dir)
                except Exception as exc:  # noqa: BLE001 - malformed CLI output fails the run, not the benchmark
                    gate_errors = [f"gate could not read outputs: {exc!r}"]
                inv.errors += gate_errors
            elif body != reference:
                inv.errors.append(f"{workload.metrics_csv} differs from the first run")
        errors += [f"{inv.mode}{i}: {e}" for e in inv.errors]
    attempted = workload.arms_per_seed * max(len(runs), 1)

    untraced = [inv for inv in runs if inv.mode == "run" and not math.isnan(inv.wall_s)]
    traced = [inv for inv in runs if inv.mode == "trace" and not inv.errors]
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(warm.record, workload),
        "quality": quality,
        "errors": errors,
        # any failed check (FAILED line, exit code, CSV mismatch, gate) fails every arm
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "samples": {
            "wall_s": [inv.wall_s for inv in untraced],
            "setup_s": [inv.setup_s for inv in setup + untraced],
            "peak_rss_mb": [inv.peak_rss_mb for inv in untraced],
        },
        "bench_elapsed_s": time.monotonic() - started,
    }
    if trace:
        result["metrics"] = _trace_metrics(traced, untraced) if traced and untraced else {}
    else:
        result["metrics"] = {name: statistics.median(vals) for name, vals in result["samples"].items()
                             if vals}
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _trace_metrics(traced: list[Invocation], untraced: list[Invocation]) -> dict:
    untraced_wall = statistics.median(inv.wall_s for inv in untraced)
    per_run = [spans.layer_metrics(spans.read_spans(os.path.join(inv.out_dir, "spans.json")),
                                   untraced_wall) for inv in traced]
    return {name: statistics.median(m[name] for m in per_run) for name in spans.PER_LAYER}


def report(result: dict, units: dict[str, str]) -> None:
    """Print a result for people: environment, metrics with units, checks."""
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"({result['bench_elapsed_s']:.1f} s)")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, unit in units.items():
        if name in result["metrics"]:
            line = f"{name} = {result['metrics'][name]:.6g} {unit}"
            samples = result["samples"].get(name)
            if samples and not result["trace"]:
                line += f"  (median of {len(samples)}: " + ", ".join(f"{x:.4g}" for x in samples) + ")"
            if name in spans.RATIOS:
                num, den = spans.RATIOS[name]
                line += f"  ({num} {result['metrics'][num]:.6g} / {den} {result['metrics'][den]:.6g})"
            print(line)
    for name, value in result["quality"].items():
        print(f"{name} = {value:.6g} {QUALITY_UNITS[name]}")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_arm_ratio = {ratio:.6g} ratio  ({result['failed']} failed / {result['attempted']} attempted arms)")
    for err in result["errors"]:
        print(f"CHECK FAILED {err}")
    print("correctness: " + ("PASS" if not result["errors"] else "FAIL"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "lagraph", "cli.py")):
        print(f"error: no lagraph sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = spans.PER_LAYER if args.trace else END_TO_END
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(result, units)
        results.append(result)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r["metrics"].items()}
    correct = all(not r["errors"] for r in results) and all(
        set(r["metrics"]) == set(units) for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
