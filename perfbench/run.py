"""fembem benchmark: adaptive FEM-BEM inexact Uzawa runs, timed end to end
and layer by layer.

    python3 perfbench/run.py --workload lshape_fixed --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; ``fembem`` is imported from its
``src/`` (it need not be installed).  Each repetition runs in a fresh
single process with BLAS/OpenMP threads pinned to 1 (``rep.py``);
repetitions follow one another (closed loop, one solve at a time) until
the next one would overrun ``--seconds``.  With ``--trace 0`` every
repetition is untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced repetitions alternate, the per-layer
metrics come from the traced ones and the tracing overhead is the
difference of the median wall times.  ``--smoke`` shrinks every
workload to a few hundred elements; ``--workload all`` runs every
workload untraced and traced and ends with a table of every metric.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the details (sample counts, tail percentiles, CSV fingerprint,
environment), which are also written to ``.perfbench_out/``.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "scripts" / "configs"
OUT = ROOT / ".perfbench_out"

PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
DEADLINE_S = 170.0        # the whole run, repetitions included, ends before this
MIN_REPS = {0: 3, 1: 2}   # by --trace: three untraced, or one untraced/traced pair

# budget: nominal element budget (seed 0); budget_range: the seeded budgets,
# chosen inside one outer step of the seed commit's trajectory so that every
# seed does the same solver work there; tol: the estTOT of time_to_tol_s,
# the value the seed commit reaches at about 3/4 of its wall time.
WORKLOADS = {
    "lshape_fixed": dict(config="lshape_gamma095.cfg", budget=920,
                         budget_range=(870, 985), tol=0.148,
                         smoke_budget=300, smoke_tol=0.265),
    "lshape_adaptive": dict(config="lshape_adaptive_a005.cfg", budget=10000,
                            budget_range=(9300, 10700), tol=0.077,
                            smoke_budget=400, smoke_tol=0.75),
    "zshape_exact": dict(config="zshape_nonlinear.cfg", budget=5200,
                         budget_range=(4850, 5600), tol=0.132,
                         smoke_budget=300, smoke_tol=0.93),
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("time_to_tol_s", "s"),
              ("est_total_final", "1"), ("err_total_final", "1"),
              ("peak_rss_mb", "MB"))

# The end-to-end times are reported at a reference machine speed: each
# repetition's seconds times PROBE_REF_S over the seconds its speed probe
# took (rep.speed_probe, run in the same process after the solve).  The
# shared VM this was built on drifts by up to 40 % in speed between
# runs minutes apart; the probe cancels that drift.  PROBE_REF_S is the
# probe's typical time there, so the scaled values stay near raw seconds.
PROBE_REF_S = 0.40
TIMED = ("setup_s", "wall_s", "time_to_tol_s")


def budget_for(spec: dict, seed: int, smoke: bool) -> int:
    if smoke:
        return spec["smoke_budget"]
    if seed == 0:
        return spec["budget"]
    return random.Random(seed).randint(*spec["budget_range"])


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "threads": PINNED_THREADS,
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def summarize(values: list) -> dict:
    """Median, the highest percentile with ten samples above it, and the samples."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "n": n, "tail": tail, "values": values}


def at_reference_speed(record: dict, name: str) -> float:
    if name in TIMED:
        return record[name] * PROBE_REF_S / record["probe_s"]
    return record[name]


def run_rep(out, spec, budget, tol, traced, index, deadline):
    """One repetition in a fresh process; returns (record or None, error)."""
    csv_path = out / f"rep{index:03d}{'_traced' if traced else ''}.csv"
    cmd = [sys.executable, str(HERE / "rep.py"), "--config", str(CONFIGS / spec["config"]),
           "--budget", str(budget), "--tol", repr(tol), "--csv", str(csv_path)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, **PINNED_THREADS)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "repetition timed out"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no result line"
    record["traced"] = traced
    record["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return record, None


def run_workload(workload, seed, seconds, trace, smoke):
    """Repeat one workload for ``seconds``; returns (details, result) or None."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spec = WORKLOADS[workload]
    budget = budget_for(spec, seed, smoke)
    tol = spec["smoke_tol" if smoke else "tol"]
    out = OUT / f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    outcomes, durations = [], []
    while len(outcomes) < MIN_REPS[trace] or (
            time.monotonic() - start + statistics.mean(durations) <= seconds):
        if time.monotonic() >= deadline:
            break
        traced = trace == 1 and len(outcomes) % 2 == 1
        t0 = time.monotonic()
        outcomes.append(run_rep(out, spec, budget, tol, traced, len(outcomes), deadline))
        durations.append(time.monotonic() - t0)

    # correctness: each repetition's own checks, then one CSV for all of them
    fingerprint = next((r["csv_sha256"] for r, _ in outcomes
                        if r is not None and not r["problems"]), None)
    good, errors = [], []
    for record, error in outcomes:
        if record is not None and record["problems"]:
            error = "; ".join(record["problems"])
        elif record is not None and record["csv_sha256"] != fingerprint:
            error = "CSV differs from the other repetitions'"
        if error is None:
            good.append(record)
        else:
            errors.append(error)
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (trace == 1 and not traced):
        for error in errors:
            print(f"repetition failed: {error}", file=sys.stderr)
        print(f"{workload}: no successful repetition to report", file=sys.stderr)
        return None

    if trace == 0:
        units = dict(END_TO_END)
        summary = {name: summarize([at_reference_speed(r, name) for r in untraced])
                   for name in units}
        summary.update({f"raw_{name}": summarize([r[name] for r in untraced])
                        for name in TIMED + ("probe_s",)})
    else:
        units = {name: layer_unit(name) for name in traced[0]["layers"]}
        summary = {name: summarize([r["layers"][name] for r in traced]) for name in units}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in untraced))
        units["tracing_overhead_s"] = "s"
        summary["tracing_overhead_s"] = {"median": overhead, "n": len(traced),
                                         "tail": None, "values": [overhead]}
    details = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "config": spec["config"], "budget_elements": budget, "tol": tol,
        "csv_sha256": fingerprint, "fail_rate": len(errors) / len(outcomes),
        "errors": errors,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "summary": summary, "environment": environment(),
    }
    (out / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    result = {"correct": not errors, "attempted": len(outcomes), "failed": len(errors),
              "metrics": {name: {"value": summary[name]["median"], "unit": units[name]}
                          for name in units}}
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or 'all': each untraced then traced, "
                         "followed by a table of every metric")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at a few hundred elements")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fembem" / "uzawa.py").is_file() or not CONFIGS.is_dir():
        print(f"no fembem sources under {ROOT}: run from a source checkout",
              file=sys.stderr)
        return 1
    if args.workload != "all":
        outcome = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        if outcome is None:
            return 1
        for line in outcome:
            print(json.dumps(line))
        return 0

    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            outcome = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
            if outcome is None:
                return 1
            details, result = outcome
            rows.append((workload, "correct", result["correct"], ""))
            rows.append((workload, "fail_rate", details["fail_rate"], "ratio"))
            rows.append((workload, "csv_sha256", details["csv_sha256"][:16], ""))
            rows += [(workload, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items()]
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:16s} {name:50s} {shown:>16s} {unit}")
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(("_share", "_per_mesh")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
