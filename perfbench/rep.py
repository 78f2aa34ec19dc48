"""One benchmark repetition, run in a fresh process by ``run.py``.

    python3 perfbench/rep.py --config CFG --budget N --tol T --csv OUT [--trace]

Imports ``fembem`` from the checkout's ``src/``, builds the problem and
the driver (timed as set-up), runs the outer iteration (timed as wall),
timestamps every completed outer step, writes the CSV with
``fembem.cli.write_csv``, times the machine-speed probe and prints one
JSON object on stdout.  With ``--trace`` the layer callables are
wrapped first (see ``spans.py``) and the object also carries the
per-layer numbers.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

BAD_FLAGS = ("inner_budget_exceeded", "pcg_maxiter")


def speed_probe() -> float:
    """Seconds of a fixed NumPy/SciPy/Python kernel that shares no code with fembem.

    Its mix (small dense Cholesky, sort/unique over index triples, sparse
    mat-vecs, an interpreted loop) resembles the solver's, so it slows
    down with the machine; ``run.py`` divides the timings by it.
    """
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    a = rng.standard_normal((150, 150))
    spd = a @ a.T + 150.0 * np.eye(150)
    tri = rng.integers(0, 5000, (6000, 3))
    mat = (sp.random(3000, 3000, density=0.002, random_state=0, format="csr")
           + sp.eye(3000)).tocsr()
    x = rng.random(3000)
    t0 = time.perf_counter()
    for _ in range(50):
        np.linalg.cholesky(spd)
        np.unique(np.sort(tri, axis=1), axis=0, return_inverse=True)
        for _ in range(50):
            x = mat @ x
            x /= np.linalg.norm(x)
        acc = 0.0
        for k in range(20000):
            acc += k * 0.5
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--budget", type=int, required=True)
    ap.add_argument("--tol", type=float, required=True)
    ap.add_argument("--csv", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from fembem.cli import parse_config, write_csv
    from fembem.model import make_problem
    from fembem.uzawa import UzawaDriver

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    step_done = []
    plain_step = UzawaDriver.step

    def timed_step(self, j):
        record = plain_step(self, j)
        step_done.append((time.perf_counter(), record.est_total))
        return record

    UzawaDriver.step = timed_step
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always", RuntimeWarning)
        config = dataclasses.replace(parse_config(args.config),
                                     budget_elements=args.budget)
        problem = make_problem(config.example)
        driver = UzawaDriver(problem, config)
        setup_s = time.perf_counter() - T0
        t_run = time.perf_counter()
        if tracer is None:
            result = driver.run()
        else:
            result = tracer.call(spans.ROOT, driver.run, (), {})
        wall_s = time.perf_counter() - t_run

    write_csv(result, config, args.csv)
    records = result.records
    last = records[-1]
    tol_at = next((t for t, est in step_done if est <= args.tol), None)
    problems = []
    if result.stop_reason != "budget":
        problems.append(f"stop reason {result.stop_reason!r}, expected 'budget'")
    problems += [f"flag {f}" for f in BAD_FLAGS if f in result.flags]
    if not all(math.isfinite(r.est_total) for r in records):
        problems.append("non-finite estTOT")
    if tol_at is None:
        problems.append(f"estTOT never reached {args.tol:g}")

    out = {
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "time_to_tol_s": None if tol_at is None else tol_at - t_run,
        "est_total_final": last.est_total,
        "err_total_final": last.err_h1 + last.err_gamma,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_s": speed_probe(),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        layers.update({
            "solver.levels": len(driver.hierarchy.meshes),
            "uzawa.outer_steps": len(records),
            "uzawa.inner_rounds_bem": sum(r.k_bem for r in records),
            "uzawa.inner_rounds_fem": sum(r.k_fem for r in records),
            "uzawa.nE": last.num_elements,
            "uzawa.ns": last.num_segments,
            "model.runtime_warnings": sum(
                issubclass(w.category, RuntimeWarning) for w in warned),
        })
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
