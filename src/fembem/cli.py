"""Experiment front end: config files in, convergence tables out.

Config files are plain ``key = value`` lines with ``#`` comments; the
only required key is ``example``.  Output is a deterministic CSV whose
schema is stable enough to diff: comment header with the resolved
configuration, one row per outer iteration, flag/stop trailers.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .uzawa import UzawaConfig, UzawaResult, run_experiment_config

__all__ = ["ConfigError", "parse_config", "write_csv", "fit_slope",
           "run_experiment", "main"]

SCHEMA_VERSION = 1
CSV_COLUMNS = ("iterUZ", "nE", "errUZAWAH1", "errUZAWABEM",
               "estFEM", "estBEM", "estTOT", "kBEM", "kFEM",
               "gamma", "epsilon")


class ConfigError(Exception):
    """Malformed or incomplete experiment configuration."""


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}
# parsers by the annotation string of a field, the one UzawaConfig checks
_PARSE = {"bool": lambda raw: _BOOL_WORDS[raw.lower()], "int": int, "float": float, "str": str}


def parse_config(path) -> UzawaConfig:
    """Read ``key = value`` lines into an :class:`UzawaConfig`.

    Unknown keys and syntax problems are reported with their line
    number; a missing ``example`` key is an error, and so is a file that
    cannot be read as UTF-8 text (a leading byte-order mark is
    skipped).  Each value is parsed by the type its field declares in
    :class:`UzawaConfig`: ``bool`` (true/false, yes/no, on/off, 1/0),
    ``int``, ``float`` or ``str``.  Defaults follow the dataclass (theta
    0.25, tau_rel 1e-3, ...).
    """
    types = {f.name: f.type for f in dataclasses.fields(UzawaConfig)}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        try:
            values[key] = _PARSE[types[key]](raw)
        except (KeyError, ValueError):    # a KeyError is a word that is no bool
            raise ConfigError(
                f"line {line_no}: cannot parse {key} = {raw!r} as {types[key]}") from None
    if "example" not in values:
        raise ConfigError("missing key: example")
    try:
        return UzawaConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fmt(value) -> str:
    return "%.8e" % float(value)


def write_csv(result: UzawaResult, config: UzawaConfig, path) -> None:
    """Deterministic convergence table; same run, same bytes."""
    lines = [f"# fembem experiment table, schema {SCHEMA_VERSION}"]
    for f in dataclasses.fields(UzawaConfig):
        lines.append(f"# {f.name} = {getattr(config, f.name)}")
    lines.append(",".join(CSV_COLUMNS))
    for r in result.records:
        row = (r.j, r.num_elements, _fmt(r.err_h1), _fmt(r.err_gamma),
               _fmt(r.est_fem), _fmt(r.est_bem), _fmt(r.est_total),
               r.k_bem, r.k_fem, _fmt(r.gamma), _fmt(r.epsilon))
        lines.append(",".join(str(c) for c in row))
    for flag in result.flags:
        lines.append(f"# flag: {flag}")
    lines.append(f"# stop: {result.stop_reason}")
    Path(path).write_text("\n".join(lines) + "\n")


def fit_slope(num_elements, values) -> float:
    """Least-squares slope of log(values) against log(num_elements).

    Fitted over the final decade of element counts; needs at least five
    rows there, all positive and finite (``ValueError`` otherwise).
    """
    ne = np.asarray(num_elements, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(ne) != len(vals) or len(ne) == 0:
        raise ValueError("mismatched or empty inputs")
    sel = ne >= ne.max() / 10.0
    if sel.sum() < 5:
        raise ValueError("fewer than five rows in the final decade")
    if not np.all((vals[sel] > 0.0) & np.isfinite(vals[sel])):
        raise ValueError("values must be positive and finite for a log-log fit")
    design = np.stack([np.log(ne[sel]), np.ones(int(sel.sum()))], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(vals[sel]), rcond=None)
    return float(coef[0])


def run_experiment(config_path, out_path=None, budget_elements=None,
                   verbose=False) -> UzawaResult:
    """Parse, run, write; the core of the command-line entry point.

    An output path that is a directory, whose directory is missing, or
    that is the config file itself is a :class:`ConfigError`, raised
    before the solve.
    """
    config = parse_config(config_path)
    if budget_elements is not None:
        try:
            config = dataclasses.replace(config, budget_elements=budget_elements)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    out_path = Path(config_path).with_suffix(".csv") if out_path is None else Path(out_path)
    if out_path.is_dir():
        raise ConfigError(f"cannot write {out_path}: it is a directory")
    if not out_path.parent.is_dir():
        raise ConfigError(f"cannot write {out_path}: no directory {out_path.parent}")
    if out_path.exists() and out_path.samefile(config_path):
        raise ConfigError(f"cannot write {out_path}: it is the config file")
    observer = step_observer = None
    if verbose:
        def observer(driver, phase, payload):
            total = payload["eta2"].sum() if phase == "fem" else payload["mu2"].sum()
            print(f"    [{phase}] nE={driver.mesh.num_triangles} "
                  f"est2={total:.3e} alg2={payload['alg2']:.3e} "
                  f"it={payload['iterations']} pc={payload['preconditioner']}",
                  file=sys.stderr)

        def step_observer(driver, r):
            print(f"  j={r.j:3d} nE={r.num_elements:6d} nS={r.num_segments:5d} "
                  f"errH1={r.err_h1:.4e} estTOT={r.est_total:.4e} w_norm={r.w_norm:.4e} "
                  f"kB={r.k_bem} kF={r.k_fem} flags={','.join(r.flags) or '-'}",
                  file=sys.stderr)
    result = run_experiment_config(config, observer=observer, step_observer=step_observer)
    write_csv(result, config, out_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fembem",
        description="Adaptive FEM-BEM coupling driven by an inexact Uzawa iteration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--out", default=None, help="output CSV path "
                       "(default: config path with .csv suffix)")
    run_p.add_argument("--budget-elements", type=int, default=None,
                       help="override the element budget")
    run_p.add_argument("--verbose", action="store_true",
                       help="progress lines on stderr")
    args = parser.parse_args(argv)

    try:
        result = run_experiment(args.config, out_path=args.out,
                                budget_elements=args.budget_elements,
                                verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver/runtime failures
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    last = result.records[-1]
    print(f"{result.stop_reason}: {last.j} outer iterations, "
          f"{last.num_elements} elements, estTOT={last.est_total:.4e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
