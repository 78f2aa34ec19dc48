"""Golden trajectories: every shipped config at a reduced element budget.

Each ``golden/<config>.csv`` is the table ``fembem run`` writes for the
config with ``budget_elements = GOLDEN_BUDGET``.  A rerun must reproduce
the integer columns (outer step, element count, inner rounds) exactly
and the float columns to ``FLOAT_RTOL``; the stop line and the flags
must match too.  The float tolerance leaves room for rounding in the
last bits only: a change that sums the same quadrature terms in another
order makes PCG stop on a slightly different right-hand side, which
moves the estimators by up to a few 1e-5 relative (more under adaptive
contraction, which feeds the update-norm ratio back into the
tolerances), and such a change has to regenerate the tables.

Regenerate after a change that moves the trajectory on purpose:

    PYTHONPATH=src python tests/test_golden.py

Before it overwrites a table, this prints whether the row count, the
integer columns and the stop/flag trailer equal the old table's, and
the largest relative move of each float column.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from _helpers import platform_signature, read_csv
from fembem.cli import parse_config, write_csv
from fembem.uzawa import run_experiment_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_BUDGET = 1500
INT_COLUMNS = ("iterUZ", "nE", "kBEM", "kFEM")
FLOAT_COLUMNS = ("errUZAWAH1", "errUZAWABEM", "estFEM", "estBEM", "estTOT",
                 "gamma", "epsilon")
FLOAT_RTOL = 1e-9


def write_golden_run(cfg_path: Path, out: Path) -> None:
    config = dataclasses.replace(parse_config(cfg_path), budget_elements=GOLDEN_BUDGET)
    write_csv(run_experiment_config(config), config, out)


def trailer(path: Path):
    return [line for line in path.read_text().splitlines()
            if line.startswith(("# flag:", "# stop:"))]


def moves(new: Path, old: Path):
    """Lines comparing the table ``new`` with ``old``, as the regeneration prints them."""
    got, ref = read_csv(new), read_csv(old)
    rows = len(got["iterUZ"]) == len(ref["iterUZ"])
    ints = rows and all(np.array_equal(got[name], ref[name]) for name in INT_COLUMNS)
    lines = [f"  rows equal: {rows}", f"  integer columns equal: {ints}",
             f"  stop/flag trailer equal: {trailer(new) == trailer(old)}"]
    if rows:
        for name in FLOAT_COLUMNS:
            a, b = got[name], ref[name]
            equal = (a == b) | (np.isnan(a) & np.isnan(b))
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(equal, 0.0, np.abs(a - b) / np.abs(b))
            lines.append(f"  {name}: largest relative move {rel.max():.2e}")
    return lines


def test_every_config_has_a_golden():
    assert CONFIGS
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("cfg_path", CONFIGS, ids=lambda p: p.stem)
def test_trajectory_matches_golden(cfg_path, tmp_path):
    out = tmp_path / "run.csv"
    write_golden_run(cfg_path, out)
    ref_path = GOLDEN / f"{cfg_path.stem}.csv"
    got, ref = read_csv(out), read_csv(ref_path)
    where = f"on {platform_signature()}"
    assert len(got["iterUZ"]) == len(ref["iterUZ"]), where
    for name in INT_COLUMNS:
        assert np.array_equal(got[name], ref[name]), f"{name} {where}"
    for name in FLOAT_COLUMNS:
        np.testing.assert_allclose(got[name], ref[name], rtol=FLOAT_RTOL,
                                   atol=0.0, equal_nan=True, err_msg=f"{name} {where}")
    assert trailer(out) == trailer(ref_path), where


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for cfg in CONFIGS:
        path = GOLDEN / f"{cfg.stem}.csv"
        fresh = path.with_suffix(".new")
        write_golden_run(cfg, fresh)
        print(cfg.stem)
        if path.exists():
            print("\n".join(moves(fresh, path)))
        fresh.replace(path)
        print(f"wrote {cfg.stem}", file=sys.stderr)
