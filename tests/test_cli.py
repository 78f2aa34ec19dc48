"""Config parsing, CSV tables, slope fitting, command-line entry point."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import read_csv
from fembem import cli
from fembem.cli import (CSV_COLUMNS, ConfigError, fit_slope, main,
                        parse_config, run_experiment, write_csv)
from fembem.model import EXAMPLES
from fembem.uzawa import UzawaConfig, UzawaResult, run_experiment_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

SMALL_CFG = """\
# smoke experiment
example = laplace_lshape
gamma = 0.9
eps1 = 2.0
solver = exact
budget_elements = 150
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small experiment shared by the table tests."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = write_cfg(tmp, SMALL_CFG)
    config = parse_config(cfg_path)
    result = run_experiment_config(config)
    out = tmp / "table.csv"
    write_csv(result, config, out)
    return config, result, out


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config_uses_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "example = laplace_lshape\n"))
    assert cfg == UzawaConfig(example="laplace_lshape")
    assert (cfg.alpha, cfg.gamma, cfg.theta, cfg.eps1) == (0.05, 0.95, 0.25, 1.0)
    assert (cfg.solver, cfg.adaptive_gamma, cfg.budget_elements) == ("pcg", False, 10_000)


def test_parse_full_config_with_comments(tmp_path):
    text = """\
# fixed-contraction sweep        # full-line comment
example = nonlinear_zshape
alpha = 0.07    # relaxation parameter
gamma = 0.95
adaptive_gamma = true
eps1 = 5.0
theta = 0.25
tau_rel = 1e-4
solver = exact
c_bem = 0.1
c_fem = 1.0
budget_elements = 2000
target_nu = 0.5
max_outer = 77
mu_gauss = 6
"""
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.example == "nonlinear_zshape"
    assert cfg.alpha == 0.07
    assert cfg.adaptive_gamma is True
    assert cfg.tau_rel == 1e-4
    assert cfg.c_bem == 0.1
    assert cfg.budget_elements == 2000
    assert cfg.target_nu == 0.5
    assert cfg.max_outer == 77
    assert cfg.mu_gauss == 6


@pytest.mark.parametrize("text,message", [
    ("example = laplace_lshape\nfoo = 1\n", r"line 2: unknown key 'foo'"),
    ("example = laplace_lshape\nseed_values = 3\n",
     r"line 2: unknown key 'seed_values'"),
    ("example = laplace_lshape\nalpha = 0.1\nalpha = 0.2\n",
     r"line 3: duplicate key 'alpha'"),
    ("example = laplace_lshape\njust words\n",
     r"line 2: expected 'key = value'"),
    ("example = laplace_lshape\nalpha = abc\n",
     r"line 2: cannot parse alpha = 'abc' as float"),
    ("example = laplace_lshape\nbudget_elements = 1.5\n",
     r"cannot parse budget_elements = '1.5' as int"),
    ("example = laplace_lshape\nadaptive_gamma = maybe\n",
     r"cannot parse adaptive_gamma = 'maybe' as bool"),
    ("example = laplace_lshape\ntheta = 1.5\n", r"theta out of \(0, 1\]"),
    ("example = laplace_lshape\ngamma = 1.0\n", r"gamma out of \(0, 1\)"),
    ("example = laplace_lshape\nsolver = foo\n",
     r"solver must be 'pcg' or 'exact'"),
    ("example = laplace_lshape\neps1 = -1\n", r"eps1 must be positive"),
    ("example = laplace_lshape\nc_bem = 0\n", r"c_bem must be positive"),
    ("example = laplace_lshape\nc_fem = -0.5\n", r"c_fem must be positive"),
    ("example = laplace_lshape\ntau_rel = 0\n", r"tau_rel out of \(0, 1\)"),
    ("example = laplace_lshape\ntau_rel = 1\n", r"tau_rel out of \(0, 1\)"),
    ("example = laplace_lshape\nmu_gauss = 0\n", r"mu_gauss must be at least 1"),
    ("example = laplace_lshape\nbudget_elements = 0\n",
     r"budget_elements must be at least 1"),
    ("example = laplace_lshape\nmax_outer = 0\n", r"max_outer must be at least 1"),
    ("example = laplace_lshape\ntarget_nu = -1\n", r"target_nu must not be negative"),
    ("example = laplace_lshape\nalpha = inf\n", r"alpha must be finite"),
    ("example = laplace_lshape\neps1 = inf\n", r"eps1 must be finite"),
    ("example = laplace_lshape\nc_bem = inf\n", r"c_bem must be finite"),
    ("example = laplace_lshape\nc_fem = inf\n", r"c_fem must be finite"),
    ("example = laplace_lshape\ntarget_nu = inf\n", r"target_nu must be finite"),
    ("alpha = 0.05\n", r"missing key: example"),
    ("example = foo\n", r"unknown example 'foo'"),
])
def test_parse_config_error_messages(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(write_cfg(tmp_path, text))


def _positive():
    """Positive finite values; an int is stored as a float, in code as from a file."""
    return st.one_of(st.floats(1e-6, 1e6), st.integers(1, 1000))


VALID_VALUES = dict(
    example=st.sampled_from(sorted(EXAMPLES)),
    alpha=_positive(), eps1=_positive(), c_bem=_positive(), c_fem=_positive(),
    gamma=st.floats(1e-6, 1.0 - 1e-6),
    adaptive_gamma=st.booleans(),
    theta=st.one_of(st.floats(1e-6, 1.0), st.just(1)),
    tau_rel=st.floats(1e-9, 0.5),
    solver=st.sampled_from(["pcg", "exact"]),
    budget_elements=st.integers(1, 10 ** 6),
    target_nu=st.one_of(st.floats(0.0, 10.0), st.integers(0, 10)),
    max_outer=st.integers(1, 10 ** 4),
    mu_gauss=st.integers(1, 8),
)
# values of another type than the field's; a bool is an int to Python
WRONG_VALUES = {
    "str": st.one_of(st.integers(), st.floats(), st.booleans()),
    "bool": st.one_of(st.integers(), st.floats(), st.text()),
    "int": st.one_of(st.floats(), st.booleans(), st.text()),
    "float": st.one_of(st.booleans(), st.text()),
}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(values=st.fixed_dictionaries(VALID_VALUES), data=st.data())
def test_config_survives_its_file_form(tmp_path_factory, values, data):
    """``key = value`` lines parse to the config and write its CSV header.

    A value of another type than its field's is refused by the API.
    """
    types = {f.name: f.type for f in dataclasses.fields(UzawaConfig)}
    assert set(types) == set(VALID_VALUES)
    tmp = tmp_path_factory.getbasetemp()
    config = UzawaConfig(**values)
    parsed = parse_config(write_cfg(tmp, "".join(f"{k} = {v}\n" for k, v in values.items())))
    assert parsed == config
    result = UzawaResult(records=[], u=None, psi=None, mesh=None, bmesh=None,
                         stop_reason="budget")
    write_csv(result, config, tmp / "code.csv")
    write_csv(result, parsed, tmp / "file.csv")
    assert (tmp / "code.csv").read_bytes() == (tmp / "file.csv").read_bytes()

    name = data.draw(st.sampled_from(sorted(types)))
    wrong = data.draw(WRONG_VALUES[types[name]])
    with pytest.raises(ValueError, match=f"{name} must be of type {types[name]}"):
        dataclasses.replace(config, **{name: wrong})


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_recovers_synthetic_rates():
    ne = np.linspace(200.0, 1000.0, 8)
    assert abs(fit_slope(ne, 3.0 * ne ** -0.5) + 0.5) <= 1e-12
    assert abs(fit_slope(ne, np.full(8, 2.0))) <= 1e-12
    assert abs(fit_slope(ne, 0.1 * ne ** 0.75) - 0.75) <= 1e-12


def test_fit_slope_error_messages():
    with pytest.raises(ValueError, match="mismatched or empty"):
        fit_slope([], [])
    with pytest.raises(ValueError, match="mismatched or empty"):
        fit_slope([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="fewer than five rows"):
        fit_slope([1.0, 2.0, 3.0, 1000.0], [1.0, 1.0, 1.0, 1.0])
    ne = np.linspace(200.0, 1000.0, 8)
    vals = np.ones(8)
    vals[3] = 0.0
    with pytest.raises(ValueError, match="values must be positive"):
        fit_slope(ne, vals)
    for bad in (np.nan, np.inf):
        vals[3] = bad
        with pytest.raises(ValueError, match="values must be positive and finite"):
            fit_slope(ne, vals)


# ---------------------------------------------------------------------------
# CSV writing and reading


def test_csv_roundtrip_matches_records(small_run):
    config, result, out = small_run
    table = read_csv(out)
    assert sorted(table) == sorted(CSV_COLUMNS)
    recs = result.records
    assert np.array_equal(table["iterUZ"], np.arange(1, len(recs) + 1))
    assert np.array_equal(table["nE"], [r.num_elements for r in recs])
    assert np.array_equal(table["kBEM"], [r.k_bem for r in recs])
    assert np.array_equal(table["kFEM"], [r.k_fem for r in recs])
    for col, attr in (("errUZAWAH1", "err_h1"), ("errUZAWABEM", "err_gamma"),
                      ("estFEM", "est_fem"), ("estBEM", "est_bem"),
                      ("estTOT", "est_total"), ("gamma", "gamma"),
                      ("epsilon", "epsilon")):
        ref = np.array([getattr(r, attr) for r in recs])
        assert np.allclose(table[col], ref, rtol=1e-7, atol=0.0), col


def test_csv_header_and_trailer(small_run):
    config, result, out = small_run
    lines = out.read_text().splitlines()
    assert lines[0] == "# fembem experiment table, schema 1"
    assert "# example = laplace_lshape" in lines
    assert "# budget_elements = 150" in lines
    assert "# seed_values" not in out.read_text()
    header_at = lines.index(",".join(CSV_COLUMNS))
    assert header_at >= 1
    assert lines[-1] == "# stop: budget"


def test_csv_column_invariants(small_run):
    _, _, out = small_run
    table = read_csv(out)
    assert (table["estTOT"] >= table["estFEM"] - 1e-15).all()
    assert (table["estTOT"] >= table["estBEM"] - 1e-15).all()
    assert (np.diff(table["nE"]) >= 0).all()
    assert (table["kBEM"] >= 1).all() and (table["kFEM"] >= 1).all()


def test_csv_bytes_are_deterministic(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_CFG)
    run_experiment(cfg_path, out_path=tmp_path / "a.csv")
    run_experiment(cfg_path, out_path=tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_int_for_a_float_field_writes_the_bytes_of_its_config_file(tmp_path):
    """``eps1 = 5`` in code and in a file give one table: header and rows print floats."""
    config = UzawaConfig(example="laplace_lshape", eps1=5, theta=1, c_bem=0.1,
                         budget_elements=60)
    assert type(config.eps1) is float and type(config.theta) is float
    write_csv(run_experiment_config(config), config, tmp_path / "code.csv")
    cfg_path = write_cfg(tmp_path, "example = laplace_lshape\neps1 = 5\ntheta = 1\n"
                                   "c_bem = 0.1\nbudget_elements = 60\n")
    run_experiment(cfg_path, out_path=tmp_path / "file.csv")
    code = (tmp_path / "code.csv").read_bytes()
    assert b"# eps1 = 5.0\n" in code and b"# theta = 1.0\n" in code
    assert code == (tmp_path / "file.csv").read_bytes()


def test_run_experiment_default_output_path(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("150", "60"))
    result = run_experiment(cfg_path)
    expected = cfg_path.with_suffix(".csv")
    assert expected.exists()
    assert len(read_csv(expected)["nE"]) == result.num_outer


# ---------------------------------------------------------------------------
# command-line entry point


def test_main_success_prints_summary(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("150", "60"))
    out = tmp_path / "run.csv"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("budget:")
    assert "outer iterations" in captured.out
    assert out.exists()


def test_main_budget_override_is_recorded(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "run.csv"
    rc = main(["run", str(cfg_path), "--out", str(out),
               "--budget-elements", "60"])
    assert rc == 0
    capsys.readouterr()
    assert "# budget_elements = 60" in out.read_text().splitlines()
    assert read_csv(out)["nE"].max() < 150


def test_main_verbose_reports_progress(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("150", "30"))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "v.csv"),
                 "--verbose"]) == 0
    captured = capsys.readouterr()
    assert "[bem]" in captured.err and "[fem]" in captured.err
    for field in ("errH1=", "nS=", "w_norm=", "flags="):
        assert field in captured.err, field


def test_main_verbose_round_lines_name_iterations_and_preconditioner(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("150", "30").replace("exact", "pcg"))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "v.csv"), "--verbose"]) == 0
    rounds = [line.split() for line in capsys.readouterr().err.splitlines()
              if line.startswith("    [")]
    assert rounds
    kinds = {"[bem]": "pc=jacobi", "[fem]": "pc=multilevel"}
    for words in rounds:
        assert words[-1] == kinds[words[0]] and int(words[-2].removeprefix("it=")) > 0


def test_main_verbose_streams_each_step_line_and_writes_the_same_csv(tmp_path, capsys):
    """Each step's line is printed when the step ends, before the next step's first round."""
    cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("150", "60"))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "quiet.csv")]) == 0
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "v.csv"), "--verbose"]) == 0
    lines = capsys.readouterr().err.splitlines()
    steps = [k for k, line in enumerate(lines) if line.startswith("  j=")]
    assert len(steps) == len(read_csv(tmp_path / "v.csv")["nE"]) >= 2
    assert lines[steps[0]].startswith("  j=  1 ")
    for k in steps[:-1]:
        assert lines[k - 1].startswith("    [fem]") and lines[k + 1].startswith("    [bem]")
    assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "quiet.csv").read_bytes()


def test_main_missing_file_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("content", [None, b"example = laplace_lshape\n\xff\n"],
                         ids=["directory", "non_utf8"])
def test_main_unreadable_config_is_config_error(tmp_path, capsys, content):
    """A config path that is a directory, or not UTF-8 text: exit 2, not a solver failure."""
    path = tmp_path
    if content is not None:
        path = tmp_path / "exp.cfg"
        path.write_bytes(content)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read {path}: ")


@pytest.mark.parametrize("shipped", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_config_with_a_byte_order_mark_parses_as_the_original(tmp_path, shipped):
    """A UTF-8 byte-order mark, as some editors save one, is not part of the first key."""
    path = tmp_path / shipped.name
    path.write_bytes(b"\xef\xbb\xbf" + shipped.read_bytes())
    assert parse_config(path) == parse_config(shipped)


def test_main_bad_config_is_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "example = laplace_lshape\nfoo = 1\n")
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "unknown key 'foo'" in err


def test_main_bad_budget_override_is_config_error(tmp_path, capsys):
    """The override is checked like the config key: exit 2, not a solver failure."""
    cfg_path = write_cfg(tmp_path, SMALL_CFG)
    assert main(["run", str(cfg_path), "--budget-elements", "0"]) == 2
    assert capsys.readouterr().err.strip() == \
        "config error: budget_elements must be at least 1"


def test_main_missing_output_directory_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "missing" / "x.csv"

    def never(config, observer=None):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, "run_experiment_config", never)
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == \
        f"config error: cannot write {out}: no directory {out.parent}"
    assert not out.parent.exists()


def test_main_output_path_that_is_a_directory_fails_before_the_solve(tmp_path, capsys,
                                                                    monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "results"
    out.mkdir()

    def never(config, observer=None):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, "run_experiment_config", never)
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == \
        f"config error: cannot write {out}: it is a directory"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name, out", [("run.csv", None), ("c.cfg", "c.cfg")],
                         ids=["default_out", "explicit_out"])
def test_main_output_path_that_is_the_config_fails_before_the_solve(tmp_path, capsys,
                                                                   monkeypatch, name, out):
    """The config is never replaced by its table: exit 2, and the file keeps its bytes."""
    cfg_path = write_cfg(tmp_path, SMALL_CFG, name)
    args = ["run", str(cfg_path)] + ([] if out is None else ["--out", str(tmp_path / out)])

    def never(config, observer=None):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, "run_experiment_config", never)
    assert main(args) == 2
    assert capsys.readouterr().err.strip() == \
        f"config error: cannot write {cfg_path}: it is the config file"
    assert cfg_path.read_text() == SMALL_CFG


def test_main_runtime_failure_exit_code(tmp_path, capsys, monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL_CFG)

    def boom(config, observer=None, step_observer=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_experiment_config", boom)
    assert main(["run", str(cfg_path)]) == 3
    assert capsys.readouterr().err.strip() == "run failed: RuntimeError: boom"


def test_module_entry_point_subprocess(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("150", "60"))
    out = tmp_path / "sub.csv"
    # the child imports the package from where this process found it
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "fembem", "run", str(cfg_path),
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("budget:")
    assert out.exists()
