"""Outer saddle-point iteration: tolerances, records, stopping, transfer."""

import collections
import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import assert_equal_to_a_fresh_build_by_slot, derived_facts, platform_signature, read_csv
from fembem import bem
from fembem.cli import write_csv
from fembem.fem import h1_norm
from fembem.model import EXAMPLES, ExactData, make_problem
from fembem.solver import SolverBreakdownError
from fembem.uzawa import (UzawaConfig, UzawaDriver, UzawaResult,
                          UzawaStepRecord, run_experiment_config)


def small_config(**overrides):
    base = dict(example="laplace_lshape", gamma=0.9, eps1=2.0,
                solver="exact", budget_elements=400)
    base.update(overrides)
    return UzawaConfig(**base)


class LastInnerValues:
    """Observer keeping, per outer step, the last inner quantity per phase."""

    def __init__(self):
        self.steps = []
        self._phase = None

    def __call__(self, driver, phase, payload):
        if phase == "bem" and self._phase != "bem":
            self.steps.append({})
        self._phase = phase
        if phase == "bem":
            val = float(payload["mu2"].sum() + payload["alg2"])
        else:
            val = float(payload["eta2"].sum() + payload["alg2"])
        self.steps[-1][phase] = val
        self.steps[-1][phase + "_payload"] = payload


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="solver must be 'pcg' or 'exact'"):
        UzawaConfig(example="laplace_lshape", solver="gmres")
    with pytest.raises(ValueError, match=r"theta out of \(0, 1\]"):
        UzawaConfig(example="laplace_lshape", theta=1.5)
    with pytest.raises(ValueError, match=r"gamma out of \(0, 1\)"):
        UzawaConfig(example="laplace_lshape", gamma=1.0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        UzawaConfig(example="laplace_lshape", alpha=0.0)


WRONGLY_TYPED = [("budget_elements", 60.5), ("max_outer", 2.5), ("mu_gauss", 4.0),
                 ("mu_gauss", True), ("alpha", True), ("adaptive_gamma", 1),
                 ("adaptive_gamma", "yes")]


@pytest.mark.parametrize("name, value", WRONGLY_TYPED)
def test_config_rejects_values_of_the_wrong_type(name, value):
    with pytest.raises(ValueError, match=f"{name} must be of type"):
        UzawaConfig(example="laplace_lshape", **{name: value})


# ---------------------------------------------------------------------------
# single steps


def test_first_step_is_scaled_update():
    obs = LastInnerValues()
    cfg = small_config(max_outer=1, budget_elements=10_000)
    res = run_experiment_config(cfg, observer=obs)
    assert res.num_outer == 1
    assert res.stop_reason == "max_outer"
    w = obs.steps[0]["fem_payload"]["w"]
    assert np.array_equal(res.u.values, cfg.alpha * w.values)


def test_tiny_relaxation_gives_tiny_iterate():
    res = run_experiment_config(small_config(alpha=1e-12, max_outer=1,
                                             budget_elements=10_000))
    rec = res.records[0]
    assert h1_norm(res.u) <= 1e-11 * rec.w_norm
    assert abs(h1_norm(res.u) - 1e-12 * rec.w_norm) <= 1e-15 * rec.w_norm


def test_second_step_extends_first_by_relaxed_update():
    """Step 2 refines, so u1 reaches its mesh through the levels that step pushed."""
    drv = UzawaDriver(make_problem("laplace_lshape"),
                      small_config(solver="pcg", eps1=1.0, gamma=0.5))
    drv.step(1)
    u1 = drv.u.values.copy()
    level1 = len(drv.hierarchy._levels) - 1
    drv.step(2)
    level2 = len(drv.hierarchy._levels) - 1
    assert level2 > level1
    carried = u1
    for level in drv.hierarchy._levels[level1 + 1:level2 + 1]:
        carried = level.prolongation @ carried
    expected = carried + drv.config.alpha * drv.w_carry.values
    assert np.allclose(drv.u.values, expected, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# tolerance schedule


def test_fixed_contraction_schedule_and_record_invariants():
    obs = LastInnerValues()
    cfg = small_config()
    res = run_experiment_config(cfg, observer=obs)
    recs = res.records
    assert res.stop_reason == "budget"
    assert res.flags == ()
    assert [r.j for r in recs] == list(range(1, len(recs) + 1))
    assert recs[0].epsilon == cfg.eps1
    for before, after in zip(recs, recs[1:]):
        assert after.epsilon == before.gamma * before.epsilon
        assert after.num_elements >= before.num_elements
        assert after.num_segments >= before.num_segments
    for i, r in enumerate(recs):
        assert r.gamma == cfg.gamma
        assert abs(r.epsilon - cfg.eps1 * cfg.gamma ** i) <= 1e-12 * r.epsilon
        assert r.k_bem >= 1 and r.k_fem >= 1
        assert r.est_total == r.est_fem + r.est_bem + r.w_norm  # exact solver
        assert r.flags == ()

    # each inner loop returned at or below its share of the tolerance
    assert len(obs.steps) == len(recs)
    for r, step in zip(recs, obs.steps):
        assert step["bem"] <= (cfg.c_bem * r.epsilon) ** 2 * (1 + 1e-12)
        assert step["fem"] <= (cfg.c_fem * r.epsilon) ** 2 * (1 + 1e-12)


def test_inner_tolerance_respects_share_constants():
    obs = LastInnerValues()
    cfg = small_config(c_bem=0.5, solver="pcg", budget_elements=300)
    res = run_experiment_config(cfg, observer=obs)
    assert "inner_budget_exceeded" not in res.flags
    for r, step in zip(res.records, obs.steps):
        assert step["bem"] <= (0.5 * r.epsilon) ** 2 * (1 + 1e-12)
        assert step["fem"] <= r.epsilon ** 2 * (1 + 1e-12)


def test_adaptive_contraction_uses_update_norm_ratio():
    cfg = small_config(adaptive_gamma=True, gamma=0.9, max_outer=5,
                       budget_elements=10_000)
    res = run_experiment_config(cfg)
    recs = res.records
    assert len(recs) == 5
    assert recs[0].gamma == cfg.gamma          # bootstrap value
    for before, after in zip(recs, recs[1:]):
        if "gamma_clamped" not in after.flags:
            assert after.gamma == after.w_norm / before.w_norm
            assert after.gamma < 1.0
        else:
            assert after.gamma == 0.99
        assert after.epsilon == before.gamma * before.epsilon


def test_adaptive_contraction_clamps_growing_updates():
    drv = UzawaDriver(make_problem("laplace_lshape"),
                      small_config(adaptive_gamma=True))
    drv.step(1)
    drv.prev_w_norm = 1e-30      # next ratio is guaranteed >= 1
    rec = drv.step(2)
    assert rec.gamma == 0.99
    assert "gamma_clamped" in rec.flags
    assert "gamma_clamped" in drv.flags


# ---------------------------------------------------------------------------
# stopping


def test_budget_stop_and_nested_hierarchy():
    """PCG runs push a nested level per refinement; exact runs keep the initial mesh alone."""
    for solver in ("pcg", "exact"):
        drv = UzawaDriver(make_problem("laplace_lshape"), small_config(solver=solver))
        initial = drv.mesh
        res = drv.run()
        assert res.stop_reason == "budget"
        assert res.mesh.num_triangles >= 400
        if solver == "exact":
            [kept] = drv.hierarchy.meshes
            assert kept is initial and drv.hierarchy._levels == [None]
            continue
        assert drv.hierarchy.finest is res.mesh
        # the vertex count of each level: the next level's coarse count, the finest mesh's last
        levels = drv.hierarchy._levels[1:]
        sizes = [level._num_coarse for level in levels] + [res.mesh.num_vertices]
        assert len(sizes) > 3 and sizes[0] == initial.num_vertices
        for level, coarse, fine in zip(levels, sizes, sizes[1:]):
            assert fine == coarse + len(level._parents) > coarse
            assert level.prolongation.shape == (fine, coarse)


def test_step_observer_gets_each_record_before_the_next_step_runs():
    """``observer`` sees the rounds of phases ``bem`` and ``fem``; ``step_observer`` each record as its step ends."""
    events = []
    res = run_experiment_config(
        small_config(budget_elements=150),
        observer=lambda driver, phase, payload: events.append(phase),
        step_observer=lambda driver, record: events.append(record))
    assert res.num_outer >= 2
    assert events == [event for r in res.records
                      for event in ["bem"] * r.k_bem + ["fem"] * r.k_fem + [r]]


def test_target_stop_after_single_cheap_step():
    cfg = small_config(target_nu=1e9, eps1=1e9, budget_elements=10_000)
    res = run_experiment_config(cfg)
    assert res.stop_reason == "target"
    assert res.num_outer == 1
    assert res.records[0].k_bem == 1
    assert res.records[0].k_fem == 1


@pytest.mark.parametrize("overrides,phase", [
    (dict(eps1=1e-8), "bem"),
    (dict(c_bem=1e6, c_fem=1e-8), "fem"),
], ids=["bem", "fem"])
def test_inner_budget_flag_on_tiny_cap(overrides, phase):
    """Either inner loop stops past the cap of four budgets, with its flag."""
    cfg = small_config(budget_elements=30, **overrides)
    res = run_experiment_config(cfg)
    assert "inner_budget_exceeded" in res.flags
    assert res.stop_reason == "inner_budget"
    assert res.num_outer == 1
    assert res.mesh.num_triangles > 4 * 30
    rec = res.records[0]      # only the loop that hit the cap refined
    assert (rec.k_bem > 1, rec.k_fem > 1) == (phase == "bem", phase == "fem")


def test_nonfinite_load_stops_with_its_own_reason():
    def nan_load(points):
        return np.full(len(points), np.nan)

    problem = dataclasses.replace(make_problem("laplace_lshape"), f=nan_load)
    res = UzawaDriver(problem, small_config(solver="pcg", budget_elements=200)).run()
    assert res.stop_reason == "nonfinite"
    assert "nonfinite" in res.flags
    assert "inner_budget_exceeded" not in res.flags
    assert "pcg_maxiter" not in res.flags
    assert res.num_outer == 1
    assert res.records[0].k_fem == 1
    assert np.isnan(res.records[0].est_fem)


@pytest.mark.parametrize("solver", ["pcg", "exact"])
def test_nonfinite_interface_datum_refines_nothing_after_the_flag(solver):
    """A NaN u0 flags the BEM phase; the FEM phase then ends after one round, unrefined."""
    def nan_jump(points):
        return np.full(len(points), np.nan)

    problem = dataclasses.replace(make_problem("laplace_lshape"), u0=nan_jump)
    res = UzawaDriver(problem, small_config(solver=solver, budget_elements=200)).run()
    assert res.stop_reason == "nonfinite"
    assert "inner_budget_exceeded" not in res.flags
    assert res.num_outer == 1
    assert res.records[0].k_fem <= 1
    assert res.mesh.num_triangles == 12


def test_a_tolerance_below_rounding_ends_at_the_inner_cap():
    """``c_fem = 5e-324`` asks every FEM solve for a zero energy.

    Each PCG run stops at the rounding floor, flagged, and the FEM loop
    at the inner cap; PCG used to iterate into underflow and raise
    ``SolverBreakdownError`` on a zero curvature.
    """
    config = UzawaConfig(example="laplace_lshape", c_fem=5e-324, budget_elements=100)
    res = UzawaDriver(make_problem("laplace_lshape"), config).run()
    assert res.stop_reason == "inner_budget"
    assert {"pcg_maxiter", "inner_budget_exceeded"} <= set(res.flags)


STOP_REASONS = {"budget", "max_outer", "target", "nonfinite", "inner_budget"}
FLAGS = {"gamma_clamped", "inner_budget_exceeded", "nonfinite", "pcg_maxiter"}
# admissible configs over the validated ranges, open ends included: the
# factors in (0, 1] or (0, 1) from just above zero, and the positive ones
# from just above zero up to 10
_ABOVE_ZERO = dict(min_value=0.0, exclude_min=True)
RUN_VALUES = dict(
    example=st.sampled_from(sorted(EXAMPLES)),
    solver=st.sampled_from(["pcg", "exact"]),
    theta=st.floats(max_value=1.0, **_ABOVE_ZERO),
    gamma=st.floats(max_value=1.0, exclude_max=True, **_ABOVE_ZERO),
    adaptive_gamma=st.booleans(),
    alpha=st.floats(max_value=10.0, **_ABOVE_ZERO),
    tau_rel=st.floats(max_value=1.0, exclude_max=True, **_ABOVE_ZERO),
    c_bem=st.floats(max_value=10.0, **_ABOVE_ZERO),
    c_fem=st.floats(max_value=10.0, **_ABOVE_ZERO),
    budget_elements=st.integers(100, 600),
)


class InnerLoops:
    """Observer keeping ``[phase, rounds, met]`` of each inner loop.

    ``met`` tells whether the loop's last round so far met its tolerance
    ``est^2 + alg^2 <= (c * eps)^2``, computed as the driver computes it.
    """

    def __init__(self):
        self.loops = []

    def __call__(self, driver, phase, payload):
        est2 = payload["mu2"] if phase == "bem" else payload["eta2"]
        c = driver.config.c_bem if phase == "bem" else driver.config.c_fem
        if not self.loops or self.loops[-1][0] != phase:
            self.loops.append([phase, 0, False])
        self.loops[-1][1] += 1
        self.loops[-1][2] = bool(est2.sum() + payload["alg2"] <= (c * driver.eps) ** 2)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(values=st.fixed_dictionaries(RUN_VALUES))
def test_random_admissible_runs_keep_their_invariants(tmp_path_factory, values):
    """Whole runs of random configs stop for a known reason and write reproducible tables.

    ``nE`` never falls and reaches the budget on a budget stop.  Every
    inner loop ends on a round that meets its tolerance, except in the
    last step of a run stopped by a flag that says why.  A second run
    writes the same CSV bytes, and the table reads back as schema 1.
    """
    config = UzawaConfig(**values)
    loops = InnerLoops()
    res = run_experiment_config(config, observer=loops)
    assert res.stop_reason in STOP_REASONS
    assert set(res.flags) <= FLAGS
    assert all(set(r.flags) <= {"gamma_clamped"} for r in res.records)
    n_elements = [r.num_elements for r in res.records]
    assert n_elements == sorted(n_elements)
    assert (res.stop_reason == "budget") <= (n_elements[-1] >= config.budget_elements)

    # one BEM and one FEM loop per step, of the recorded round counts
    assert [loop[:2] for loop in loops.loops] == [
        [phase, k] for r in res.records for phase, k in (("bem", r.k_bem), ("fem", r.k_fem))]
    unmet = [k for k, loop in enumerate(loops.loops) if not loop[2]]
    if unmet:
        assert unmet[0] >= len(loops.loops) - 2
        assert res.stop_reason in ("nonfinite", "inner_budget")
        assert {"nonfinite", "inner_budget_exceeded"} & set(res.flags)

    tmp = tmp_path_factory.mktemp("run")
    write_csv(res, config, tmp / "first.csv")
    write_csv(run_experiment_config(config), config, tmp / "second.csv")
    text = (tmp / "first.csv").read_text()
    assert text.encode() == (tmp / "second.csv").read_bytes()
    lines = text.splitlines()
    assert lines[0] == "# fembem experiment table, schema 1"
    assert lines[-1] == f"# stop: {res.stop_reason}"
    assert [line[len("# flag: "):] for line in lines if line.startswith("# flag: ")] == list(res.flags)
    assert read_csv(tmp / "first.csv")["nE"].tolist() == n_elements


def test_negative_initial_energy_raises_breakdown():
    class NegatingPreconditioner:
        def apply(self, r):
            return -r

    drv = UzawaDriver(make_problem("laplace_lshape"), small_config(solver="pcg"))
    with pytest.raises(SolverBreakdownError, match="preconditioner"):
        drv._solve_spd(np.eye(3), np.ones(3), np.zeros(3), NegatingPreconditioner(), 1.0)


def test_domain_of_diameter_one_or_more_is_rejected(monkeypatch):
    import fembem.uzawa as uzawa
    from fembem.mesh import Mesh, make_initial_mesh

    def scaled_mesh(domain):
        base = make_initial_mesh(domain)
        return Mesh(4.0 * base.vertices, base.triangles)

    monkeypatch.setattr(uzawa, "make_initial_mesh", scaled_mesh)
    with pytest.raises(ValueError, match=r"diameter 2\.828"):
        UzawaDriver(make_problem("laplace_lshape"), small_config())


def test_bem_operators_built_once_per_boundary_geometry(monkeypatch):
    """One full build per run; every later boundary is a fill of the new rows."""
    builds, fills = [], []

    class CountingOperators(bem.BemOperators):
        def __init__(self, bmesh, n_gauss=4):
            builds.append(bmesh.num_segments)
            super().__init__(bmesh, n_gauss)

        def fill(self):
            computed = super().fill()
            if computed:
                fills.append(self.bmesh.num_segments)
            return computed

    monkeypatch.setattr(bem, "BemOperators", CountingOperators)
    geometries = set()
    rounds = 0

    def observer(driver, phase, payload):
        nonlocal rounds
        if phase == "bem":
            rounds += 1
            a, b = driver.bm.endpoints()
            geometries.add(np.stack([a, b]).tobytes())

    cfg = small_config(gamma=0.95, eps1=5.0, c_bem=0.1, solver="pcg",
                       budget_elements=300)
    res = run_experiment_config(cfg, observer=observer)
    assert res.stop_reason == "budget"
    assert len(builds) == 1
    assert len(fills) == len(geometries) > 1
    assert len(fills) < rounds


def test_exact_mode_factorizes_v_once_per_boundary(monkeypatch):
    """One dense factorization per boundary, however many BEM rounds solve on it.

    The build fills every segment, so it counts as the first fill.
    """
    import fembem.uzawa as uzawa

    fills, factorizations = [], []
    rounds = 0

    class CountingOperators(bem.BemOperators):
        def fill(self):
            computed = super().fill()
            if computed:
                fills.append(self.bmesh.num_segments)
            return computed

    class CountingFactor(uzawa.CholeskyFactor):
        def __init__(self, matrix):
            if isinstance(matrix, np.ndarray):       # V; the Riesz matrices are sparse
                factorizations.append(matrix.shape[0])
            super().__init__(matrix)

    def observer(driver, phase, payload):
        nonlocal rounds
        rounds += phase == "bem"

    monkeypatch.setattr(bem, "BemOperators", CountingOperators)
    monkeypatch.setattr(uzawa, "CholeskyFactor", CountingFactor)
    cfg = small_config(gamma=0.95, eps1=5.0, c_bem=0.1, budget_elements=300)
    res = run_experiment_config(cfg, observer=observer)
    assert res.stop_reason == "budget"
    assert factorizations == fills
    assert rounds > len(fills)      # some rounds solve on an unchanged boundary


@pytest.mark.parametrize("solver", ["pcg", "exact"])
def test_operators_hold_the_driver_trace_in_every_bem_round(solver):
    """Every BEM round solves on the driver's boundary object itself.

    A round after refinements that split no segment reuses the V
    solver of the round before; one after a split gets a new one.
    """
    last = {}             # boundary, segment count and V solver of the previous round
    unsplit = 0

    def observer(driver, phase, payload):
        nonlocal unsplit
        if phase != "bem":
            return
        assert driver.bem_ops.bmesh is driver.bm
        if last:
            same = driver.bm.num_segments == last["ns"]
            assert (driver.bem_precond is last["solver"]) == same
            unsplit += same and driver.bm is not last["bm"]
        last.update(bm=driver.bm, ns=driver.bm.num_segments, solver=driver.bem_precond)

    res = run_experiment_config(small_config(solver=solver), observer=observer)
    assert res.stop_reason == "budget"
    assert unsplit > 0


@pytest.mark.parametrize("cfg", [
    small_config(c_bem=0.5, c_fem=0.5, solver="pcg", budget_elements=600),
    UzawaConfig(example="nonlinear_zshape", alpha=0.07, adaptive_gamma=True, eps1=5.0,
                c_bem=0.1, c_fem=0.3, solver="exact", budget_elements=600),
], ids=["lshape_pcg", "zshape_exact"])
def test_carried_bem_operators_equal_a_fresh_build_in_every_round(monkeypatch, cfg):
    """The operators a BEM round uses are bit for bit those of its boundary, permuted by the slots."""
    refines = []
    plain_refine = bem.BemOperators.refine

    def counting_refine(self, relation):
        refines.append(len(relation.seg_father))
        plain_refine(self, relation)

    monkeypatch.setattr(bem.BemOperators, "refine", counting_refine)
    between = []          # refinements of the operators before each BEM round

    def observer(driver, phase, payload):
        if phase != "bem":
            return
        between.append(len(refines))
        refines.clear()
        assert_equal_to_a_fresh_build_by_slot(driver.bem_ops, driver.bm)

    res = run_experiment_config(cfg, observer=observer)
    assert res.stop_reason == "budget"
    assert sum(n > 0 for n in between) >= 3
    assert max(between) >= 2        # FEM rounds split the boundary more than once


@pytest.mark.parametrize("solver", ["pcg", "exact"])
def test_only_the_finest_mesh_keeps_derived_facts(solver):
    """Every earlier mesh is freed as soon as the driver moves on.

    A PCG hierarchy holds its finest mesh alone, the initial one not
    excepted; an exact run's hierarchy holds the initial mesh alone.
    """
    bem_rounds = [0]      # BEM rounds before each FEM round; all but the last refine Γ
    seen = []             # a weak reference to each mesh a round ran on

    def observer(driver, phase, payload):
        if not seen or seen[-1]() is not driver.mesh:
            seen.append(weakref.ref(driver.mesh))
        gc.collect()
        earlier = seen[1:-1] if solver == "exact" else seen[:-1]
        assert [ref() is not None for ref in earlier] == [False] * len(earlier)
        assert driver.hierarchy.finest is (seen[0]() if solver == "exact" else driver.mesh)
        if phase == "bem":
            bem_rounds[-1] += 1
            return
        if bem_rounds[-1]:
            bem_rounds.append(0)
        assert "riesz" in derived_facts(driver.mesh)

    cfg = small_config(gamma=0.95, eps1=5.0, c_bem=0.1, solver=solver,
                       budget_elements=300)
    res = run_experiment_config(cfg, observer=observer)
    assert res.stop_reason == "budget"
    assert max(bem_rounds) >= 4       # Γ refined three times between two FEM rounds
    assert len(seen) > 3


@pytest.mark.parametrize("solver", ["pcg", "exact"])
def test_the_hierarchy_has_one_mesh_slot_per_level_and_holds_the_finest_alone(solver):
    """The benchmark reports ``len(hierarchy.meshes)`` as ``solver.levels``.

    So ``meshes`` keeps one slot per level: the finest mesh last, and
    ``None`` in every coarser slot.
    """
    drv = UzawaDriver(make_problem("laplace_lshape"), small_config(solver=solver,
                                                                   budget_elements=300))
    drv.run()
    hierarchy = drv.hierarchy
    meshes = hierarchy.meshes
    assert len(meshes) == len(hierarchy._levels)
    assert meshes[-1] is hierarchy.finest
    assert all(mesh is None for mesh in meshes[:-1])
    if solver == "pcg":
        assert hierarchy.finest is drv.mesh and len(meshes) > 3
    else:
        assert len(meshes) == 1


def _fact_bytes(fact):
    """Bytes of the arrays of a fact: an array, a tuple of facts or a CSR matrix."""
    if isinstance(fact, np.ndarray):
        return fact.nbytes
    if isinstance(fact, tuple):
        return sum(map(_fact_bytes, fact))
    return fact.data.nbytes + fact.indices.nbytes + fact.indptr.nbytes


def _bytes_with_facts(obj, *arrays):
    """Bytes of the named arrays of a mesh or trace and of every fact it keeps."""
    return (sum(getattr(obj, name).nbytes for name in arrays)
            + sum(map(_fact_bytes, vars(obj).get("_facts", {}).values())))


def test_a_pcg_run_leaves_alive_only_what_its_next_round_reads():
    """Traced by tracemalloc, the bytes live after a PCG run fit a budget.

    The budget is the five BEM matrices, the finest mesh and its trace
    with their facts, the multilevel blocks with the coarse inverse, and
    160 bytes an element for the rest: the iterate, the update and the
    density, the parents of each level, the records.  The coarser meshes
    of the run (their vertices, elements and fathers) would take about
    230 bytes more per element here, and do not fit.
    """
    cfg = small_config(solver="pcg", budget_elements=3000)
    tracemalloc.start()
    try:
        drv = UzawaDriver(make_problem(cfg.example), cfg)
        res = drv.run()
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    hierarchy = drv.hierarchy
    assert res.stop_reason == "budget" and len(hierarchy._levels) > 30
    budget = (sum(getattr(drv.bem_ops, name).nbytes for name in ("V", "DL0", "DL1", "MK", "MV"))
              + _bytes_with_facts(drv.mesh, "vertices", "triangles", "father")
              + _bytes_with_facts(drv.bm, "segments", "owner", "owner_edge", "line_ids")
              + sum(_fact_bytes(basis) + d.nbytes for basis, d in hierarchy._blocks)
              + hierarchy._coarse_inverse.nbytes
              + 160 * drv.mesh.num_triangles)
    assert live <= budget, f"{live} bytes live after the run, over a budget of {budget}"


def run_recording_prolongations(monkeypatch, cfg):
    """Run ``cfg`` to its budget; return the driver, the relations pushed and the prolongations built."""
    import fembem.solver as solver
    from fembem.mesh import vertex_prolongation_matrix

    relations, built = [], []
    plain_push = solver.MeshHierarchy.push

    def push(self, relation):
        relations.append(relation)
        before = len(built)
        plain_push(self, relation)
        assert len(built) == before + 1          # the pushed level's prolongation, once

    def build(*args):
        built.append(args)
        return vertex_prolongation_matrix(*args)

    monkeypatch.setattr(solver.MeshHierarchy, "push", push)
    monkeypatch.setattr(solver, "vertex_prolongation_matrix", build)
    drv = UzawaDriver(make_problem(cfg.example), cfg)
    assert drv.run().stop_reason == "budget"
    assert len(relations) == len(drv.hierarchy._levels) - 1
    return drv, relations, built


@pytest.mark.parametrize("cfg", [
    UzawaConfig(example="nonlinear_zshape", alpha=0.07, adaptive_gamma=True, eps1=5.0,
                c_bem=0.1, c_fem=0.3, solver="exact", budget_elements=600),
    small_config(solver="pcg", budget_elements=600),
], ids=["zshape_exact", "lshape_pcg"])
def test_prolongations_are_built_only_when_a_fold_reads_them(monkeypatch, cfg):
    """Exact runs push nothing; PCG builds each level's prolongation once, inside its push, for its fold."""
    drv, relations, built = run_recording_prolongations(monkeypatch, cfg)
    if cfg.solver == "exact":
        assert relations == [] and built == []
        assert len(drv.hierarchy.meshes) == 1 and len(drv.hierarchy._levels) == 1
        return
    assert len(relations) > 3
    assert len(built) == len(relations)
    for (parents, num_coarse), rel in zip(built, relations):
        assert parents is rel.new_vertex_parents and num_coarse == rel.coarse.num_vertices


def test_a_folded_level_forgets_its_prolongation(monkeypatch):
    """After a PCG run a level holds its parents and coarse count, no matrix; read, each prolongation has its relation's bytes."""
    from fembem.mesh import vertex_prolongation_matrix

    drv, relations, _ = run_recording_prolongations(monkeypatch, small_config(solver="pcg",
                                                                              budget_elements=600))
    levels = drv.hierarchy._levels[1:]
    assert len(levels) == len(relations) > 3
    for level, rel in zip(levels, relations):
        assert vars(level).keys() == {"_parents", "_num_coarse"}
        assert level._parents is rel.new_vertex_parents
        got = level.prolongation
        ref = vertex_prolongation_matrix(rel.new_vertex_parents, rel.coarse.num_vertices).tocsr()
        assert got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert vars(level).keys() == {"_parents", "_num_coarse"}     # the read kept nothing


def test_interface_and_exact_data_evaluated_once_per_mesh():
    """phi0, du0/ds, u0 and the exact density run once per boundary mesh and order; u and grad u
    run once per step, in one ``h1_error`` block at this size, and are not kept."""
    problem = make_problem("laplace_lshape")
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    class CountingExact(ExactData):
        def phi(self, points, normals):
            calls["exact.phi"] += 1
            return super().phi(points, normals)

    exact = problem.exact
    problem = dataclasses.replace(
        problem, u0=counted("u0", problem.u0), phi0=counted("phi0", problem.phi0),
        du0_ds=counted("du0_ds", problem.du0_ds),
        exact=CountingExact(u=counted("exact.u", exact.u),
                            grad_u=counted("exact.grad_u", exact.grad_u),
                            u_ext=exact.u_ext, grad_u_ext=exact.grad_u_ext))
    rounds = collections.Counter()
    seen = collections.defaultdict(dict)   # id -> object, kept alive so ids stay unique

    def observer(driver, phase, payload):
        rounds[phase] += 1
        seen[phase][id(driver.bm)] = driver.bm

    class RecordingDriver(UzawaDriver):
        def step(self, j):
            record = super().step(j)
            rounds["step"] += 1
            seen["step"][id(self.bm)] = self.bm
            seen["mesh"][id(self.mesh)] = self.mesh
            return record

    cfg = small_config(gamma=0.95, eps1=5.0, c_bem=0.1, budget_elements=300)
    res = RecordingDriver(problem, cfg, observer=observer).run()
    assert res.stop_reason == "budget"
    assert calls["u0"] == calls["du0_ds"] == len(seen["bem"])
    assert calls["phi0"] == 2 * len(seen["fem"])          # orders 4 and 2
    assert calls["exact.phi"] == len(seen["step"])
    assert calls["exact.u"] == calls["exact.grad_u"] == rounds["step"]
    # every kind of data is asked for again on a mesh that has it already
    assert rounds["bem"] > len(seen["bem"]) and rounds["fem"] > len(seen["fem"])
    assert rounds["step"] > max(len(seen["step"]), len(seen["mesh"]))


# ---------------------------------------------------------------------------
# reproducibility and solver choice


def test_run_experiment_config_matches_driver():
    cfg = small_config(budget_elements=200)
    res1 = run_experiment_config(cfg)
    res2 = UzawaDriver(make_problem(cfg.example), cfg).run()
    assert res1.stop_reason == res2.stop_reason
    assert res1.records == res2.records
    assert np.array_equal(res1.u.values, res2.u.values)
    assert np.array_equal(res1.psi.values, res2.psi.values)


def test_pcg_and_exact_solvers_agree_on_errors():
    err = {}
    for solver in ("exact", "pcg"):
        res = run_experiment_config(small_config(solver=solver))
        err[solver] = res.records[-1].err_h1
    ratio = err["pcg"] / err["exact"]
    assert 0.5 <= ratio <= 2.0


@pytest.mark.parametrize("solver", ["pcg", "exact"])
def test_each_round_reports_its_solver_iterations_and_preconditioner(monkeypatch, solver):
    """A PCG round reports the iterations of its own solve, over Jacobi (BEM) or the
    multilevel diagonal (FEM); an exact round reports 0 and ``"exact"``."""
    import fembem.uzawa as uzawa

    solved = []

    def counting_pcg(*args, **kwargs):
        res = pcg(*args, **kwargs)
        solved.append(res.iterations)
        return res

    pcg = uzawa.pcg
    monkeypatch.setattr(uzawa, "pcg", counting_pcg)
    reported = []
    res = run_experiment_config(
        small_config(solver=solver, budget_elements=200),
        observer=lambda driver, phase, payload: reported.append(
            (phase, payload["iterations"], payload["preconditioner"])))
    assert res.num_outer > 1 and {phase for phase, _, _ in reported} == {"bem", "fem"}
    if solver == "exact":
        assert solved == []
        assert all(its == 0 and kind == "exact" for _, its, kind in reported)
    else:
        assert [its for _, its, _ in reported] == solved
        assert all(its > 0 for its in solved)
        kinds = {"bem": "jacobi", "fem": "multilevel"}
        assert all(kind == kinds[phase] for phase, _, kind in reported)


_SOLVERS_LOADED = """
import dataclasses, sys
from fembem.cli import parse_config
from fembem.model import make_problem
from fembem.uzawa import UzawaDriver

def driver(name, **changes):
    config = dataclasses.replace(parse_config(sys.argv[1] + "/" + name), **changes)
    return UzawaDriver(make_problem(config.example), config)

def loaded():
    print([name in sys.modules for name in ("scipy.linalg", "scipy.sparse.linalg")])

driver("lshape_gamma095.cfg", budget_elements=200).run()
loaded()
driver("zshape_nonlinear.cfg")
loaded()
"""


def test_a_pcg_run_loads_no_direct_solver():
    """SciPy's dense and sparse solvers stay unloaded through a whole PCG run.

    An exact-mode driver loads both while it is built, with its first
    factor of V.  A fresh process, so no other test has loaded them.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVERS_LOADED, str(root / "scripts" / "configs")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[False, False]", "[True, True]"]


def test_result_containers():
    res = run_experiment_config(small_config(max_outer=2,
                                             budget_elements=10_000))
    assert isinstance(res, UzawaResult)
    assert res.num_outer == len(res.records) == 2
    assert all(isinstance(r, UzawaStepRecord) for r in res.records)
    rec = res.records[0]
    assert rec.num_elements >= 12 and rec.num_segments >= 8
    assert np.isfinite([rec.err_h1, rec.err_gamma, rec.est_fem, rec.est_bem,
                        rec.est_total, rec.w_norm]).all()
    assert res.psi.values.shape == (res.bmesh.num_segments,)
    assert res.u.values.shape == (res.mesh.num_vertices,)


def test_benchmark_hooks_find_every_wrapped_name(tmp_path):
    """``perfbench/spans.py`` wraps fembem callables by attribute name.

    Installing its tracer fails with ``AttributeError`` as soon as one of
    those names is deleted or renamed.  One traced repetition of
    ``perfbench/rep.py`` per solver at a tiny budget then checks what the
    benchmark reads from a run: the hierarchy's ``meshes``, one pushed
    level per refinement of a PCG run and none of an exact run, and a
    multilevel apply that the PCG driver really calls (a wrapped name
    that is never called would make its span read 0).
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=root / "perfbench", env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr

    def traced_layers(config):
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "rep.py"),
             "--config", str(root / "scripts" / "configs" / config),
             "--budget", "300", "--tol", "10", "--csv", str(tmp_path / "run.csv"),
             "--trace"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["layers"]

    layers = traced_layers("lshape_gamma095.cfg")
    assert layers["solver.levels"] >= 2
    assert layers["solver.hierarchy_push.calls"] == layers["solver.levels"] - 1
    assert layers["solver.multilevel_apply.calls"] > 0
    layers = traced_layers("zshape_nonlinear.cfg")
    assert layers["solver.levels"] == 1
    assert layers["solver.hierarchy_push.calls"] == 0
    assert layers["mesh.refine_nvb.calls"] > 0


# CSV sha256 of each benchmark workload at seed 0.  A change that moves a
# trajectory updates these and gives its reason, as with tests/golden/.
# They hold on NumPy SIMD targets X86_V3 X86_V4 AVX512_ICL AVX512_SPR
# with the OpenBLAS core SkylakeX (``_helpers.platform_signature``).
BENCHMARK_FINGERPRINTS = {
    "lshape_fixed": "523b4a9cad1d6b7e9ad7809b45d88fe4c389eb4fa4366b8f3a558e583e4408ca",
    "lshape_adaptive": "5756fd85d8d35ba3e499c02d4f3241248ba144d0d57bff80a7f0a5c1555d46cb",
    "zshape_exact": "6b1d64eb84d7cf88ede40a6494aba742d9a6534b37fe1af038dbc413706fa516",
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_FINGERPRINTS))
def test_benchmark_csv_fingerprint_at_seed_0(tmp_path, workload):
    """One repetition of ``perfbench/rep.py`` at the workload's seed-0 budget and tolerance."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    w = run.WORKLOADS[workload]
    env = dict(os.environ, **run.PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    csv = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "rep.py"),
         "--config", str(run.CONFIGS / w["config"]), "--budget", str(w["budget"]),
         "--tol", repr(w["tol"]), "--csv", str(csv)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["problems"] == []
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == BENCHMARK_FINGERPRINTS[workload], \
        f"CSV hash moved on {platform_signature()}"
