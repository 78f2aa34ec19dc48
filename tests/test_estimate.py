"""Residual estimators for the volume and boundary solves; Dorfler marking."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (f_one, nodal_interpolate_u0, phi0_zero, uniform_refine,
                      uniform_refine_boundary, zero_fe)
from fembem import bem
from fembem.estimate import doerfler_mark, eta_fem, mu_bem
from fembem.fem import FeFunction, assemble_riesz, assemble_w_rhs, volume_load
from fembem.mesh import Mesh, boundary_trace, make_initial_mesh, refine_nvb
from fembem.model import make_problem
from fembem.solver import CholeskyFactor

LAPLACE_OP = make_problem("laplace_lshape").operator


# ---------------------------------------------------------------------------
# volume estimator exactness


def test_eta_constant_load_closed_form(lshape):
    mesh = uniform_refine(lshape, 1)
    bm = boundary_trace(mesh)
    eta2 = eta_fem(mesh, bm, zero_fe(mesh), zero_fe(mesh), f_one, phi0_zero,
                   np.zeros(bm.num_segments), LAPLACE_OP)
    assert np.allclose(eta2, mesh.areas() ** 2, rtol=1e-14)


def test_eta_vanishes_for_exact_constant_solution(lshape):
    # with f = 1 and no boundary data the unit function solves the
    # Riesz problem exactly, so every residual contribution cancels
    mesh = uniform_refine(lshape, 1)
    bm = boundary_trace(mesh)
    R = assemble_riesz(mesh)
    rhs = volume_load(mesh, f_one)
    w = CholeskyFactor(R).solve(rhs)
    assert np.allclose(w, np.ones(mesh.num_vertices), rtol=1e-12)
    eta2 = eta_fem(mesh, bm, FeFunction(mesh, w), zero_fe(mesh), f_one,
                   phi0_zero, np.zeros(bm.num_segments), LAPLACE_OP)
    assert eta2.sum() <= 1e-25


def test_eta_vanishes_for_affine_solution_with_matched_data(lshape):
    mesh = uniform_refine(lshape, 1)
    bm = boundary_trace(mesh)
    f = lambda p: 1.0 + 2.0 * p[:, 0] + 3.0 * p[:, 1]
    phi0 = lambda p, n: 2.0 * n[:, 0] + 3.0 * n[:, 1]
    w = FeFunction(mesh, f(mesh.vertices))
    eta2 = eta_fem(mesh, bm, w, zero_fe(mesh), f, phi0,
                   np.zeros(bm.num_segments), LAPLACE_OP)
    assert eta2.sum() <= 1e-28


def test_functions_of_another_mesh_are_rejected(lshape):
    """``w`` and ``u_prev`` must live on the mesh object itself, not on one with equal arrays."""
    mesh = uniform_refine(lshape, 1)
    bm = boundary_trace(mesh)
    psi = np.zeros(bm.num_segments)
    # the same vertices, every element listed from another corner
    other = Mesh(mesh.vertices, np.roll(mesh.triangles, 1, axis=1))
    twin = Mesh(mesh.vertices, mesh.triangles)
    own = zero_fe(mesh)
    for foreign in (zero_fe(other), zero_fe(twin)):
        with pytest.raises(ValueError, match="u_prev does not live"):
            assemble_w_rhs(mesh, bm, f_one, phi0_zero, psi, foreign, LAPLACE_OP)
        with pytest.raises(ValueError, match="w does not live"):
            eta_fem(mesh, bm, foreign, own, f_one, phi0_zero, psi, LAPLACE_OP)
        with pytest.raises(ValueError, match="u_prev does not live"):
            eta_fem(mesh, bm, own, foreign, f_one, phi0_zero, psi, LAPLACE_OP)


def test_traces_of_another_mesh_are_rejected(lshape):
    """``bmesh`` must be a trace of the mesh object itself: not of its father, nor of a twin."""
    mesh = uniform_refine(lshape, 1)
    own = zero_fe(mesh)
    twin = Mesh(mesh.vertices, mesh.triangles)
    for foreign in (boundary_trace(lshape), boundary_trace(twin)):
        psi = np.zeros(foreign.num_segments)
        with pytest.raises(ValueError, match="bmesh is not a trace of the given mesh"):
            refine_nvb(mesh, [0], bmesh=foreign)
        with pytest.raises(ValueError, match="bmesh is not a trace of the given mesh"):
            assemble_w_rhs(mesh, foreign, f_one, phi0_zero, psi, own, LAPLACE_OP)
        with pytest.raises(ValueError, match="bmesh is not a trace of the given mesh"):
            eta_fem(mesh, foreign, own, own, f_one, phi0_zero, psi, LAPLACE_OP)


def test_eta_rejects_a_density_not_given_per_segment(lshape):
    """One value for the whole boundary fails instead of broadcasting over the segments."""
    bm = boundary_trace(lshape)
    for phi_j in (np.array([0.5]), np.zeros(bm.num_segments + 1)):
        with pytest.raises(ValueError, match="phi_j must hold one value per boundary segment"):
            eta_fem(lshape, bm, zero_fe(lshape), zero_fe(lshape), f_one, phi0_zero,
                    phi_j, LAPLACE_OP)


def test_eta_boundary_term_closed_form(lshape):
    bm = boundary_trace(lshape)
    eta2 = eta_fem(lshape, bm, zero_fe(lshape), zero_fe(lshape),
                   lambda p: np.zeros(len(p)), phi0_zero,
                   np.ones(bm.num_segments), LAPLACE_OP)
    expected = np.zeros(lshape.num_triangles)
    area = lshape.areas()
    np.add.at(expected, bm.owner, np.sqrt(area[bm.owner]) * bm.lengths())
    assert np.allclose(eta2, expected, rtol=1e-13)


def test_eta_decays_for_smooth_load(lshape):
    f = lambda p: np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    mesh = lshape
    etas = []
    for _ in range(4):
        mesh = uniform_refine(mesh, 1)
        bm = boundary_trace(mesh)
        w = CholeskyFactor(assemble_riesz(mesh)).solve(volume_load(mesh, f))
        eta2 = eta_fem(mesh, bm, FeFunction(mesh, w), zero_fe(mesh), f,
                       phi0_zero, np.zeros(bm.num_segments), LAPLACE_OP)
        etas.append(np.sqrt(eta2.sum()))
    assert all(b < a for a, b in zip(etas, etas[1:]))


# ---------------------------------------------------------------------------
# boundary estimator


def test_mu_zero_data_is_zero(lshape):
    bm = boundary_trace(lshape)
    mu2 = mu_bem(bm, bem.BemDensity(bm, np.zeros(bm.num_segments)),
                 bem.BoundaryTrace(bm, np.zeros(bm.num_segments)),
                 du0_ds=lambda p, t: np.zeros(len(p)))
    assert np.array_equal(mu2, np.zeros(bm.num_segments))


def test_mu_oscillation_of_constant_data_vanishes(lshape):
    bm = boundary_trace(lshape)
    const = lambda p, t: np.full(len(p), 2.5)
    mu2 = mu_bem(bm, bem.BemDensity(bm, np.zeros(bm.num_segments)),
                 bem.BoundaryTrace(bm, np.zeros(bm.num_segments)),
                 du0_ds=const)
    assert mu2.sum() <= 1e-28


def test_mu_oscillation_decays_for_corner_data():
    prob = make_problem("laplace_lshape")
    mesh = make_initial_mesh("lshape")
    oscs = []
    for _ in range(4):
        bm = boundary_trace(mesh)
        mu2 = mu_bem(bm, bem.BemDensity(bm, np.zeros(bm.num_segments)),
                     bem.BoundaryTrace(bm, np.zeros(bm.num_segments)),
                     du0_ds=prob.du0_ds)
        oscs.append(np.sqrt(mu2.sum()))
        mesh = uniform_refine_boundary(mesh, 1)[0]
    assert all(b < a for a, b in zip(oscs, oscs[1:]))
    assert oscs[-1] < oscs[0] / 8.0


def test_mu_decays_along_galerkin_solutions():
    prob = make_problem("laplace_lshape")
    exact = prob.exact
    du_ext = lambda p, t: np.einsum("nd,nd->n", exact.grad_u_ext(p), t)
    mesh = make_initial_mesh("lshape")
    mus = []
    for _ in range(4):
        bm = boundary_trace(mesh)
        g = nodal_interpolate_u0(bm, exact.u_ext)
        V = bem.assemble_single_layer(bm)
        psi = CholeskyFactor(V).solve(bem.assemble_dl_rhs(bm, g))
        mu2 = mu_bem(bm, bem.BemDensity(bm, psi), g, du0_ds=du_ext)
        mus.append(np.sqrt(mu2.sum()))
        mesh = uniform_refine_boundary(mesh, 1)[0]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    assert mus[-1] < 0.1 * mus[0]


# ---------------------------------------------------------------------------
# Dorfler marking


def test_doerfler_hand_cases():
    assert doerfler_mark(np.array([4.0, 3.0, 2.0, 1.0]), 0.25).tolist() == [0]
    assert doerfler_mark(np.array([4.0, 3.0, 2.0, 1.0]), 1.0).tolist() == [0, 1, 2, 3]
    assert doerfler_mark(np.array([4.0, 3.0, 0.0]), 1.0).tolist() == [0, 1]
    assert doerfler_mark(np.array([1.0, 1.0, 1.0, 1.0]), 0.5).tolist() == [0, 1]
    assert doerfler_mark(np.zeros(5), 0.5).tolist() == []


def test_doerfler_validates_input():
    with pytest.raises(ValueError, match="non-negative"):
        doerfler_mark(np.array([1.0, -1.0]), 0.5)
    for theta in (0.0, 1.2, -0.1):
        with pytest.raises(ValueError, match="theta"):
            doerfler_mark(np.array([1.0, 1.0]), theta)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            doerfler_mark(np.array([1.0, bad, 2.0]), 0.5)


def test_doerfler_minimality_exhaustive(rng):
    theta = 0.4
    for _ in range(5):
        ind = rng.uniform(0.0, 1.0, size=10)
        marked = doerfler_mark(ind, theta)
        total = ind.sum()
        assert ind[marked].sum() >= theta * total * (1.0 - 1e-12)
        m = len(marked)
        # every strictly smaller subset misses the target
        best_smaller = np.sort(ind)[::-1][: m - 1].sum()
        assert best_smaller < theta * total
        for subset in itertools.combinations(range(10), m - 1):
            assert ind[list(subset)].sum() < theta * total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40),
       st.floats(1e-3, 1.0))
def test_doerfler_properties(vals, theta):
    ind = np.asarray(vals)
    marked = doerfler_mark(ind, theta)
    total = ind.sum()
    if total <= 0.0:
        assert marked.size == 0
        return
    assert np.array_equal(marked, np.unique(marked))
    assert ind[marked].sum() >= theta * total * (1.0 - 1e-9)
    if 0 < marked.size < len(ind):
        # marked set consists of largest indicators
        unmarked = np.setdiff1d(np.arange(len(ind)), marked)
        assert ind[marked].min() >= ind[unmarked].max()


# ---------------------------------------------------------------------------
# total bound


def test_estimator_total_is_reliable_error_bound():
    from fembem.uzawa import UzawaConfig, run_experiment_config
    cfg = UzawaConfig(example="laplace_lshape", gamma=0.9, eps1=2.0,
                      solver="exact", budget_elements=600)
    res = run_experiment_config(cfg)
    ratios = [(r.err_h1 + r.err_gamma) / r.est_total for r in res.records]
    assert max(ratios) <= 2.0
    assert max(ratios) / min(ratios) <= 3.0
