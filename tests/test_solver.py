"""Direct and iterative SPD solvers, stopping rules, multilevel preconditioner."""

import numpy as np
import pytest
import scipy.sparse as sp

from _helpers import (FactorizedPreconditioner, composite_apply_reference, derived_facts,
                      stiffness_reference, uniform_refine)
from fembem import solver
from fembem.fem import assemble_riesz
from fembem.mesh import boundary_trace, make_initial_mesh, refine_nvb, vertex_prolongation_matrix
from fembem.solver import (CholeskyFactor, JacobiPreconditioner,
                           LocalMultilevelDiagonal, MeshHierarchy, NotSpdError,
                           SolverBreakdownError, pcg)


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# direct solver


def test_cholesky_solve_small_system():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = CholeskyFactor(A).solve(np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


def test_cholesky_matches_pcg(rng):
    A = random_spd(50, rng)
    b = rng.standard_normal(50)
    x_direct = CholeskyFactor(A).solve(b)
    x_pcg = pcg(A, b, rel_threshold=1e-24).x
    assert np.linalg.norm(x_pcg - x_direct) <= 1e-9 * np.linalg.norm(x_direct)


def test_dense_solve_has_the_bits_of_cho_solve(rng):
    import scipy.linalg as sla

    A = random_spd(40, rng)
    factor = sla.cho_factor(A, lower=True)
    solver = CholeskyFactor(A)
    for b in (rng.standard_normal(40), rng.standard_normal((40, 3))):
        assert solver.solve(b).tobytes() == sla.cho_solve(factor, b).tobytes()


def test_not_spd_is_detected():
    with pytest.raises(NotSpdError):
        CholeskyFactor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSpdError):
        CholeskyFactor(sp.diags([1.0, -1.0]).tocsc())
    with pytest.raises(NotSpdError):
        JacobiPreconditioner.of(np.diag([1.0, -2.0]))
    with pytest.raises(NotSpdError):
        solver._spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sparse_and_dense_factor_agree(lshape, rng):
    R = assemble_riesz(uniform_refine(lshape, 1))
    b = rng.standard_normal(R.shape[0])
    xs = CholeskyFactor(R).solve(b)
    xd = CholeskyFactor(R.toarray()).solve(b)
    assert np.allclose(xs, xd, rtol=1e-11)


# ---------------------------------------------------------------------------
# pcg basics


def test_pcg_identity_matrix_one_iteration(rng):
    b = rng.standard_normal(5)
    res = pcg(np.eye(5), b)
    assert res.iterations == 1 and res.converged
    assert np.allclose(res.x, b, rtol=1e-15)


def test_pcg_exact_initial_guess_returns_immediately():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    x_star = np.array([1.0 / 3.0, 1.0 / 3.0])
    res = pcg(A, A @ x_star, x0=x_star)
    assert res.iterations == 0 and res.converged
    assert res.final_energy == 0.0


def test_pcg_max_iterations_reports_nonconvergence(rng):
    A = random_spd(30, rng)
    res = pcg(A, rng.standard_normal(30), max_iterations=2)
    assert res.iterations == 2 and not res.converged


def test_pcg_error_energy_monotone(rng):
    A = random_spd(25, rng)
    b = rng.standard_normal(25)
    x_star = np.linalg.solve(A, b)
    res = pcg(A, b, record_iterates=True, rel_threshold=1e-28)
    assert len(res.iterates) == res.iterations + 1
    assert np.array_equal(res.iterates[0], np.zeros(25))
    energies = [float((x_star - x) @ (A @ (x_star - x))) for x in res.iterates]
    for before, after in zip(energies, energies[1:]):
        assert after <= before * (1.0 + 1e-12)


def test_pcg_breakdown_on_indefinite_matrix():
    with pytest.raises(SolverBreakdownError, match="search direction"):
        pcg(np.diag([1.0, -1.0]), np.array([0.0, 1.0]))


def test_pcg_breakdown_on_indefinite_preconditioner():
    class NegatingPreconditioner:
        def apply(self, r):
            return -r

    with pytest.raises(SolverBreakdownError, match="preconditioner"):
        pcg(np.eye(3), np.ones(3), preconditioner=NegatingPreconditioner())


def test_pcg_stops_unconverged_once_rounding_ends_its_progress():
    """A zero threshold ends PCG, unconverged, where the energy falls below eps^2 of its start.

    Iterating on, the updated residual underflows: its energy reaches an
    exact zero after many more steps and reports convergence, or a search
    direction underflows to zero curvature and fakes a breakdown.
    """
    rng = np.random.default_rng(5)
    m = rng.standard_normal((30, 30))
    res = pcg(m @ m.T + 30 * np.eye(30), rng.standard_normal(30), rel_threshold=0.0)
    floor = np.finfo(float).eps ** 2 * res.p_energies[0]
    assert not res.converged and res.iterations <= 30
    assert 0.0 < res.final_energy <= floor < res.p_energies[-2]


def test_pcg_returns_at_once_on_nonfinite_start():
    res = pcg(np.eye(3), np.array([1.0, np.nan, 0.0]), max_iterations=50)
    assert res.iterations == 0 and not res.converged
    assert np.isnan(res.final_energy)


# ---------------------------------------------------------------------------
# stopping rules


def test_relative_threshold_controls_residual_energy(rng):
    A = random_spd(40, rng)
    b = rng.standard_normal(40)
    res = pcg(A, b, rel_threshold=1e-3 ** 2)
    assert res.converged
    assert res.final_energy <= 1e-6 * res.p_energies[0]
    assert res.p_energies[-2] > 1e-6 * res.p_energies[0]


def test_absolute_threshold_caps_relative_one(rng):
    A = random_spd(40, rng)
    b = rng.standard_normal(40)
    e0 = pcg(A, b, max_iterations=0).final_energy
    res = pcg(A, b, rel_threshold=0.5, abs_threshold=1e-4 * e0)
    assert res.converged
    assert res.final_energy <= 1e-4 * e0 < res.p_energies[-2]


def test_lambda_threshold_single_sweep_on_mass_matrix(lshape, rng):
    mesh = uniform_refine(lshape, 2)
    M = (assemble_riesz(mesh) - stiffness_reference(mesh)).tocsr()
    # Jacobi-scaled P1 mass matrix on these meshes has spectrum in
    # [1/2, 2]: an error-reduction target of 1 - 1/cond = 0.75 is met
    # after a single preconditioned step
    D = M.diagonal()
    scaled = M.toarray() / np.sqrt(D[:, None] * D[None, :])
    ev = np.linalg.eigvalsh(scaled)
    assert abs(ev[-1] / ev[0] - 4.0) <= 1e-12 * 4.0
    res = pcg(M, rng.standard_normal(mesh.num_vertices),
              preconditioner=JacobiPreconditioner.of(M),
              rel_threshold=1.0 - ev[0] / ev[-1])
    assert res.converged and res.iterations == 1
    assert res.final_energy <= 0.75 * res.p_energies[0]


# ---------------------------------------------------------------------------
# preconditioners and the algebraic-error surrogate


def test_exact_preconditioner_one_iteration_and_exact_surrogate(rng):
    A = random_spd(20, rng)
    b = rng.standard_normal(20)
    res = pcg(A, b, preconditioner=FactorizedPreconditioner(A))
    assert res.iterations == 1 and res.converged

    # before any update the surrogate equals the energy error exactly
    res0 = pcg(A, b, preconditioner=FactorizedPreconditioner(A),
               max_iterations=0)
    x_star = np.linalg.solve(A, b)
    energy0 = float(x_star @ (A @ x_star))
    assert abs(res0.final_energy - energy0) <= 1e-10 * energy0

    # one step with the exact preconditioner drops both the true error
    # and the surrogate to roundoff level
    res1 = pcg(A, b, preconditioner=FactorizedPreconditioner(A),
               rel_threshold=0.0, max_iterations=1)
    e1 = x_star - res1.x
    assert float(e1 @ (A @ e1)) <= 1e-20 * energy0
    assert res1.final_energy <= 1e-20 * energy0


def test_jacobi_surrogate_within_spectral_sandwich(lshape, rng):
    mesh = lshape
    for _ in range(3):
        mesh = uniform_refine(mesh, 1)
        A = assemble_riesz(mesh)
        P = JacobiPreconditioner.of(A)
        b = rng.standard_normal(mesh.num_vertices)
        x_star = CholeskyFactor(A).solve(b)
        res = pcg(A, b, preconditioner=P, rel_threshold=0.0, max_iterations=3)
        e = x_star - res.x
        energy = float(e @ (A @ e))
        d = np.sqrt(A.diagonal())
        ev = np.linalg.eigvalsh(A.toarray() / (d[:, None] * d[None, :]))
        s2 = res.final_energy
        assert ev[0] * energy * (1 - 1e-10) <= s2 <= ev[-1] * energy * (1 + 1e-10)


# ---------------------------------------------------------------------------
# mesh hierarchy and local multilevel diagonal preconditioner


def test_single_level_hierarchy_is_exact_solver(lshape, rng):
    hierarchy = MeshHierarchy(lshape)
    assert hierarchy.finest is lshape
    pre = hierarchy.preconditioner()
    assert isinstance(pre, LocalMultilevelDiagonal)
    A = assemble_riesz(lshape)
    r = rng.standard_normal(lshape.num_vertices)
    assert np.allclose(pre.apply(r), CholeskyFactor(A).solve(r), rtol=1e-11)
    res = pcg(A, r, preconditioner=pre)
    assert res.iterations == 1 and res.converged


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_coarse_inverse_is_symmetric_and_equals_the_lapack_inverse(domain):
    mesh = make_initial_mesh(domain)
    inverse = MeshHierarchy(mesh)._coarse_inverse
    assert (inverse == inverse.T).all()
    np.testing.assert_allclose(inverse, np.linalg.inv(assemble_riesz(mesh).toarray()),
                               rtol=1e-12)


def test_hierarchy_rejects_disconnected_relation(lshape):
    hierarchy = MeshHierarchy(lshape)
    other = uniform_refine(lshape, 1)
    _, rel = refine_nvb(other, np.arange(other.num_triangles))
    with pytest.raises(ValueError, match="finest level"):
        hierarchy.push(rel)


def test_multilevel_apply_is_linear_and_symmetric(lshape, rng):
    hierarchy = MeshHierarchy(lshape)
    mesh, rel = refine_nvb(lshape, np.array([0, 1, 5]))
    hierarchy.push(rel)
    mesh, rel = refine_nvb(mesh, np.arange(0, mesh.num_triangles, 2))
    hierarchy.push(rel)
    pre = hierarchy.preconditioner()
    n = mesh.num_vertices
    r1 = rng.standard_normal(n)
    r2 = rng.standard_normal(n)
    lin = pre.apply(2.5 * r1 + r2) - (2.5 * pre.apply(r1) + pre.apply(r2))
    assert np.abs(lin).max() <= 1e-12 * max(np.abs(pre.apply(r1)).max(), 1.0)
    s1 = float(pre.apply(r1) @ r2)
    s2 = float(pre.apply(r2) @ r1)
    assert abs(s1 - s2) <= 1e-12 * max(abs(s1), abs(s2))


def _per_level_reference(meshes, relations, r):
    """``C A0^{-1} C' r + sum_l P_L..P_{l+1} D_l (P_L..P_{l+1})' r``, level by level.

    D_l is the inverse Riesz diagonal of level l on its active vertices:
    the new vertices and the vertices of the coarse elements that were
    refined.
    """
    prolongations = [vertex_prolongation_matrix(rel.new_vertex_parents, rel.coarse.num_vertices)
                     for rel in relations]
    residuals = [r]
    for p in reversed(prolongations):
        residuals.append(p.T @ residuals[-1])
    residuals.reverse()
    z = np.linalg.solve(assemble_riesz(meshes[0]).toarray(), residuals[0])
    for coarse, fine, p, res in zip(meshes, meshes[1:], prolongations, residuals[1:]):
        refined = np.bincount(fine.father, minlength=coarse.num_triangles) > 1
        active = np.zeros(fine.num_vertices, dtype=bool)
        active[coarse.num_vertices:] = True
        active[coarse.triangles[refined].ravel()] = True
        z = p @ z + np.where(active, 1.0 / assemble_riesz(fine).diagonal(), 0.0) * res
    return z


def _random_hierarchy(domain):
    """Seven random levels of ``domain``, one refined only through boundary segments."""
    rng = np.random.default_rng(11)
    mesh = make_initial_mesh(domain)
    bm = boundary_trace(mesh)
    hierarchy = MeshHierarchy(mesh)
    meshes, relations = [mesh], []
    for step in range(7):
        if step == 3:
            marked = np.zeros(0, dtype=np.int64)
            msegs = rng.choice(bm.num_segments, size=3, replace=False)
        else:
            marked = rng.choice(mesh.num_triangles, size=1 + mesh.num_triangles // 6,
                                replace=False)
            msegs = ()
        mesh, rel = refine_nvb(mesh, marked, marked_segments=msegs, bmesh=bm)
        bm = rel.fine_trace
        hierarchy.push(rel)
        meshes.append(mesh)
        relations.append(rel)
    return hierarchy, meshes, relations


def _assert_matches_per_level_sum(hierarchy, meshes, relations):
    pre = hierarchy.preconditioner()
    rng = np.random.default_rng(12)
    for _ in range(3):
        r = rng.standard_normal(meshes[-1].num_vertices)
        ref = _per_level_reference(meshes, relations, r)
        assert np.abs(pre.apply(r) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_composite_apply_matches_per_level_sum(domain):
    hierarchy, meshes, relations = _random_hierarchy(domain)
    _assert_matches_per_level_sum(hierarchy, meshes, relations)
    assert len(hierarchy._blocks) == 1


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_blocked_apply_matches_per_level_sum(domain, monkeypatch):
    monkeypatch.setattr(solver, "_BLOCK_FILL", 2)
    hierarchy, meshes, relations = _random_hierarchy(domain)
    _assert_matches_per_level_sum(hierarchy, meshes, relations)
    assert len(hierarchy._blocks) >= 3


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_one_block_apply_has_the_bits_of_the_composite_basis(domain):
    hierarchy, meshes, _ = _random_hierarchy(domain)
    pre = hierarchy.preconditioner()
    [(basis, inverse_diagonal)] = hierarchy._blocks
    assert inverse_diagonal.size > 0
    rng = np.random.default_rng(13)
    for _ in range(3):
        r = rng.standard_normal(meshes[-1].num_vertices)
        ref = composite_apply_reference(basis, inverse_diagonal,
                                        hierarchy._coarse_inverse, r)
        assert pre.apply(r).tobytes() == ref.tobytes()


def test_push_folds_its_level_and_the_preconditioner_folds_nothing(lshape, monkeypatch):
    folds = []
    plain_fold = MeshHierarchy._fold

    def fold(self, fine, prolongation):
        folds.append(fine)
        plain_fold(self, fine, prolongation)

    monkeypatch.setattr(MeshHierarchy, "_fold", fold)
    hierarchy = MeshHierarchy(lshape)
    mesh = lshape
    for k in range(1, 4):
        mesh, rel = refine_nvb(mesh, np.arange(0, mesh.num_triangles, 3))
        assert derived_facts(rel.coarse) != []
        hierarchy.push(rel)
        assert derived_facts(rel.coarse) == []          # the refined mesh forgets its facts
        assert len(folds) == k and folds[-1] is mesh is hierarchy.finest
        blocks = list(hierarchy._blocks)
        hierarchy.preconditioner()
        assert len(folds) == k
        assert all(new is old for pair in zip(hierarchy._blocks, blocks)
                   for new, old in zip(*pair))


def test_multilevel_preconditioned_pcg_converges(lshape, rng):
    hierarchy = MeshHierarchy(lshape)
    mesh = lshape
    for _ in range(4):
        mesh, rel = refine_nvb(mesh, np.arange(mesh.num_triangles))
        hierarchy.push(rel)
    A = assemble_riesz(mesh)
    b = rng.standard_normal(mesh.num_vertices)
    res = pcg(A, b, preconditioner=hierarchy.preconditioner(),
              rel_threshold=1e-8 ** 2)
    assert res.converged and res.iterations <= 40
    x_direct = CholeskyFactor(A).solve(b)
    assert np.linalg.norm(res.x - x_direct) <= 1e-5 * np.linalg.norm(x_direct)
