"""P1 finite elements: assembly, prolongation, norms."""

import tracemalloc

import numpy as np
import pytest

from _helpers import (TRI_P5, TRI_P8, apply_interior_operator_reference, at_barycentric,
                      boundary_load_reference, derived_facts, eta_fem_reference, f_one,
                      h1_error_reference, phi0_zero, points_reference, quadrature_points,
                      random_nvb_mesh, riesz_diagonal_reference, riesz_reference,
                      stiffness_reference, uniform_refine, volume_load_reference, zero_fe)
import fembem.mesh
from fembem.estimate import _interior_edges, eta_fem
from fembem.fem import (P5_BARYCENTRIC, P5_WEIGHTS, FeFunction, _hat_gradients,
                        apply_interior_operator, assemble_riesz, assemble_w_rhs,
                        boundary_load, h1_error, h1_norm, prolongate, quadrature_values,
                        riesz_diagonal, volume_load)
from fembem.mesh import (Mesh, boundary_trace, make_initial_mesh, refine_nvb,
                         vertex_prolongation_matrix)
from fembem.model import make_problem
from fembem.solver import CholeskyFactor, MeshHierarchy


def identity_flux(grads):
    """Flux map A(g) = g, whose form is the stiffness bilinear form."""
    return grads


# ---------------------------------------------------------------------------
# quadrature rules


def reference_triangle_moment(a, b):
    """Exact integral of x^a y^b over the unit right triangle."""
    import math
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("rule,degree", [(TRI_P5, 5), (TRI_P8, 8)])
def test_triangle_rule_declared_exactness(rule, degree):
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert (rule.weights > 0).all()
    assert np.allclose(rule.barycentric.sum(axis=1), 1.0, rtol=1e-13)
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))
    pts = quadrature_points(rule, mesh).reshape(-1, 2)
    area = 0.5
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = area * (rule.weights * pts[:, 0] ** a * pts[:, 1] ** b).sum()
            assert abs(approx - reference_triangle_moment(a, b)) < 1e-14


def test_the_p5_rule_is_read_only():
    for arr in (P5_BARYCENTRIC, P5_WEIGHTS):
        with pytest.raises(ValueError):
            arr[0] = 0


# ---------------------------------------------------------------------------
# assembly


def test_stiffness_unit_right_triangle_diagonal():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))
    S = stiffness_reference(mesh).toarray()
    # hat at the right-angle vertex: grad = (-1, -1), |grad|^2 |T| = 2 * 1/2
    assert abs(S[0, 0] - 1.0) < 1e-15
    assert abs(S[1, 1] - 0.5) < 1e-15
    assert abs(S[2, 2] - 0.5) < 1e-15


def test_constant_in_stiffness_kernel(lshape):
    mesh = uniform_refine(lshape, 2)
    S = stiffness_reference(mesh)
    ones = np.ones(mesh.num_vertices)
    assert np.abs(S @ ones).max() < 1e-13


def test_riesz_of_ones_gives_domain_area(lshape, zshape):
    for mesh, area in ((lshape, 3.0 / 16.0), (zshape, 0.25 - 0.03125)):
        R = assemble_riesz(uniform_refine(mesh, 1))
        ones = np.ones(R.shape[0])
        assert abs(ones @ (R @ ones) - area) < 1e-13


def test_riesz_symmetric_spd(lshape):
    R = assemble_riesz(uniform_refine(lshape, 2)).toarray()
    assert np.abs(R - R.T).max() < 1e-14
    np.linalg.cholesky(R)
    assert np.allclose(riesz_diagonal(uniform_refine(lshape, 2)), np.diag(R),
                       rtol=1e-13)


def test_galerkin_nesting_identity(lshape):
    coarse = uniform_refine(lshape, 1)
    fine, rel = refine_nvb(coarse, np.arange(coarse.num_triangles))
    P = vertex_prolongation_matrix(rel.new_vertex_parents, coarse.num_vertices)
    for assemble in (assemble_riesz, stiffness_reference):
        Sc = assemble(coarse).toarray()
        Sf = assemble(fine).toarray()
        assert np.abs(P.T @ Sf @ P - Sc).max() < 1e-12


def test_volume_load_of_one_is_hat_integrals(lshape):
    mesh = uniform_refine(lshape, 1)
    F = volume_load(mesh, f_one)
    support = np.zeros(mesh.num_vertices)
    np.add.at(support, mesh.triangles, mesh.areas()[:, None])
    assert np.allclose(F, support / 3.0, rtol=1e-14)
    assert abs(F.sum() - mesh.areas().sum()) < 1e-15


@pytest.mark.parametrize("q", [2, 4, 7])
def test_boundary_load_of_one(lshape, q):
    """The order of the rule is the number of values per segment."""
    bm = boundary_trace(lshape)
    F = boundary_load(bm, np.ones((bm.num_segments, q)))
    assert abs(F.sum() - 2.0) < 1e-13
    # each boundary vertex collects half the length of its two segments
    half = np.zeros(lshape.num_vertices)
    verts = bm.boundary_vertices
    L = bm.lengths()
    np.add.at(half, verts, L / 2.0)
    np.add.at(half, np.roll(verts, -1), L / 2.0)
    assert np.allclose(F, half, rtol=1e-13)


def test_w_rhs_is_residual_of_solved_system(lshape):
    mesh = uniform_refine(lshape, 2)
    bm = boundary_trace(mesh)
    f = lambda x: np.cos(x[:, 0]) + x[:, 1]
    phi0 = lambda x, n: x[:, 0] * n[:, 0]
    psi = np.linspace(0.0, 1.0, bm.num_segments)
    rhs = assemble_w_rhs(mesh, bm, f, phi0, psi, zero_fe(mesh), identity_flux)
    x = CholeskyFactor(assemble_riesz(mesh)).solve(rhs)
    # with u_prev = solution, the operator term subtracts exactly K @ x
    resid = assemble_w_rhs(mesh, bm, f, phi0, psi, FeFunction(mesh, x), identity_flux)
    expected = rhs - stiffness_reference(mesh) @ x
    assert np.abs(resid - expected).max() <= 1e-10 * np.linalg.norm(rhs)


def test_w_rhs_quadrature_refinement_smooth(zshape):
    mesh = uniform_refine(zshape, 2)
    bm = boundary_trace(mesh)
    op = make_problem("nonlinear_zshape").operator
    f = lambda x: np.cos(2 * x[:, 0]) * np.sin(2 * x[:, 1])
    phi0 = lambda x, n: (x[:, 0] + 0.5 * x[:, 1]) * n[:, 0]
    uprev = FeFunction(mesh, np.exp(mesh.vertices[:, 0]) * (1 + mesh.vertices[:, 1]))
    psi = np.linspace(-1.0, 1.0, bm.num_segments)
    r5 = assemble_w_rhs(mesh, bm, f, phi0, psi, uprev, op)
    # only the volume load depends on the triangle rule
    r8 = r5 - volume_load(mesh, f) + volume_load_reference(mesh, f, TRI_P8)
    assert np.linalg.norm(r5 - r8) <= 1e-8 * np.linalg.norm(r8)


def test_w_rhs_validates_inputs(lshape):
    fine = uniform_refine(lshape, 1)
    bm = boundary_trace(fine)
    with pytest.raises(ValueError):
        assemble_w_rhs(fine, bm, f_one, phi0_zero, np.zeros(bm.num_segments),
                       zero_fe(lshape), identity_flux)  # u_prev on the wrong mesh
    with pytest.raises(ValueError):
        assemble_w_rhs(fine, bm, f_one, phi0_zero,
                       np.zeros(bm.num_segments + 1), zero_fe(fine), identity_flux)


def test_galerkin_orthogonality(lshape):
    mesh = uniform_refine(lshape, 2)
    rhs = volume_load(mesh, lambda x: np.exp(x[:, 0] - x[:, 1]))
    S = assemble_riesz(mesh)
    x = CholeskyFactor(S).solve(rhs)
    assert np.abs(rhs - S @ x).max() <= 1e-10 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# prolongation


def test_prolongate_constant_and_hat(lshape):
    fine, rel = refine_nvb(lshape, np.arange(12))
    ones = prolongate(FeFunction(lshape, np.ones(11)), rel)
    assert np.array_equal(ones.values, np.ones(fine.num_vertices))

    hat = np.zeros(11)
    hat[0] = 1.0
    fine_hat = prolongate(FeFunction(lshape, hat), rel)
    assert np.array_equal(fine_hat.values[:11], hat)
    for i, (pa, pb) in enumerate(rel.new_vertex_parents):
        expected = 0.5 * (hat[pa] + hat[pb]) if max(pa, pb) < 11 else None
        if expected is not None:
            assert fine_hat.values[11 + i] == expected


def test_prolongate_preserves_h1_norm(lshape, rng):
    mesh = uniform_refine(lshape, 1)
    fine, rel = refine_nvb(mesh, np.arange(mesh.num_triangles))
    u = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    uf = prolongate(u, rel)
    assert abs(h1_norm(uf) - h1_norm(u)) <= 1e-12 * h1_norm(u)
    # matrix route agrees with the direct averaging up to roundoff
    P = vertex_prolongation_matrix(rel.new_vertex_parents, rel.coarse.num_vertices)
    assert np.allclose(P @ u.values, uf.values, rtol=0, atol=1e-15)


def test_prolongate_rejects_wrong_mesh(lshape):
    fine, rel = refine_nvb(lshape, np.arange(12))
    with pytest.raises(ValueError):
        prolongate(FeFunction(fine, np.zeros(fine.num_vertices)), rel)


def test_prolongate_rejects_a_same_size_mesh_of_other_triangles(lshape, rng):
    """A function must live on the coarse mesh itself, not one with its vertex count."""
    fine, rel = refine_nvb(lshape, np.arange(12))
    values = rng.standard_normal(lshape.num_vertices)
    # the same vertices, every element listed from another corner, and a copy
    other = Mesh(lshape.vertices, np.roll(lshape.triangles, 1, axis=1))
    twin = Mesh(lshape.vertices, lshape.triangles)
    for mesh in (other, twin):
        with pytest.raises(ValueError, match="u does not live"):
            prolongate(FeFunction(mesh, values), rel)


# ---------------------------------------------------------------------------
# norms and errors


def test_h1_error_affine_exact(lshape):
    mesh = uniform_refine(lshape, 1)
    u = lambda x: 1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 1]
    grad = lambda x: np.tile([2.0, 3.0], (len(x), 1))
    uh = FeFunction(mesh, u(mesh.vertices))
    assert h1_error(uh, u, grad) < 1e-12


def corner_adaptive_lshape(rounds=14):
    mesh = make_initial_mesh("lshape")
    for _ in range(rounds):
        at_corner = (np.abs(mesh.corners()).sum(axis=2) < 1e-12).any(axis=1)
        mesh, _ = refine_nvb(mesh, np.flatnonzero(at_corner))
    return mesh


def test_h1_error_quadrature_refinement_corner_solution():
    prob = make_problem("laplace_lshape")
    mesh = corner_adaptive_lshape()
    uh = FeFunction(mesh, prob.exact.u(mesh.vertices))
    e5 = h1_error(uh, prob.exact.u, prob.exact.grad_u)
    e8 = h1_error_reference(uh, prob.exact.u, prob.exact.grad_u, TRI_P8)
    assert abs(e5 - e8) <= 1e-3 * e8


def test_h1_error_evaluates_the_exact_solution_in_each_call_and_keeps_nothing(rng):
    """Each call evaluates the exact solution and its gradient on every point once; the error
    keeps its bits, and the mesh keeps no value of either.

    The mesh holds more than one block of quadrature points, so each
    function is called once per block.
    """
    exact = make_problem("laplace_lshape").exact
    mesh = uniform_refine(random_nvb_mesh("lshape", 3), 4)
    calls = []

    def u(points):
        calls.append(("u", len(points)))
        return exact.u(points)

    def grad_u(points):
        calls.append(("grad_u", len(points)))
        return exact.grad_u(points)

    flat = quadrature_points(TRI_P5, mesh).reshape(-1, 2)
    for _ in range(2):
        uh = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
        du = exact.u(flat).reshape(mesh.num_triangles, -1) - at_barycentric(uh, TRI_P5.barycentric)
        dg = exact.grad_u(flat).reshape(mesh.num_triangles, -1, 2) \
            - uh.element_gradients()[:, None, :]
        dens = du ** 2 + np.einsum("tqd,tqd->tq", dg, dg)
        ref = float(np.sqrt(np.einsum("t,q,tq->", mesh.areas(), TRI_P5.weights, dens)))
        assert h1_error(uh, u, grad_u) == ref
    for name in ("u", "grad_u"):
        sizes = [n for who, n in calls if who == name]
        assert len(sizes) > 2 and sum(sizes) == 2 * 7 * mesh.num_triangles, name
    assert not [key for key in derived_facts(mesh) if "values" in key]


def test_h1_error_monotone_under_uniform_refinement(lshape):
    prob = make_problem("laplace_lshape")
    mesh = lshape
    errors = []
    for _ in range(4):
        uh = FeFunction(mesh, prob.exact.u(mesh.vertices))
        errors.append(h1_error(uh, prob.exact.u, prob.exact.grad_u))
        mesh = uniform_refine(mesh, 1)
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_energy_identity(lshape, rng):
    mesh = uniform_refine(lshape, 1)
    u = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    R = assemble_riesz(mesh)
    energy = u.values @ (R @ u.values)
    area = mesh.areas()
    uq = at_barycentric(u, TRI_P5.barycentric)
    grads = u.element_gradients()
    quad = (area * (TRI_P5.weights * uq ** 2).sum(axis=1)).sum() \
        + (area * (grads ** 2).sum(axis=1)).sum()
    assert abs(energy - quad) <= 1e-12 * energy
    assert abs(h1_norm(u) - np.sqrt(energy)) <= 1e-13 * np.sqrt(energy)


def test_riesz_matrix_is_kept_read_only_on_the_mesh(lshape):
    mesh = uniform_refine(lshape, 2)
    R = assemble_riesz(mesh)
    assert assemble_riesz(mesh) is R
    for arr in (R.data, R.indices, R.indptr):
        with pytest.raises(ValueError):
            arr[0] = 0


def load(points):
    return np.sin(3.0 * points[:, 0]) * points[:, 1]


EXACT = make_problem("laplace_lshape").exact

# every fact a mesh derives: the key it is kept under, and how to ask for it
MESH_FACTS = {
    "corners": Mesh.corners,
    "areas": Mesh.areas,
    "edge_structure": Mesh.edge_structure,
    "interior_edges": _interior_edges,
    "hat_gradients": _hat_gradients,
    str(("values", load)): lambda mesh: quadrature_values(mesh, load),
    str(("values", EXACT.u)): lambda mesh: quadrature_values(mesh, EXACT.u),
    str(("values", EXACT.grad_u)): lambda mesh: quadrature_values(mesh, EXACT.grad_u),
    "riesz": assemble_riesz,
}


def _arrays(fact):
    if isinstance(fact, tuple):
        return list(fact)
    if isinstance(fact, np.ndarray):
        return [fact]
    return [fact.data, fact.indices, fact.indptr]


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
@pytest.mark.parametrize("seed", [0, 1])
def test_mesh_facts_are_kept_read_only_and_equal_a_fresh_build(domain, seed):
    """Each fact is built once, shared read-only, and has the bytes of a build on a bare mesh."""
    mesh = random_nvb_mesh(domain, seed)
    kept = {key: derive(mesh) for key, derive in reversed(MESH_FACTS.items())}
    assert derived_facts(mesh) == sorted(MESH_FACTS)
    for key, derive in MESH_FACTS.items():
        assert derive(mesh) is kept[key], key
        bare = Mesh(mesh.vertices, mesh.triangles, mesh.father)
        fresh = derive(bare)                     # the first fact this copy derives
        for got, ref in zip(_arrays(kept[key]), _arrays(fresh), strict=True):
            assert not got.flags.writeable, key
            assert got.dtype == ref.dtype and got.shape == ref.shape, key
            assert got.tobytes() == ref.tobytes(), key
    p = mesh.corners()
    assert p.tobytes() == mesh.vertices[mesh.triangles].tobytes()
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert mesh.areas().tobytes() == area.tobytes()


def test_load_is_evaluated_once_per_mesh(rng):
    """``volume_load`` and ``eta_fem`` of one mesh share the values of ``f``.

    The mesh holds more than one block of quadrature points: ``f`` is
    called once per block, on every point once, and not again while the
    values are kept.
    """
    mesh = uniform_refine(random_nvb_mesh("lshape", 2), 4)
    bm = boundary_trace(mesh)
    calls = []

    def f(points):
        calls.append(len(points))
        return load(points)

    rhs = volume_load(mesh, f)
    first = list(calls)
    assert len(first) > 1 and sum(first) == 7 * mesh.num_triangles
    u = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    eta2 = eta_fem(mesh, bm, u, u, f, phi0_zero, np.zeros(bm.num_segments), identity_flux)
    assert calls == first
    points = quadrature_points(TRI_P5, mesh).reshape(-1, 2)
    assert quadrature_values(mesh, f).tobytes() == load(points).tobytes()
    mesh.drop_derived()
    assert np.array_equal(volume_load(mesh, f), rhs)
    assert np.array_equal(eta_fem(mesh, bm, u, u, f, phi0_zero, np.zeros(bm.num_segments),
                                  identity_flux), eta2)
    assert calls == first + first


NONLINEAR_OP = make_problem("nonlinear_zshape").operator


def _points_themselves(points):
    return points


def positive_load(points):
    """A load whose hat moments sum positive terms, so a relative tolerance applies entrywise."""
    return 2.0 + load(points)


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
@pytest.mark.parametrize("seed", [0, 1])
def test_kernels_equal_their_einsum_and_add_at_forms(domain, seed):
    """Bit for bit where only the kernel changed; at rtol 1e-14 where matmul reorders a sum."""
    rng = np.random.default_rng(seed)
    mesh = random_nvb_mesh(domain, seed)
    bm = boundary_trace(mesh)
    u = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    w = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    psi = rng.standard_normal(bm.num_segments)
    phi0 = EXACT.phi

    def same_bits(got, ref):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    got, ref = assemble_riesz(mesh), riesz_reference(mesh)
    for a, b in ((got.data, ref.data), (got.indices, ref.indices), (got.indptr, ref.indptr)):
        same_bits(a, b)
    same_bits(riesz_diagonal(mesh), riesz_diagonal_reference(mesh))
    for op in (identity_flux, NONLINEAR_OP):
        same_bits(apply_interior_operator(op, u), apply_interior_operator_reference(op, u))
        same_bits(eta_fem(mesh, bm, w, u, load, phi0, psi, op),
                  eta_fem_reference(mesh, bm, w, u, load, phi0, psi, op, TRI_P5))
    values = rng.standard_normal((bm.num_segments, 4))
    same_bits(boundary_load(bm, values), boundary_load_reference(bm, values))
    same_bits(np.asarray(h1_error(u, EXACT.u, EXACT.grad_u)),
              np.asarray(h1_error_reference(u, EXACT.u, EXACT.grad_u, TRI_P5)))
    assert np.allclose(volume_load(mesh, positive_load),
                       volume_load_reference(mesh, positive_load, TRI_P5), rtol=1e-14, atol=0)
    points = quadrature_values(mesh, _points_themselves)
    same_bits(points, quadrature_points(TRI_P5, mesh))
    for rule in (TRI_P5, TRI_P8):
        assert np.allclose(quadrature_points(rule, mesh), points_reference(rule, mesh),
                           rtol=1e-14, atol=0)


def element_pass_bytes(mesh):
    """Bytes of the values of u, grad u and a load at the P5 points of a bare copy of
    ``mesh``, and of ``volume_load``, ``h1_error`` and ``eta_fem`` on it."""
    mesh = Mesh(mesh.vertices, mesh.triangles, mesh.father)
    bm = boundary_trace(mesh)
    rng = np.random.default_rng(5)
    u, w = (FeFunction(mesh, rng.standard_normal(mesh.num_vertices)) for _ in range(2))
    psi = rng.standard_normal(bm.num_segments)
    return [quadrature_values(mesh, f).tobytes() for f in (EXACT.u, EXACT.grad_u, load)] + [
        volume_load(mesh, load).tobytes(),
        np.float64(h1_error(u, EXACT.u, EXACT.grad_u)).tobytes(),
        eta_fem(mesh, bm, w, u, load, EXACT.phi, psi, NONLINEAR_OP).tobytes()]


@pytest.mark.parametrize("tail", [None, 1], ids=["two-elements", "tail-of-one"])
def test_the_element_block_size_changes_no_bit(monkeypatch, tail):
    """Blocks of two elements, or blocks that would leave one element over, keep every bit.

    The mesh holds several blocks at the default budget.  A tail of one
    element joins the block before it, so no block holds a single element.
    """
    mesh = uniform_refine(random_nvb_mesh("zshape", 1), 5)
    nt = mesh.num_triangles
    assert nt > 2 * (fembem.mesh._BLOCK_ENTRIES // 7)
    default = element_pass_bytes(mesh)
    step = 2 if tail is None else next(s for s in range(3, nt) if nt % s == tail)
    monkeypatch.setattr(fembem.mesh, "_BLOCK_ENTRIES", 7 * step)
    blocks = list(fembem.mesh._blocks(nt, 7, 2))
    assert [t0 for t0, _ in blocks[1:]] == [t1 for _, t1 in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == nt
    assert min(t1 - t0 for t0, t1 in blocks) >= 2 and len(blocks) > 2
    assert element_pass_bytes(mesh) == default


def _traced(build):
    """``build()`` under tracemalloc: (bytes it leaves alive, bytes its peak rises above them)."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    build()
    current, peak = tracemalloc.get_traced_memory()
    return current - before, peak - current


def test_element_passes_hold_one_density_and_a_few_blocks_of_temporaries(rng):
    """Traced by tracemalloc, each per-mesh pass peaks above what it leaves alive by a stated
    budget, on an L-shape refined uniformly 11 times (24 576 elements).

    - ``h1_error`` and ``eta_fem``: one (nt, 7) density, one (nt,) array of
      indicators and 16 blocks of ``_BLOCK_ENTRIES`` doubles.  ``h1_error``
      evaluates the exact solution and its gradient afresh and leaves no
      array alive, ``eta_fem`` the load; the blocks hold the working set of
      such a function on the points of one block.  The mesh holds 21
      blocks, so a second temporary of the size of the density does not fit.
    - ``assemble_riesz``: four (nt, 3, 3) arrays of doubles: the local
      blocks, and the COO indices and the CSR copy that SciPy sorts them into.
    - the first ``edge_structure``: five int64 arrays of one entry per
      local edge, so the keys, their sorted copy and their order, and
      the incidence it returns.
    - a ``MeshHierarchy.push`` that folds the level into the last block:
      twice the block it leaves (the grown basis and its stacked copy)
      and 16 blocks, so the old basis is gone before the stacking.
    """
    meshes = [make_initial_mesh("lshape")]
    relations = []
    for _ in range(11):
        fine, rel = refine_nvb(meshes[-1], np.arange(meshes[-1].num_triangles))
        meshes.append(fine)
        relations.append(rel)
    mesh = meshes[-1]
    nt = mesh.num_triangles
    assert nt >= 8 * (fembem.mesh._BLOCK_ENTRIES // 7)
    bm = boundary_trace(mesh)
    u, w = (FeFunction(mesh, rng.standard_normal(mesh.num_vertices)) for _ in range(2))
    psi = rng.standard_normal(bm.num_segments)
    bare = Mesh(mesh.vertices, mesh.triangles, mesh.father)
    # the facts that outlive the passes
    mesh.corners(), mesh.areas(), _interior_edges(mesh), u.flux(NONLINEAR_OP)
    _hat_gradients(mesh), w.element_gradients(), bm.gauss_values(EXACT.phi, 2)
    blocks = 16 * 8 * fembem.mesh._BLOCK_ENTRIES
    budget = 8 * (7 * nt + nt) + blocks
    hierarchy = MeshHierarchy(relations[0].fine)
    for rel in relations[1:-2]:
        hierarchy.push(rel)
    eta2 = []
    tracemalloc.start()
    try:
        h1_kept, h1_rise = _traced(lambda: h1_error(u, EXACT.u, EXACT.grad_u))
        _, eta_rise = _traced(lambda: eta2.append(eta_fem(mesh, bm, w, u, load, EXACT.phi,
                                                          psi, NONLINEAR_OP)))
        _, riesz_rise = _traced(lambda: assemble_riesz(mesh))
        _, edges_rise = _traced(bare.edge_structure)
        hierarchy.push(relations[-2])           # the block the last push grows is traced
        num_blocks = len(hierarchy._blocks)
        _, push_rise = _traced(lambda: hierarchy.push(relations[-1]))
    finally:
        tracemalloc.stop()
    assert eta2[0].shape == (nt,)
    assert h1_kept <= 1024 and h1_rise <= budget
    assert eta_rise <= budget
    assert riesz_rise <= 4 * 8 * 9 * nt
    assert edges_rise <= 5 * 8 * 3 * nt
    assert len(hierarchy._blocks) == num_blocks          # the push folded
    basis = hierarchy._blocks[-1][0]
    basis_bytes = basis.data.nbytes + basis.indices.nbytes + basis.indptr.nbytes
    assert push_rise <= 2 * basis_bytes + blocks


def test_flux_runs_once_per_function_and_operator(rng):
    """``assemble_w_rhs`` and ``eta_fem`` of one FEM round share A(grad u_prev)."""
    mesh = random_nvb_mesh("zshape", 1)
    bm = boundary_trace(mesh)
    psi = np.zeros(bm.num_segments)
    calls = []

    def counting(grads):
        calls.append(len(grads))
        return NONLINEAR_OP(grads)

    u = FeFunction(mesh, rng.standard_normal(mesh.num_vertices))
    rhs = assemble_w_rhs(mesh, bm, load, phi0_zero, psi, u, counting)
    w = FeFunction(mesh, rhs)
    eta2 = eta_fem(mesh, bm, w, u, load, phi0_zero, psi, counting)
    assert calls == [mesh.num_triangles]
    assert u.flux(counting) is u.flux(counting)
    assert not u.flux(counting).flags.writeable
    assert u.element_gradients() is u.element_gradients()
    # another function or another operator evaluates afresh, to the same bits
    twin = FeFunction(mesh, u.values)
    assert np.array_equal(assemble_w_rhs(mesh, bm, load, phi0_zero, psi, twin, NONLINEAR_OP), rhs)
    assert np.array_equal(eta_fem(mesh, bm, w, twin, load, phi0_zero, psi, counting), eta2)
    assert len(calls) == 2


def test_fe_function_values_are_a_read_only_copy(lshape, rng):
    values = rng.standard_normal(lshape.num_vertices)
    before = values.copy()
    u = FeFunction(lshape, values)
    assert not np.shares_memory(u.values, values)
    values[0] += 1.0
    assert np.array_equal(u.values, before)
    with pytest.raises(ValueError):
        u.values[0] = 0.0
    assert FeFunction(lshape, u.values).values is not u.values
