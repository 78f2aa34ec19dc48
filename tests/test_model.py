"""Problem data: nonlinearity, manufactured solutions, registry, probes."""

import numpy as np
import pytest

from _helpers import stiffness_reference, uniform_refine
from fembem.fem import FeFunction, apply_interior_operator
from fembem.mesh import boundary_trace, make_initial_mesh
from fembem.model import EXAMPLES, chi, chi_prime, make_problem, monotonicity_probe

# interior points of the L-shape / Z-shape, away from corner and boundary
_INTERIOR_POINTS = np.array([
    (0.12, 0.08), (-0.15, 0.1), (0.05, 0.18), (-0.2, -0.2), (0.21, 0.11),
])


# ---------------------------------------------------------------------------
# the tanh nonlinearity


def test_chi_endpoint_values():
    assert float(chi(0.0)) == 2.0
    assert abs(float(chi(1.0)) - (1.0 + np.tanh(1.0))) <= 1e-15


def test_chi_range():
    t = np.concatenate([[0.0], np.logspace(-8, 8, 300)])
    vals = chi(t)
    assert np.all(vals > 1.0)
    assert np.all(vals <= 2.0)


def test_chi_series_switch_is_continuous():
    t_switch = 1e-4
    lo, hi = t_switch - 1e-12, t_switch + 1e-12
    assert abs(float(chi(lo)) - float(chi(hi))) <= 1e-12
    assert abs(float(chi_prime(lo)) - float(chi_prime(hi))) <= 1e-8


def test_chi_prime_matches_finite_differences():
    assert float(chi_prime(0.0)) == 0.0
    h = 1e-6
    for t in (0.05, 0.3, 1.0, 3.0):
        fd = (float(chi(t + h)) - float(chi(t - h))) / (2 * h)
        assert abs(float(chi_prime(t)) - fd) <= 1e-6


def test_chi_prime_is_free_of_overflow_and_keeps_its_bits():
    """No warning for large |t|; the bits of the direct formula wherever it did not overflow."""
    t = np.linspace(-1e3, 1e3, 200_001)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        vals = chi_prime(t)
    assert np.all(np.isfinite(vals))
    assert np.all(np.abs(vals) <= 1.0 / np.maximum(t * t, 1.0))   # -1/t^2 < chi' < 0 for t > 0
    for x in (400.0, -400.0, 1e3):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            chi_prime(x)
    t = t[np.abs(t) <= 300.0]
    ts = np.where(np.abs(t) < 1e-4, 1.0, t)
    direct = (ts / np.cosh(ts) ** 2 - np.tanh(ts)) / ts ** 2
    series = -2.0 * t / 3.0 + 8.0 * t ** 3 / 15.0
    ref = np.where(np.abs(t) < 1e-4, series, direct)
    assert chi_prime(t).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# manufactured interior / exterior solutions


def five_point_laplacian(u, points, h):
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    return (u(points + e1) + u(points - e1) + u(points + e2) + u(points - e2)
            - 4.0 * u(points)) / h ** 2


@pytest.mark.parametrize("name", ["laplace_lshape", "nonlinear_zshape"])
def test_interior_solution_is_harmonic_like(name):
    prob = make_problem(name)
    lap = five_point_laplacian(prob.exact.u, _INTERIOR_POINTS, 1e-4)
    if name == "laplace_lshape":
        assert np.abs(lap).max() <= 1e-3
    else:
        # for the nonlinear flux only div(chi(|grad u|) grad u) vanishes
        assert np.isfinite(lap).all()


def test_interior_gradient_matches_finite_differences():
    prob = make_problem("laplace_lshape")
    h = 1e-6
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    gx = (prob.exact.u(_INTERIOR_POINTS + e1) - prob.exact.u(_INTERIOR_POINTS - e1)) / (2 * h)
    gy = (prob.exact.u(_INTERIOR_POINTS + e2) - prob.exact.u(_INTERIOR_POINTS - e2)) / (2 * h)
    g = prob.exact.grad_u(_INTERIOR_POINTS)
    assert np.abs(g - np.stack([gx, gy], axis=-1)).max() <= 1e-6


def test_zshape_load_is_negative_flux_divergence():
    prob = make_problem("nonlinear_zshape")
    grad = prob.exact.grad_u

    def flux(x):
        g = grad(x)
        return chi(np.linalg.norm(g, axis=-1))[..., None] * g

    h = 1e-5
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    div = (flux(_INTERIOR_POINTS + e1)[:, 0] - flux(_INTERIOR_POINTS - e1)[:, 0]) / (2 * h) \
        + (flux(_INTERIOR_POINTS + e2)[:, 1] - flux(_INTERIOR_POINTS - e2)[:, 1]) / (2 * h)
    assert np.abs(prob.f(_INTERIOR_POINTS) + div).max() <= 1e-6


def test_exterior_solution_is_harmonic():
    prob = make_problem("laplace_lshape")
    pts = np.array([(0.5, 0.5), (1.0, -0.3), (-0.7, 0.9), (0.3, -0.9)])
    lap = five_point_laplacian(prob.exact.u_ext, pts, 1e-4)
    assert np.abs(lap).max() <= 1e-6


def test_exterior_gradient_and_normal_trace(lshape):
    prob = make_problem("laplace_lshape")
    bm = boundary_trace(uniform_refine(lshape, 1))
    pts, _ = bm.gauss_points(4)
    pts = pts.reshape(-1, 2)
    nrm = np.repeat(bm.normals(), 4, axis=0)
    h = 1e-5
    fd = (prob.exact.u_ext(pts + h * nrm) - prob.exact.u_ext(pts - h * nrm)) / (2 * h)
    phi = prob.exact.phi(pts, nrm)
    # truncation is h^2/6 * |d^3 log r| ~ 2e-8 at the point nearest the pole
    assert np.abs(phi - fd).max() <= 5e-8
    assert np.isfinite(prob.exact.u_ext(pts)).all()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_jump_callbacks_are_consistent(name):
    prob = make_problem(name)
    mesh = uniform_refine(make_initial_mesh(prob.domain), 1)
    bm = boundary_trace(mesh)
    pts, _ = bm.gauss_points(4)
    pts = pts.reshape(-1, 2)
    nrm = np.repeat(bm.normals(), 4, axis=0)
    tau = np.repeat(bm.tangents(), 4, axis=0)

    du0 = prob.u0(pts) - (prob.exact.u(pts) - prob.exact.u_ext(pts))
    assert np.abs(du0).max() <= 1e-12

    flux = prob.operator(prob.exact.grad_u(pts))
    dphi0 = prob.phi0(pts, nrm) - (np.einsum("nd,nd->n", flux, nrm)
                                   - prob.exact.phi(pts, nrm))
    assert np.abs(dphi0).max() <= 1e-12

    dgrad = prob.exact.grad_u(pts) - prob.exact.grad_u_ext(pts)
    dd = prob.du0_ds(pts, tau) - np.einsum("nd,nd->n", dgrad, tau)
    assert np.abs(dd).max() <= 1e-12


# ---------------------------------------------------------------------------
# registry


def test_registry_names():
    assert sorted(EXAMPLES) == [
        "laplace_lshape", "nonlinear_zshape", "scaled_laplace_lshape"]
    for name in EXAMPLES:
        prob = make_problem(name)
        assert prob.name == name


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError, match="laplace_lshape"):
        make_problem("poisson_cube")


# ---------------------------------------------------------------------------
# operator application and monotonicity probes


def test_apply_linear_operator_is_stiffness_action(lshape, rng):
    mesh = uniform_refine(lshape, 1)
    K = stiffness_reference(mesh)
    vals = rng.standard_normal(mesh.num_vertices)
    for name, scale in (("laplace_lshape", 1.0), ("scaled_laplace_lshape", 0.1)):
        op = make_problem(name).operator
        out = apply_interior_operator(op, FeFunction(mesh, vals))
        assert np.allclose(out, scale * (K @ vals), rtol=1e-12, atol=1e-15)


def test_apply_chi_operator_on_affine_function(zshape):
    mesh = uniform_refine(zshape, 1)
    op = make_problem("nonlinear_zshape").operator
    vals = 0.3 * mesh.vertices[:, 0] - 0.7 * mesh.vertices[:, 1] + 0.2
    out = apply_interior_operator(op, FeFunction(mesh, vals))
    K = stiffness_reference(mesh)
    factor = float(chi(np.hypot(0.3, -0.7)))
    assert np.allclose(out, factor * (K @ vals), rtol=1e-12, atol=1e-15)


def test_monotonicity_probe_linear_operators(lshape):
    mesh = uniform_refine(lshape, 1)
    for name, scale in (("laplace_lshape", 1.0), ("scaled_laplace_lshape", 0.1)):
        op = make_problem(name).operator
        lo, hi = monotonicity_probe(op, mesh, trials=50,
                                    rng=np.random.default_rng(7))
        assert abs(lo - scale) <= 1e-10
        assert abs(hi - scale) <= 1e-10


def test_monotonicity_probe_chi_operator(zshape):
    mesh = uniform_refine(zshape, 1)
    op = make_problem("nonlinear_zshape").operator
    lo, hi = monotonicity_probe(op, mesh, trials=1000,
                                rng=np.random.default_rng(123))
    assert lo >= 1.0 - 1e-8
    assert hi <= 2.0 + 1e-8


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_monotonicity_probe_equals_the_matrix_form_quotient(name):
    """The probe's element sums give the quotient of the stiffness matrix and the operator form.

    One trial per seed draws the pair ``v, w`` as the probe does; the
    matrix form is ``(a(w) - a(v)) . d / d . K d`` with ``d = w - v``.
    """
    problem = make_problem(name)
    mesh = uniform_refine(make_initial_mesh(problem.domain), 2)
    K = stiffness_reference(mesh)
    nv = mesh.num_vertices
    for seed in range(20):
        lo, hi = monotonicity_probe(problem.operator, mesh, trials=1,
                                    rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        scale_v = 10.0 ** rng.uniform(-2, 2)
        scale_w = 10.0 ** rng.uniform(-2, 2)
        v = FeFunction(mesh, rng.standard_normal(nv) * scale_v)
        w = FeFunction(mesh, rng.standard_normal(nv) * scale_w)
        d = w.values - v.values
        num = (apply_interior_operator(problem.operator, w)
               - apply_interior_operator(problem.operator, v)) @ d
        q = num / (d @ (K @ d))
        assert lo == hi
        assert abs(lo - q) <= 1e-12 * abs(q), seed
