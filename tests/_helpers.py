"""Shared helpers for the test suite.

Mesh builders and callbacks shared by the test modules; the API only
the tests use (triangle rules as point/weight pairs, the 8th-degree
rule among them, the quadrature points of a rule, values of a function
and of a P1 function at them, mesh checks, the pointwise single-layer
potential, boundary integrals, CSV reading, the platform
signature that bit-level pins name when they fail); and the
einsum / ``np.add.at`` forms of the FEM kernels, kept as references for
the matmul / ``np.bincount`` code in ``fembem.fem`` and
``fembem.estimate``, and of the panel products in ``fembem.bem``; the
pairwise same-line test that the line ids of a boundary mesh replace;
and the single-basis multilevel apply, the reference for a one-block
``fembem.solver.LocalMultilevelDiagonal``.
"""

import ctypes
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fembem.bem import (TWO_PI, BemDensity, BemOperators, BoundaryTrace, _frames,
                        _node_panel_geometry, _panel_frames, double_layer_pointwise)
from fembem.cli import CSV_COLUMNS
from fembem.fem import (P5_BARYCENTRIC, P5_WEIGHTS, FeFunction, _hat_gradients, _scatter,
                        _sym3)
from fembem.mesh import (_LINE_TOL, _blocks, boundary_trace, gauss_legendre, make_initial_mesh,
                         refine_nvb)
from fembem.solver import CholeskyFactor


def assert_equal_to_a_fresh_build_by_slot(ops, bmesh):
    """Each matrix of ``ops`` is a fresh build's on ``bmesh``, permuted by the slots, bit for bit.

    Slot s holds segment ``ops.order[s]`` and the Gauss-node rows
    ``s*q ... s*q + q - 1``.
    """
    fresh = BemOperators(bmesh, ops.n_gauss)
    ns, q, o = bmesh.num_segments, ops.n_gauss, ops.order
    assert np.array_equal(fresh.slots, np.arange(ns)) and np.array_equal(fresh.order, np.arange(ns))
    assert np.array_equal(np.sort(o), np.arange(ns)) and np.array_equal(ops.slots[o], np.arange(ns))
    nodes = (o[:, None] * q + np.arange(q)).reshape(-1)
    for name, rows in (("V", o), ("DL0", o), ("DL1", o), ("MK", nodes), ("MV", nodes)):
        a, b = getattr(ops, name), getattr(fresh, name)[np.ix_(rows, o)]
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def uniform_refine(mesh, times=1):
    """Bisect every triangle ``times`` times; returns the final mesh."""
    for _ in range(times):
        mesh, _ = refine_nvb(mesh, np.arange(mesh.num_triangles))
    return mesh


def random_nvb_mesh(domain, seed, rounds=4):
    """Initial mesh of ``domain`` refined ``rounds`` times at random elements and segments."""
    rng = np.random.default_rng(seed)
    mesh = make_initial_mesh(domain)
    for _ in range(rounds):
        nt, ns = mesh.num_triangles, boundary_trace(mesh).num_segments
        mesh, _ = refine_nvb(mesh, rng.choice(nt, size=nt // 4 + 1, replace=False),
                             marked_segments=rng.choice(ns, size=2, replace=False))
    return mesh


def derived_facts(mesh):
    """Keys of the derived facts a mesh holds."""
    return sorted(map(str, vars(mesh).get("_facts", {})))


def uniform_refine_boundary(mesh, times=1):
    """Refine every triangle and split every boundary segment each round."""
    bm = boundary_trace(mesh)
    relations = []
    for _ in range(times):
        mesh, rel = refine_nvb(mesh, np.arange(mesh.num_triangles),
                               marked_segments=np.arange(bm.num_segments),
                               bmesh=bm)
        bm = boundary_trace(mesh)
        relations.append(rel)
    return mesh, bm, relations


def double_layer_derivative_closed_form(bmesh, g, n_gauss=4):
    """Arclength derivative of the double layer ``K g`` at the Gauss nodes, per vertex value.

    The derivative of the closed-form panel term ``H int g(t) / D dt``
    with ``g(t) = g0 + mu t``, written with the 1/h, 1/h^2 and 1/h^3
    antiderivatives ``A0, A1, B0, B1u, B2u`` and their coefficients
    ``c0`` of ``g0`` and ``c1`` of the slope ``mu``.  Panels on the line
    of a node add nothing.  Returns shape (ns * n_gauss,).
    """
    pts, _ = bmesh.gauss_points(n_gauss)
    x = pts.reshape(-1, 2)
    p0, d, n, L = bmesh.endpoints()[0], bmesh.tangents(), bmesh.normals(), bmesh.lengths()
    tau = np.repeat(d, n_gauss, axis=0)
    s0, H = panel_coordinates_reference(x, p0, d, n)
    h = np.abs(H)
    a, b = -s0, L[None, :] - s0
    qa, qb = a * a + h * h, b * b + h * h
    span = np.arctan2(h * L[None, :], h * h + a * b)
    td, tn = tau @ d.T, tau @ n.T
    with np.errstate(divide="ignore", invalid="ignore"):
        A0 = span / h
        A1 = -0.5 * (np.log(qa) - np.log(qb)) + s0 * A0
        B1u = 0.5 * (1.0 / qa - 1.0 / qb)
        B0 = 0.5 * (b / qb - a / qa) / (h * h) + 0.5 * span / h ** 3
        B2u = 0.5 * (a / qa - b / qb) + 0.5 * span / h
        # tn (g0 A0 + mu A1) + 2 H td (gs B1u + mu B2u) - 2 H^2 tn (gs B0 + mu B1u)
        # with gs = g0 + mu * s0
        c0 = tn * A0 + 2.0 * H * td * B1u - 2.0 * H * H * tn * B0
        c1 = (tn * A1 + 2.0 * H * td * (s0 * B1u + B2u)
              - 2.0 * H * H * tn * (s0 * B0 + B1u))
    on_line = h <= 1e-9 * np.maximum(L[None, :], 1.0)
    g0, g1 = g.endpoint_values()
    mu = (g1 - g0) / L
    return (np.where(on_line, 0.0, c0) @ g0 + np.where(on_line, 0.0, c1) @ mu) / (2.0 * np.pi)


def nodal_interpolate_u0(bmesh, u0):
    """Nodal interpolant of transmission data in the boundary vertices."""
    return BoundaryTrace(bmesh, u0(bmesh.mesh.vertices[bmesh.boundary_vertices]))


class FactorizedPreconditioner:
    """Exact application of the inverse; turns PCG into a direct method."""

    def __init__(self, matrix):
        self.apply = CholeskyFactor(matrix).solve


def zero_fe(mesh):
    return FeFunction(mesh, np.zeros(mesh.num_vertices))


def f_one(points):
    return np.ones(len(points))


def phi0_zero(points, normals):
    return np.zeros(len(points))


# ---------------------------------------------------------------------------
# API only the tests use


class Rule(NamedTuple):
    """Triangle rule in barycentric coordinates; weights sum to one."""

    barycentric: np.ndarray   # (nq, 3)
    weights: np.ndarray       # (nq,)


TRI_P5 = Rule(P5_BARYCENTRIC, P5_WEIGHTS)


def _perm6(a, b, w):
    c = 1 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)], [w] * 6


def _make_tri_p8() -> Rule:
    pts = [(1 / 3, 1 / 3, 1 / 3)]
    wts = [0.1443156076777871]
    for a, w in [
        (0.4592925882927231, 0.0950916342672846),
        (0.1705693077517602, 0.1032173705347182),
        (0.0505472283170310, 0.0324584976231980),
    ]:
        p, ww = _sym3(a, w)
        pts += p
        wts += ww
    p, ww = _perm6(0.2631128296346381, 0.0083947774099576, 0.0272303141744349)
    pts += p
    wts += ww
    return Rule(np.array(pts), np.array(wts))


TRI_P8 = _make_tri_p8()


def validate(mesh) -> None:
    """Cheap structural checks of a triangulation."""
    if np.any(mesh.areas() <= 0):
        raise ValueError("degenerate or clockwise element")
    edges, tri2edge, edge2tri = mesh.edge_structure()
    # every interior edge must appear once in each orientation
    t = mesh.triangles
    raw = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1).reshape(-1, 2)
    directed = set(map(tuple, raw.tolist()))
    if len(directed) != len(raw):
        raise ValueError("duplicated directed edge")
    interior = edge2tri[:, 1] >= 0
    for a, b in edges[interior]:
        if (a, b) not in directed or (b, a) not in directed:
            raise ValueError("inconsistent orientation across an interior edge")


def shape_regularity(mesh) -> float:
    """max_T diam(T) / |T|^(1/2)."""
    p = mesh.corners()
    diam = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2).max(axis=1)
    return float(np.max(diam / np.sqrt(mesh.areas())))


def _log_inner(points, p0, d, n, L):
    """Closed-form ``int_panel log|x-y| ds(y)`` for all (point, panel) pairs."""
    s0, H, h, a, b, span, la, lb = _node_panel_geometry(points, p0, d, n, L)
    return 0.5 * (b * lb - a * la) - L[None, :] + h * span


def single_layer_pointwise(bmesh, psi, points) -> np.ndarray:
    """Single-layer potential of a P0 density at arbitrary points."""
    psi_v = psi.values if isinstance(psi, BemDensity) else np.asarray(psi, float)
    p0, d, n, L = _frames(bmesh)
    x = np.atleast_2d(np.asarray(points, float))
    out = np.empty(len(x))
    for i0, i1 in _blocks(len(x), len(L)):
        out[i0:i1] = -(_log_inner(x[i0:i1], p0, d, n, L) @ psi_v) / TWO_PI
    return out


def integrate_double_layer(bmesh, g, n_gauss=4) -> np.ndarray:
    """Per-segment integrals ``int_E (K g) ds`` by outer Gauss quadrature."""
    pts, wts = bmesh.gauss_points(n_gauss)
    kg = double_layer_pointwise(bmesh, g, pts.reshape(-1, 2)).reshape(bmesh.num_segments, n_gauss)
    return np.einsum("sq,sq->s", wts, kg)


def integrate_trace(bmesh, g) -> np.ndarray:
    """Exact per-segment integrals of an affine trace."""
    g0, g1 = g.endpoint_values()
    return 0.5 * bmesh.lengths() * (g0 + g1)


def platform_signature() -> str:
    """The SIMD targets NumPy dispatches to and the core its OpenBLAS runs.

    Bit-level pins (CSV hashes, golden tables) hold on the platform they
    were recorded on; their failure messages name the platform of the
    run.  Either part reads ``unknown`` when it cannot be found.
    """
    try:
        from numpy._core import _multiarray_umath as umath
        simd = " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    except (ImportError, AttributeError):
        simd = "unknown"
    try:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        corename = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*")))) \
            .scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except (StopIteration, OSError, AttributeError):
        core = "unknown"
    return f"NumPy SIMD targets: {simd or 'none'}; OpenBLAS core: {core}"


def read_csv(path):
    """Load a convergence table back as a dict of column arrays."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith(CSV_COLUMNS[0]):
            continue
        rows.append(line.split(","))
    data = np.array(rows, dtype=float)
    return {name: data[:, k] for k, name in enumerate(CSV_COLUMNS)}


# ---------------------------------------------------------------------------
# einsum / np.add.at forms of the FEM kernels


def quadrature_points(rule, mesh):
    """Physical points of ``rule`` on every element, (nt, nq, 2), one product per element.

    ``fembem.fem.quadrature_values`` evaluates at the same bits of the
    ``TRI_P5`` points, one product per block.
    """
    return rule.barycentric @ mesh.corners()


def rule_values(rule, mesh, f):
    """``f`` at the points of ``rule`` on every element, (nt, nq) or (nt, nq, d), in one call.

    Nothing is kept: each call evaluates ``f`` afresh.
    """
    points = quadrature_points(rule, mesh)
    vals = f(points.reshape(-1, 2))
    return vals.reshape(*points.shape[:2], *vals.shape[1:])


def at_barycentric(u, lam):
    """Values of the P1 function ``u`` at the barycentric points ``lam`` (nq, 3), shape (nt, nq)."""
    return u.values[u.mesh.triangles] @ lam.T


def points_reference(rule, mesh):
    return np.einsum("qk,tkd->tqd", rule.barycentric, mesh.corners())


def _element_gradients_reference(u):
    return np.einsum("tk,tkd->td", u.values[u.mesh.triangles], _hat_gradients(u.mesh))


def stiffness_reference(mesh):
    g = _hat_gradients(mesh)
    return _scatter(mesh, np.einsum("tid,tjd->tij", g, g) * mesh.areas()[:, None, None])


def riesz_reference(mesh):
    g = _hat_gradients(mesh)
    area = mesh.areas()
    loc = np.einsum("tid,tjd->tij", g, g) * area[:, None, None]
    mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _scatter(mesh, loc + mass[None, :, :] * area[:, None, None])


def riesz_diagonal_reference(mesh):
    g = _hat_gradients(mesh)
    contrib = (np.einsum("tkd,tkd->tk", g, g) + 1.0 / 6.0) * mesh.areas()[:, None]
    diag = np.zeros(mesh.num_vertices)
    np.add.at(diag, mesh.triangles.reshape(-1), contrib.reshape(-1))
    return diag


def volume_load_reference(mesh, f, rule):
    fv = rule_values(rule, mesh, f)
    contrib = np.einsum("q,tq,qk->tk", rule.weights, fv, rule.barycentric) * mesh.areas()[:, None]
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.triangles.reshape(-1), contrib.reshape(-1))
    return out


def boundary_load_reference(bmesh, values, n_gauss=4):
    _, wts = bmesh.gauss_points(n_gauss)
    xi, _ = gauss_legendre(n_gauss)
    lam = 0.5 * (xi + 1.0)
    out = np.zeros(bmesh.mesh.num_vertices)
    np.add.at(out, bmesh.segments[:, 0], np.einsum("sq,q,sq->s", wts, 1.0 - lam, values))
    np.add.at(out, bmesh.segments[:, 1], np.einsum("sq,q,sq->s", wts, lam, values))
    return out


def apply_interior_operator_reference(operator, u):
    mesh = u.mesh
    flux = operator(_element_gradients_reference(u))
    contrib = np.einsum("td,tkd->tk", flux, _hat_gradients(mesh)) * mesh.areas()[:, None]
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.triangles.reshape(-1), contrib.reshape(-1))
    return out


def h1_error_reference(u_h, u_exact, grad_exact, rule):
    mesh = u_h.mesh
    du = rule_values(rule, mesh, u_exact) - at_barycentric(u_h, rule.barycentric)
    dg = rule_values(rule, mesh, grad_exact) - _element_gradients_reference(u_h)[:, None, :]
    dens = du ** 2 + np.einsum("tqd,tqd->tq", dg, dg)
    return float(np.sqrt(np.einsum("t,q,tq->", mesh.areas(), rule.weights, dens)))


def eta_fem_reference(mesh, bmesh, w, u_prev, f, phi0, phi_j, operator, rule, n_gauss=2):
    area = mesh.areas()
    dens = rule_values(rule, mesh, f) - at_barycentric(w, rule.barycentric)
    eta2 = area ** 2 * np.einsum("q,tq->t", rule.weights, dens ** 2)
    sigma = operator(_element_gradients_reference(u_prev)) \
        + _element_gradients_reference(w)
    edges, tri2edge, edge2tri = mesh.edge_structure()
    evec = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    elen = np.hypot(evec[:, 0], evec[:, 1])
    enormal = np.stack([evec[:, 1], -evec[:, 0]], axis=1) / elen[:, None]
    interior = edge2tri[:, 1] >= 0
    jump = np.einsum("ed,ed->e",
                     sigma[edge2tri[interior, 0]] - sigma[edge2tri[interior, 1]],
                     enormal[interior])
    contrib = np.zeros(len(edges))
    contrib[np.flatnonzero(interior)] = elen[interior] * jump ** 2
    sqrt_area = np.sqrt(area)
    eta2 = eta2 + sqrt_area * contrib[tri2edge].sum(axis=1)
    _, wts_b = bmesh.gauss_points(n_gauss)
    nrm = np.repeat(bmesh.normals()[:, None, :], n_gauss, axis=1)
    rho = bmesh.gauss_values(phi0, n_gauss) + np.asarray(phi_j, float)[:, None]
    rho = rho - np.einsum("sd,sqd->sq", sigma[bmesh.owner], nrm)
    per_seg = np.einsum("sq,sq->s", wts_b, rho ** 2)
    np.add.at(eta2, bmesh.owner, sqrt_area[bmesh.owner] * per_seg)
    return eta2


# ---------------------------------------------------------------------------
# einsum forms of the BEM panel products


def panel_coordinates_reference(x, p0, d, n):
    """Tangential and signed normal coordinate ``(s0, H)`` of points ``x`` in every panel frame."""
    v = np.asarray(x, float)[:, None, :] - p0[None, :, :]
    return np.einsum("mpd,pd->mp", v, d), np.einsum("mpd,pd->mp", v, n)


def collinear_coordinates_reference(p0, p1, d, i, j):
    """Coordinates ``(A2, B2)`` of the ends of panels ``j`` in the frames of panels ``i``."""
    return (np.einsum("kd,kd->k", p0[j] - p0[i], d[i]),
            np.einsum("kd,kd->k", p1[j] - p0[i], d[i]))


def same_line_reference(bmesh):
    """``(ns, ns)``: whether each pair of panels lies on one straight line, by distances.

    Panels i and j are on one line when their unit tangents are parallel
    and both ends of panel j lie on the line of panel i, each to
    ``_LINE_TOL``; the line ids of ``bmesh`` must join exactly these pairs.
    """
    p0, p1, d, n, _ = _panel_frames(bmesh)
    j = np.arange(len(p0))
    i = j[:, None]

    def off(p):   # distance of an end of panel j from the line of panel i
        return np.abs(n[i, 0] * (p[j, 0] - p0[i, 0]) + n[i, 1] * (p[j, 1] - p0[i, 1]))

    cross = np.abs(d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0])
    return (cross < _LINE_TOL) & (off(p0) < _LINE_TOL) & (off(p1) < _LINE_TOL)


# ---------------------------------------------------------------------------
# single-basis multilevel apply


def composite_apply_reference(basis, inverse_diagonal, coarse_inverse, r):
    """``[C Q] (A0^{-1} ⊕ d) [C Q]' r`` with one CSR basis ``[C Q]``."""
    y = basis.T @ np.asarray(r, dtype=float)
    n0 = basis.shape[1] - inverse_diagonal.size
    y[:n0] = np.einsum("ij,j->i", coarse_inverse, y[:n0])
    y[n0:] *= inverse_diagonal
    return basis @ y
