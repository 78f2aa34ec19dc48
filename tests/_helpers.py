"""Shared helpers for the test suite."""

import numpy as np

from fembem.bem import BoundaryTrace
from fembem.fem import FeFunction
from fembem.mesh import boundary_trace, make_initial_mesh, refine_nvb
from fembem.solver import CholeskyFactor


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


def uniform_refine_relations(mesh, times=1):
    """Like :func:`uniform_refine` but also returns the relation chain."""
    relations = []
    for _ in range(times):
        mesh, rel = refine_nvb(mesh, np.arange(mesh.num_triangles))
        relations.append(rel)
    return mesh, relations


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
    v = x[:, None, :] - p0[None, :, :]
    s0 = np.einsum("mpd,pd->mp", v, d)
    H = np.einsum("mpd,pd->mp", v, n)
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


def f_zero(points):
    return np.zeros(len(points))


def phi0_zero(points, normals):
    return np.zeros(len(points))
