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
