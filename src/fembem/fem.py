"""Lowest-order FEM pieces: Riesz matrix, load functionals, errors.

The inner product behind all energy computations is the full H^1 inner
product ``(grad u, grad v) + (u, v)``; its Galerkin matrix (the "Riesz
matrix") is assembled exactly for P1 elements.  Volume functionals use
a 7-point degree-5 triangle rule, boundary functionals 4-point
Gauss-Legendre per segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .mesh import (BoundaryMesh, Mesh, RefinementRelation, _Derived, _blocks, _read_only,
                   gauss_legendre)

__all__ = [
    "FeFunction",
    "P5_BARYCENTRIC",
    "P5_WEIGHTS",
    "quadrature_values",
    "assemble_riesz",
    "riesz_diagonal",
    "volume_load",
    "boundary_load",
    "apply_interior_operator",
    "assemble_w_rhs",
    "prolongate",
    "h1_error",
    "h1_norm",
]


@dataclass(frozen=True)
class FeFunction(_Derived):
    """Continuous P1 function given by vertex values.

    ``values`` is a read-only copy of the given vector.  The element
    gradients and the flux of each operator are built on first use and
    kept, read-only, for the life of the function.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.mesh.num_vertices,):
            raise ValueError("coefficient vector does not match the mesh")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def check_mesh(self, mesh: Mesh, name: str) -> None:
        """Raise ``ValueError`` unless this function lives on the object ``mesh`` itself."""
        if self.mesh is not mesh:
            raise ValueError(f"{name} does not live on the given mesh")

    def element_gradients(self) -> np.ndarray:
        """(nt, 2) constant gradient per element, kept."""
        return self._derive("element_gradients", lambda: np.einsum(
            "tk,tkd->td", self.values[self.mesh.triangles], _hat_gradients(self.mesh)))

    def flux(self, operator) -> np.ndarray:
        """``operator(element_gradients())``, (nt, 2), kept per ``operator``.

        P1 gradients are constant per element, so this is the exact flux.
        """
        return self._derive(("flux", operator), lambda: operator(self.element_gradients()))


def _sym3(a, w):
    return [(a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)], [w] * 3


def _make_p5():
    pts = [(1 / 3, 1 / 3, 1 / 3)]
    wts = [9 / 40]
    for a, w in ((0.470142064105115, 0.132394152788506),
                 (0.101286507323456, 0.125939180544827)):
        p, ww = _sym3(a, w)
        pts += p
        wts += ww
    return _read_only((np.array(pts), np.array(wts)))


# the 7-point degree-5 triangle rule: barycentric points (7, 3), weights (7,) summing to one
P5_BARYCENTRIC, P5_WEIGHTS = _make_p5()


# the linear map from an element's six corner coordinates to its 14 point
# coordinates: one BLAS product per block, with the bits of
# ``P5_BARYCENTRIC @ corners`` for blocks of two or more elements
_TO_POINTS = np.zeros((6, 2 * len(P5_WEIGHTS)))
_TO_POINTS[0::2, 0::2] = _TO_POINTS[1::2, 1::2] = P5_BARYCENTRIC.T
_TO_POINTS.setflags(write=False)


def _block_points(mesh: Mesh):
    """``(t0, t1, points)`` per block of elements: the (n, 2) ``P5_BARYCENTRIC`` points of t0:t1.

    The blocks are those of :func:`~fembem.mesh._blocks`, of at least two
    elements each; the points of each block are computed afresh and not kept.
    """
    p = mesh.corners()
    for t0, t1 in _blocks(mesh.num_triangles, len(P5_WEIGHTS), 2):
        yield t0, t1, (p[t0:t1].reshape(-1, 6) @ _TO_POINTS).reshape(-1, 2)


def quadrature_values(mesh: Mesh, f) -> np.ndarray:
    """``f`` at the ``P5_BARYCENTRIC`` points of every element, kept on the mesh per ``f``.

    Shape (nt, 7), or (nt, 7, d) for an ``f`` with values in R^d.  ``f``
    is called on the points of one block of elements at a time
    (:func:`_block_points`); the points themselves are not kept.  The
    load is kept this way; :func:`h1_error` evaluates the exact solution
    block by block and keeps nothing.
    """
    def build():
        nt, out = mesh.num_triangles, None
        for t0, t1, points in _block_points(mesh):
            vals = f(points)
            vals = vals.reshape(t1 - t0, len(P5_WEIGHTS), *vals.shape[1:])
            if t1 - t0 == nt:
                return vals               # one block: no copy
            if out is None:
                out = np.empty((nt, *vals.shape[1:]), vals.dtype)
            out[t0:t1] = vals
        return out
    return mesh._derive(("values", f), build)


def _hat_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the three barycentric hats per element, (nt, 3, 2), kept on the mesh."""
    def build():
        p = mesh.corners()
        area2 = 2.0 * mesh.areas()
        if np.any(area2 <= 0):
            raise ValueError("degenerate element in gradient computation")
        g = np.empty((mesh.num_triangles, 3, 2))
        for k in range(3):
            e = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]   # edge opposite vertex k
            g[:, k, 0] = -e[:, 1] / area2
            g[:, k, 1] = e[:, 0] / area2
        return g
    return mesh._derive("hat_gradients", build)


def assemble_riesz(mesh: Mesh) -> csr_matrix:
    """Galerkin matrix of the H^1 inner product (stiffness + mass), kept read-only on the mesh."""
    def build():
        g = _hat_gradients(mesh)
        area = mesh.areas()[:, None, None]
        mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
        # the local (nt, 3, 3) blocks, built in place
        loc = g[:, :, None, 0] * g[:, None, :, 0]
        loc += g[:, :, None, 1] * g[:, None, :, 1]
        loc *= area
        loc += mass * area
        return _scatter(mesh, loc)
    return mesh._derive("riesz", build)


def _scatter(mesh: Mesh, loc: np.ndarray) -> csr_matrix:
    # int32, the index type SciPy picks for the matrix: int64 indices would
    # be copied to int32 on the way into the COO matrix
    t = mesh.triangles.astype(np.int32)
    rows = np.repeat(t, 3, axis=1).reshape(-1)
    cols = np.tile(t, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    return coo_matrix((loc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()


def riesz_diagonal(mesh: Mesh) -> np.ndarray:
    """Diagonal of the Riesz matrix without assembling it."""
    g = _hat_gradients(mesh)
    area = mesh.areas()
    contrib = (np.einsum("tkd,tkd->tk", g, g) + 1.0 / 6.0) * area[:, None]
    return _sum_to_vertices(mesh, contrib)


def _sum_to_vertices(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Sum (nt, 3) per-corner contributions into their vertices, in element order."""
    return np.bincount(mesh.triangles.reshape(-1), contrib.reshape(-1),
                       minlength=mesh.num_vertices)


def volume_load(mesh: Mesh, f) -> np.ndarray:
    """Vector of ``(f, hat_i)`` via the degree-5 triangle rule."""
    fv = quadrature_values(mesh, f)
    area = mesh.areas()
    contrib = ((fv * P5_WEIGHTS) @ P5_BARYCENTRIC) * area[:, None]
    return _sum_to_vertices(mesh, contrib)


def boundary_load(bmesh: BoundaryMesh, values: np.ndarray) -> np.ndarray:
    """Vector of ``(phi, hat_i)_Gamma`` from values at Gauss nodes.

    ``values`` has shape (ns, q) holding the integrand at the nodes of
    :meth:`BoundaryMesh.gauss_points` of order q.
    """
    values = np.asarray(values)
    _, wts = bmesh.gauss_points(values.shape[1])
    xi, _ = gauss_legendre(values.shape[1])
    lam = 0.5 * (xi + 1.0)           # position of each node along the segment
    c0 = np.einsum("sq,q,sq->s", wts, 1.0 - lam, values)
    c1 = np.einsum("sq,q,sq->s", wts, lam, values)
    return np.bincount(bmesh.segments.T.reshape(-1), np.concatenate([c0, c1]),
                       minlength=bmesh.mesh.num_vertices)


def apply_interior_operator(operator, u: FeFunction) -> np.ndarray:
    """Vector of ``a(u; hat_i) = (A(grad u), grad hat_i)`` for a flux map ``A``.

    ``operator(grads (n,2))`` returns the fluxes (n, 2).  P1 gradients
    are constant per element, so the flux is evaluated once per element,
    ``u`` and operator (:meth:`FeFunction.flux`), and the form is exact.
    """
    mesh = u.mesh
    contrib = np.einsum("td,tkd->tk", u.flux(operator), _hat_gradients(mesh)) \
        * mesh.areas()[:, None]
    return _sum_to_vertices(mesh, contrib)


def assemble_w_rhs(mesh: Mesh, bmesh: BoundaryMesh, f, phi0, phi_j, u_prev: FeFunction,
                   operator) -> np.ndarray:
    """Right-hand side of the Riesz update problem.

    Functional ``v -> (f, v) + (phi0 + phi_j, v)_Gamma - a(u_prev; v)``
    where ``a`` applies the (possibly nonlinear) flux map ``operator``.
    ``phi_j`` is a piecewise-constant boundary density given by one value
    per segment of ``bmesh``; ``phi0`` is a callback ``(points, normals)``.
    ``bmesh`` must be a trace of ``mesh`` and ``u_prev`` live on it
    (``ValueError`` otherwise).
    """
    bmesh.check_mesh(mesh)
    u_prev.check_mesh(mesh, "u_prev")
    phi_j = bmesh.per_segment(phi_j, "phi_j")
    rhs = volume_load(mesh, f)
    rhs += boundary_load(bmesh, bmesh.gauss_values(phi0, 4) + phi_j[:, None])
    rhs -= apply_interior_operator(operator, u_prev)
    return rhs


def prolongate(u: FeFunction, relation: RefinementRelation) -> FeFunction:
    """Interpolate a P1 function onto the refined mesh (exact embedding)."""
    u.check_mesh(relation.coarse, "u")
    old = u.values
    parents = relation.new_vertex_parents
    new = 0.5 * (old[parents[:, 0]] + old[parents[:, 1]]) if len(parents) else np.zeros(0)
    return FeFunction(relation.fine, np.concatenate([old, new]))


def _p1_at_points(u: FeFunction, t0: int, t1: int) -> np.ndarray:
    """``u`` at the ``P5_BARYCENTRIC`` points of elements t0:t1, (t1 - t0, 7).

    Called on blocks of two or more elements only: a one-row (1, 3) @ (3, 7)
    product takes NumPy's matrix-vector path and rounds otherwise than the
    rows of a taller product.
    """
    return u.values[u.mesh.triangles[t0:t1]] @ P5_BARYCENTRIC.T


def h1_error(u_h: FeFunction, u_exact, grad_exact) -> float:
    """Full H^1 norm of ``u_exact - u_h`` by the degree-5 triangle rule.

    ``u_exact`` and ``grad_exact`` are evaluated block by block
    (:func:`_block_points`) and nothing of them is kept; the (nt, 7)
    density is built block by block, then summed at once.
    """
    mesh = u_h.mesh
    grads = u_h.element_gradients()
    nq = len(P5_WEIGHTS)
    dens = np.empty((mesh.num_triangles, nq))
    for t0, t1, points in _block_points(mesh):
        du = u_exact(points).reshape(t1 - t0, nq) - _p1_at_points(u_h, t0, t1)
        dg = grad_exact(points).reshape(t1 - t0, nq, 2) - grads[t0:t1, None, :]
        dg **= 2
        np.add(du ** 2, dg[..., 0] + dg[..., 1], out=dens[t0:t1])
    total = np.einsum("t,q,tq->", mesh.areas(), P5_WEIGHTS, dens)
    return float(np.sqrt(total))


def h1_norm(u: FeFunction) -> float:
    """Full H^1 norm (exact for P1, via the Riesz matrix of ``u.mesh``)."""
    S = assemble_riesz(u.mesh)
    return float(np.sqrt(u.values @ (S @ u.values)))
