"""Weighted-residual error indicators and Doerfler marking.

The volume indicator measures how far the current Riesz update ``w``
is from balancing the interior equation at ``u_prev`` with boundary
flux ``phi0 + phi_j``; the boundary indicator measures the defect of
the integral equation through the arclength derivative of its residual
(the derivative is what controls the H^{1/2} dual norm on each panel).
Both carry the mesh-size weights that make the estimate reliable:
``|T|^{2/d}`` in front of volume L2 terms and ``|T|^{1/d}`` in front of
the edge terms, with d = 2.
"""

from __future__ import annotations

import numpy as np

from . import bem
from .fem import P5_WEIGHTS, FeFunction, _p1_at_points, quadrature_values
from .mesh import BoundaryMesh, Mesh, _blocks

__all__ = [
    "eta_fem",
    "mu_bem",
    "doerfler_mark",
]


def eta_fem(mesh: Mesh, bmesh: BoundaryMesh, w: FeFunction, u_prev: FeFunction,
            f, phi0, phi_j, operator) -> np.ndarray:
    """Squared volume indicators, one per element.

    eta(T)^2 = |T| * || f - w ||_{L2(T)}^2
             + |T|^(1/2) * sum_{E in dT \\ Gamma} || [(A grad u_prev + grad w) . n] ||_{L2(E)}^2
             + |T|^(1/2) * sum_{E in dT cap Gamma} || phi0 + phi_j - (A grad u_prev + grad w) . n ||_{L2(E)}^2

    For P1 functions the strong volume residual has no second-order
    part, and normal-flux jumps are constant along each edge; the volume
    term uses the degree-5 triangle rule, the boundary term 2 Gauss
    nodes per segment.  ``w`` and ``u_prev`` must live on ``mesh``,
    ``bmesh`` must be a trace of it, and ``phi_j`` must hold one value
    per segment of ``bmesh`` (``ValueError`` otherwise).
    """
    bmesh.check_mesh(mesh)
    w.check_mesh(mesh, "w")
    u_prev.check_mesh(mesh, "u_prev")
    # total discrete flux, constant per element
    sigma = u_prev.flux(operator) + w.element_gradients()

    # the interior-edge and element passes run in blocks, so that no
    # temporary outgrows a block; only the sums per edge and per element
    # span the mesh
    edges, tri2edge, _ = mesh.edge_structure()
    idx, left, right, elen, enormal = _interior_edges(mesh)
    contrib = np.zeros(len(edges))                     # int_E [..]^2 ds, zero on the boundary
    for e0, e1 in _blocks(len(idx), 2):
        jump = np.einsum("ed,ed->e", sigma[left[e0:e1]] - sigma[right[e0:e1]], enormal[e0:e1])
        contrib[idx[e0:e1]] = elen[e0:e1] * jump ** 2
    area = mesh.areas()
    eta2 = np.empty(mesh.num_triangles)
    fv = quadrature_values(mesh, f)
    for t0, t1 in _blocks(mesh.num_triangles, len(P5_WEIGHTS), 2):
        dens = fv[t0:t1] - _p1_at_points(w, t0, t1)
        a = area[t0:t1]
        eta2[t0:t1] = a ** 2 * np.einsum("q,tq->t", P5_WEIGHTS, dens ** 2) \
            + np.sqrt(a) * contrib[tri2edge[t0:t1]].sum(axis=1)

    # boundary edges: flux mismatch against the given interface data
    _, wts_b = bmesh.gauss_points(2)
    rho = bmesh.gauss_values(phi0, 2) + bmesh.per_segment(phi_j, "phi_j")[:, None]
    # the normal flux is constant along each segment
    rho = rho - np.einsum("sd,sd->s", sigma[bmesh.owner], bmesh.normals())[:, None]
    per_seg = np.einsum("sq,sq->s", wts_b, rho ** 2)
    return eta2 + np.bincount(bmesh.owner, np.sqrt(area[bmesh.owner]) * per_seg,
                              minlength=mesh.num_triangles)


def _interior_edges(mesh: Mesh):
    """Interior edges of ``mesh``, kept on it.

    Returns ``(idx, left, right, lengths, normals)``: the ids of the
    interior edges in :meth:`Mesh.edge_structure`, their two elements,
    their lengths and the unit normals of the sorted vertex pairs.
    """
    def build():
        edges, _, edge2tri = mesh.edge_structure()
        idx = np.flatnonzero(edge2tri[:, 1] >= 0)
        evec = mesh.vertices[edges[idx, 1]] - mesh.vertices[edges[idx, 0]]
        elen = np.hypot(evec[:, 0], evec[:, 1])
        enormal = np.stack([evec[:, 1], -evec[:, 0]], axis=1) / elen[:, None]
        return idx, edge2tri[idx, 0], edge2tri[idx, 1], elen, enormal
    return mesh._derive("interior_edges", build)


def mu_bem(bmesh: BoundaryMesh, psi, g, du0_ds,
           operators: bem.BemOperators | None = None) -> np.ndarray:
    """Squared boundary indicators, one per segment.

    mu(E)^2 = |E| * || d/ds [ (K - 1/2) g - V psi ] ||_{L2(E)}^2
            + |E| * || (1 - Pi) du0/ds ||_{L2(E)}^2

    where Pi is the panel-mean projection; the second term is the data
    oscillation of the interface jump ``du0_ds(points, tangents)``.
    ``operators`` are prebuilt :class:`~fembem.bem.BemOperators`
    of ``bmesh`` itself (``ValueError`` otherwise); without them
    they are built here.  Both terms use the operators' quadrature.
    """
    if operators is None:
        operators = bem.BemOperators(bmesh)
    operators.check_mesh(bmesh)
    vals, _, wts = operators.residual_derivative(psi, g)
    lengths = bmesh.lengths()
    d = bmesh.gauss_values(du0_ds, operators.n_gauss, "tangents")
    mean = np.einsum("sq,sq->s", wts, d) / lengths
    osc = np.einsum("sq,sq->s", wts, (d - mean[:, None]) ** 2)
    return lengths * np.einsum("sq,sq->s", wts, vals ** 2) + lengths * osc


def doerfler_mark(indicators: np.ndarray, theta: float) -> np.ndarray:
    """Minimal set of largest indicators whose sum reaches ``theta`` of the total.

    Greedy: sort descending (ties resolved by index, so marking is
    deterministic), cut as soon as the partial sum reaches the target;
    a tiny relative slack guards against the partial sums never hitting
    an exact floating-point target.  Returns ascending indices.
    """
    ind = np.asarray(indicators, dtype=float)
    if not np.all(np.isfinite(ind)):
        raise ValueError("indicators must be finite")
    if np.any(ind < 0.0):
        raise ValueError("indicators must be non-negative")
    total = ind.sum()
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    if total <= 0.0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(-ind, kind="stable")
    csum = np.cumsum(ind[order])
    target = theta * total * (1.0 - 1e-12)
    m = int(np.searchsorted(csum, target, side="left")) + 1
    return np.sort(order[:m])

