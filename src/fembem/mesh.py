"""Conforming triangulations with newest-vertex-bisection refinement.

Triangles are stored counterclockwise with the convention that the
*reference edge* of element ``(v0, v1, v2)`` is the edge ``v0--v1``
(the newest vertex is ``v2``).  Bisection inserts the midpoint of the
reference edge; the two sons inherit the old non-reference edges as
their reference edges.  Meshes are immutable; refinement returns a new
mesh together with a :class:`RefinementRelation` describing fathers,
sons and the new midpoint vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Mesh",
    "BoundaryMesh",
    "RefinementRelation",
    "make_initial_mesh",
    "refine_nvb",
    "boundary_trace",
    "gauss_legendre",
    "vertex_prolongation_matrix",
]


# Tolerance of the straight-line tests: two consecutive segments of a
# boundary walk are collinear when the cross product of their unit tangents
# is below it (also the on-line test of the pointwise double layer in bem)
_LINE_TOL = 1e-9

# entries of one block of rows: (Gauss nodes or points) x panels in the BEM
# fill, the quadrature points of a run of elements in the FEM passes.  A BEM
# block keeps about 16 temporaries of this size alive, 1 MB at 8 000 entries,
# which stays in a 2 MB L2 cache.  In fresh runs (2-core Xeon VM, one BLAS
# thread, median of 8) the fills of lshape_adaptive_a005 at 10 000 elements
# took 0.20, 0.15, 0.14 and 0.17 s at 4 000, 8 000, 16 000 and 50 000 entries,
# and lshape_gamma095 at 920 peaked at 59.2, 59.2, 59.9 and 61.0 MB
_BLOCK_ENTRIES = 8_000


def _blocks(m: int, width: int, least: int = 1):
    """Ranges of ``m`` rows of ``width`` entries: at most ``_BLOCK_ENTRIES``, or ``least`` rows.

    A tail of fewer than ``least`` rows joins the block before it.
    """
    step = max(least, _BLOCK_ENTRIES // max(width, 1))
    i0 = 0
    while i0 < m:
        i1 = m if m - i0 < step + least else i0 + step
        yield i0, i1
        i0 = i1


def _read_only(fact):
    """Mark every array of a derived fact read-only: an array, a tuple or a CSR matrix."""
    if isinstance(fact, np.ndarray):
        fact.setflags(write=False)
    elif isinstance(fact, tuple):
        for part in fact:
            _read_only(part)
    else:
        for a in (fact.data, fact.indices, fact.indptr):
            a.setflags(write=False)
    return fact


def _frozen(a: np.ndarray) -> np.ndarray:
    return _read_only(np.ascontiguousarray(a))


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    return _read_only(np.polynomial.legendre.leggauss(n))


class _Derived:
    """Facts derived from the arrays of a frozen object, built on first use and kept."""

    def _derive(self, key, build):
        """The derived fact ``key``: built by ``build()`` on the first call, then kept read-only.

        Every fact of an object goes through here, so :meth:`drop_derived`
        forgets all of them at once.
        """
        facts = self.__dict__.setdefault("_facts", {})
        fact = facts.get(key)
        if fact is None:
            fact = facts[key] = _read_only(build())
        return fact

    def drop_derived(self) -> None:
        """Forget every derived fact; the next call builds it again."""
        self.__dict__.pop("_facts", None)


@dataclass(frozen=True)
class Mesh(_Derived):
    """Conforming triangulation of a polygonal domain.

    vertices    -- (nv, 2) float coordinates
    triangles   -- (nt, 3) int vertex ids, counterclockwise, reference
                   edge between the first two vertices
    father      -- (nt,) element id in the previous mesh (-1 for roots)

    Facts derived from these arrays are built on first use and kept,
    read-only, on the mesh: corners, areas and the edge structure here,
    the hat gradients, the values of the load at the points of the
    volume rule and the Riesz matrix in :mod:`fembem.fem`, the interior
    edges in :mod:`fembem.estimate`.  The quadrature points themselves
    are not kept, nor are the values of the exact solution, which
    :func:`fembem.fem.h1_error` evaluates afresh in each call.
    :meth:`drop_derived` forgets all of them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    father: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", _frozen(np.asarray(self.vertices, dtype=float)))
        object.__setattr__(self, "triangles", _frozen(np.asarray(self.triangles, dtype=np.int64)))
        nt = len(self.triangles)
        fat = np.full(nt, -1, dtype=np.int64) if self.father is None else np.asarray(self.father, dtype=np.int64)
        object.__setattr__(self, "father", _frozen(fat))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def corners(self) -> np.ndarray:
        """Vertex coordinates per element, shape (nt, 3, 2)."""
        return self._derive("corners", lambda: self.vertices[self.triangles])

    def areas(self) -> np.ndarray:
        def build():
            p = self.corners()
            e1 = p[:, 1] - p[:, 0]
            e2 = p[:, 2] - p[:, 0]
            return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        return self._derive("areas", build)

    def edge_structure(self):
        """Unique (undirected) edges and the triangle->edge incidence.

        Returns (edges, tri2edge, edge2tri) where ``edges`` is (ne, 2)
        with sorted vertex pairs, ``tri2edge`` is (nt, 3) with local edge
        k = (t[k], t[(k+1)%3]), and ``edge2tri`` is (ne, 2) holding the
        adjacent element ids (-1 on the second slot for boundary edges).
        """
        return self._derive("edge_structure", self._build_edge_structure)

    def _build_edge_structure(self):
        # each temporary of 3 nt entries is released once it has been read
        t = self.triangles
        nv = self.num_vertices
        hi = t[:, [1, 2, 0]]                        # local edge k = (t[k], t[(k+1)%3])
        keys = np.minimum(t, hi)
        np.maximum(t, hi, out=hi)
        # one integer per undirected edge; its order is the lexicographic order of (lo, hi)
        keys *= nv
        keys += hi
        del hi
        keys = keys.reshape(-1)
        # stable: the local edges of one edge stay in element order
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        run = np.empty(len(keys), dtype=bool)       # where a run of one edge starts
        run[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=run[1:])
        first = np.flatnonzero(run)
        last = np.append(first[1:], len(keys))
        counts = last - first
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: edge shared by more than two elements")
        edges = np.stack([keys[first] // nv, keys[first] % nv], axis=1)
        edge2tri = np.full((len(first), 2), -1, dtype=np.int64)
        edge2tri[:, 0] = order[first] // 3
        has2 = counts == 2
        edge2tri[has2, 1] = order[last[has2] - 1] // 3
        del first, last, counts, has2
        np.cumsum(run, out=keys)                    # the edge id of each sorted local edge
        keys -= 1
        del run
        tri2edge = np.empty_like(order)
        tri2edge[order] = keys
        return edges, tri2edge.reshape(-1, 3), edge2tri


@dataclass(frozen=True)
class BoundaryMesh(_Derived):
    """Trace of a volume mesh on the boundary polygon.

    Segments run counterclockwise (domain on the left); segment k joins
    its start boundary_vertices[k] to boundary_vertices[(k+1) % n].  ``normals``
    point out of the domain.  ``line_ids`` numbers the sides of the
    polygon, one entry per segment: :func:`boundary_trace` finds them
    at the corners of the walk, and :func:`refine_nvb` gives each son
    the id of its father.  The operators of :mod:`fembem.bem` take
    equal ids for one straight line.

    Like those of :class:`Mesh`, the facts derived from these arrays are
    built on first use and kept, read-only, for the life of the trace:
    endpoints, lengths, tangents, normals, the Gauss nodes of each order,
    and the values of interface data at those nodes and at the vertices.
    """

    mesh: Mesh
    segments: np.ndarray        # (ns, 2) global vertex ids, ordered along the walk
    owner: np.ndarray           # (ns,) element id owning each segment
    owner_edge: np.ndarray      # (ns,) local edge index in the owner
    line_ids: np.ndarray        # (ns,) id of the straight line of each segment

    def __post_init__(self):
        for name in ("segments", "owner", "owner_edge", "line_ids"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=np.int64)))

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def boundary_vertices(self) -> np.ndarray:
        """(ns,) global vertex ids along the walk: the start of each segment."""
        return self.segments[:, 0]

    def check_mesh(self, mesh: Mesh) -> None:
        """Raise ``ValueError`` unless this is a trace of the object ``mesh`` itself."""
        if self.mesh is not mesh:
            raise ValueError("bmesh is not a trace of the given mesh")

    def per_segment(self, values, name: str) -> np.ndarray:
        """``values`` as floats, one per segment; ``ValueError`` naming ``name`` otherwise."""
        v = np.asarray(values, dtype=float)
        if v.shape != (self.num_segments,):
            raise ValueError(f"{name} must hold one value per boundary segment")
        return v

    def endpoints(self):
        """Start and end point of every segment, two arrays of shape (ns, 2)."""
        p = self.mesh.vertices
        return self._derive("endpoints", lambda: (p[self.segments[:, 0]], p[self.segments[:, 1]]))

    def lengths(self) -> np.ndarray:
        def build():
            a, b = self.endpoints()
            return np.linalg.norm(b - a, axis=1)
        return self._derive("lengths", build)

    def tangents(self) -> np.ndarray:
        def build():
            a, b = self.endpoints()
            return (b - a) / self.lengths()[:, None]
        return self._derive("tangents", build)

    def normals(self) -> np.ndarray:
        def build():
            t = self.tangents()
            return np.stack([t[:, 1], -t[:, 0]], axis=1)
        return self._derive("normals", build)

    def gauss_points(self, n: int):
        """Gauss-Legendre nodes and weights on every segment.

        Returns (points, weights) of shapes (ns, n, 2) and (ns, n); the
        weights of one segment sum to its length.
        """
        def build():
            xi, w = gauss_legendre(n)
            a, b = self.endpoints()
            lam = 0.5 * (xi + 1.0)
            pts = a[:, None, :] + lam[None, :, None] * (b - a)[:, None, :]
            wts = 0.5 * w[None, :] * self.lengths()[:, None]
            return pts, wts
        return self._derive(("gauss_points", n), build)

    def gauss_values(self, f, n: int, direction: str = "normals") -> np.ndarray:
        """``f(points, directions)`` at the Gauss nodes of order ``n``, shape (ns, n).

        ``direction`` names the per-segment vectors passed along with the
        nodes, ``"normals"`` or ``"tangents"``.  Kept per ``f``, ``n`` and
        ``direction``.
        """
        def build():
            pts, _ = self.gauss_points(n)
            dirs = np.repeat(getattr(self, direction)()[:, None, :], n, axis=1)
            return f(pts.reshape(-1, 2), dirs.reshape(-1, 2)).reshape(self.num_segments, n)
        return self._derive(("gauss_values", f, n, direction), build)

    def vertex_values(self, f) -> np.ndarray:
        """``f`` at the boundary vertices, in walk order, kept per ``f``."""
        return self._derive(("vertex_values", f),
                            lambda: f(self.mesh.vertices[self.boundary_vertices]))


@dataclass(frozen=True)
class RefinementRelation(_Derived):
    """Bookkeeping linking a mesh to its refinement.

    The sons of each coarse element and segment are derived from
    ``fine.father`` and ``seg_father`` on first read.
    """

    coarse: Mesh
    fine: Mesh
    new_vertex_parents: np.ndarray  # (n_new, 2) endpoints of each bisected edge
    seg_father: np.ndarray     # (ns_fine,) coarse segment of each fine segment
    fine_trace: BoundaryMesh   # equal to boundary_trace(fine)

    @property
    def tri_sons(self) -> tuple:
        """Sons of each coarse element, ascending."""
        return self._derive("tri_sons", lambda: _sons(self.fine.father))

    @property
    def seg_sons(self) -> tuple:
        """Sons of each coarse boundary segment, ascending (their order along the walk)."""
        return self._derive("seg_sons", lambda: _sons(self.seg_father))


def vertex_prolongation_matrix(new_vertex_parents, num_coarse: int):
    """Sparse interpolation of P1 functions onto a refinement.

    The fine mesh keeps the ``num_coarse`` vertices and appends one
    midpoint per row of ``new_vertex_parents``, the endpoints of its
    bisected edge.  Returns a (nv_fine, num_coarse) matrix.
    """
    from scipy.sparse import csr_matrix

    nvc = num_coarse
    n_new = len(new_vertex_parents)
    nvf = nvc + n_new
    rows = np.concatenate([np.arange(nvc), np.repeat(np.arange(nvc, nvf), 2)])
    cols = np.concatenate([np.arange(nvc), np.reshape(new_vertex_parents, -1)])
    vals = np.concatenate([np.ones(nvc), np.full(2 * n_new, 0.5)])
    return csr_matrix((vals, (rows, cols)), shape=(nvf, nvc))


# ----------------------------------------------------------------------------
# initial meshes


def make_initial_mesh(domain: str) -> Mesh:
    """Coarse triangulation of the L-shaped or Z-shaped domain.

    Both domains live inside the square (-1/4, 1/4)^2 so that the
    diameter stays below one (required for the ellipticity of the
    single-layer operator of the 2D log kernel).  The L-shape removes
    the closed fourth-quadrant square, leaving a reentrant angle of
    3*pi/2 at the origin; the Z-shape removes only the wedge between
    the positive x-axis and the ray at -pi/4, leaving an angle of
    7*pi/4.  Each quarter square is split into four elements via its
    center.  Each element lists its strictly longest edge first, so the
    reference edges are the longest edges.
    """
    h = 0.25
    if domain == "lshape":
        vertices = np.array([
            (0.0, 0.0), (h, 0.0), (h, h), (0.0, h), (-h, h),
            (-h, 0.0), (-h, -h), (0.0, -h),
            (h / 2, h / 2), (-h / 2, h / 2), (-h / 2, -h / 2),
        ])
        triangles = [
            (0, 1, 8), (1, 2, 8), (2, 3, 8), (3, 0, 8),
            (0, 3, 9), (3, 4, 9), (4, 5, 9), (5, 0, 9),
            (5, 6, 10), (6, 7, 10), (7, 0, 10), (0, 5, 10),
        ]
    elif domain == "zshape":
        vertices = np.array([
            (0.0, 0.0), (h, 0.0), (h, h), (0.0, h), (-h, h),
            (-h, 0.0), (-h, -h), (0.0, -h),
            (h / 2, h / 2), (-h / 2, h / 2), (-h / 2, -h / 2),
            (h, -h), (h / 2, -h / 2),
        ])
        triangles = [
            (0, 1, 8), (1, 2, 8), (2, 3, 8), (3, 0, 8),
            (0, 3, 9), (3, 4, 9), (4, 5, 9), (5, 0, 9),
            (5, 6, 10), (6, 7, 10), (7, 0, 10), (0, 5, 10),
            (0, 7, 12), (7, 11, 12),
        ]
    else:
        raise ValueError(f"unknown domain {domain!r}; expected 'lshape' or 'zshape'")
    return Mesh(vertices, triangles)


# ----------------------------------------------------------------------------
# boundary trace


def boundary_trace(mesh: Mesh) -> BoundaryMesh:
    """Extract the boundary polygon as an ordered counterclockwise walk."""
    t = mesh.triangles
    edges, tri2edge, edge2tri = mesh.edge_structure()
    bnd = np.flatnonzero(edge2tri[:, 1] < 0)
    if len(bnd) == 0:
        raise ValueError("mesh has no boundary")
    # recover the directed version of each boundary edge (CCW elements
    # traverse their edges with the domain on the left)
    owner = edge2tri[bnd, 0]
    local = np.argmax(tri2edge[owner] == bnd[:, None], axis=1)
    start = t[owner, local]
    end = t[owner, (local + 1) % 3]
    # order into a closed walk, starting at the smallest vertex id
    nxt = {int(a): i for i, a in enumerate(start)}
    walk = []
    v = int(start.min())
    for _ in range(len(bnd)):
        i = nxt[v]
        walk.append(i)
        v = int(end[i])
    if v != int(start.min()):
        raise ValueError("boundary is not a single closed curve")
    walk = np.asarray(walk)
    segments = np.stack([start[walk], end[walk]], axis=1)
    return BoundaryMesh(
        mesh=mesh,
        segments=segments,
        owner=owner[walk],
        owner_edge=local[walk],
        line_ids=_side_ids(mesh.vertices[segments]),
    )


def _side_ids(ends: np.ndarray) -> np.ndarray:
    """The side of the boundary polygon of each segment of a closed walk.

    ``ends`` holds the (ns, 2, 2) end points in walk order.  A walk
    vertex is a corner unless the unit tangents of its two segments are
    parallel to ``_LINE_TOL``; the sides, the runs between corners, are
    numbered along the walk from the side of segment 0.  No two sides of
    the L- or the Z-shape lie on one line, so equal ids mark exactly the
    segments on one straight line.
    """
    e = ends[:, 1] - ends[:, 0]
    t = e / np.linalg.norm(e, axis=1)[:, None]
    prev = np.roll(t, 1, axis=0)
    corner = np.abs(prev[:, 0] * t[:, 1] - prev[:, 1] * t[:, 0]) >= _LINE_TOL
    return (np.cumsum(corner) - corner[0]) % corner.sum()


# ----------------------------------------------------------------------------
# newest vertex bisection


def _sons(father: np.ndarray) -> tuple:
    """Entry i holds the ids whose father is i, ascending; views of one array."""
    order = np.argsort(father, kind="stable")
    ends = np.cumsum(np.bincount(father)).tolist()
    return tuple(order[s:e] for s, e in zip([0] + ends[:-1], ends))


# Sons of element (a, b, c) by split pattern (bit k: local edge k is bisected at
# its midpoint mk), as columns of (a, b, c, m0, m1, m2).  The closure splits the
# reference edge 0 of every split element, so patterns 2, 4 and 6 never occur.
_BISECTION = {
    0: ((0, 1, 2),),
    1: ((2, 0, 3), (1, 2, 3)),
    3: ((2, 0, 3), (3, 1, 4), (2, 3, 4)),
    5: ((3, 2, 5), (0, 3, 5), (1, 2, 3)),
    7: ((3, 2, 5), (0, 3, 5), (3, 1, 4), (2, 3, 4)),
}


def _edge_sons() -> np.ndarray:
    """Where the pieces of each local edge of a father lie in its sons.

    Entry ``[pattern, k, half]`` is ``(son, local edge of the son)`` of
    the piece of local edge k that starts at its first vertex (half 0)
    or at its midpoint (half 1, split edges only); -1 where there is no
    such piece.  Sons traverse their edges in the father's direction.
    """
    table = np.full((8, 3, 2, 2), -1, dtype=np.int64)
    for p, sons in _BISECTION.items():
        for k in range(3):
            a, b, m = k, (k + 1) % 3, 3 + k
            pieces = ((a, m), (m, b)) if p >> k & 1 else ((a, b),)
            for half, piece in enumerate(pieces):
                table[p, k, half] = next((s, j) for s, son in enumerate(sons) for j in range(3)
                                         if (son[j], son[(j + 1) % 3]) == piece)
    return table


_EDGE_SONS = _edge_sons()


def refine_nvb(mesh: Mesh, marked, marked_segments=(), bmesh: BoundaryMesh = None):
    """Refine by newest vertex bisection with conforming closure.

    ``marked`` holds element ids whose reference edge must be bisected;
    ``marked_segments`` optionally names boundary segments (indices into
    ``bmesh``, which defaults to ``boundary_trace(mesh)``) that must be
    split as well -- used when the marking is driven by boundary
    indicators; ``bmesh`` must be a trace of ``mesh`` itself
    (``ValueError`` otherwise).  The closure iterates "any element with a marked edge
    gets its reference edge marked" to a fixpoint, then every element is
    split according to its marked edges (1, 2 or 3 bisections into 2, 3
    or 4 sons).  Marked elements never survive; son areas are exactly
    1/2 or 1/4 of the father's.

    The fine boundary walk comes from ``bmesh``: each segment becomes
    itself or its two halves, in walk order, and keeps its line id.  New
    vertex ids exceed the old ones, so the walk keeps its start and
    equals ``boundary_trace(fine)`` when ``bmesh`` is a walk that
    :func:`boundary_trace` or this function built.

    Returns ``(fine_mesh, relation)``.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if len(marked) and (marked.min() < 0 or marked.max() >= mesh.num_triangles):
        raise ValueError("marked element id out of range")
    edges, tri2edge, edge2tri = mesh.edge_structure()
    ne = len(edges)
    edge_marked = np.zeros(ne, dtype=bool)
    if len(marked):
        edge_marked[tri2edge[marked, 0]] = True
    if bmesh is None:
        bmesh = boundary_trace(mesh)
    bmesh.check_mesh(mesh)
    seg_ids = np.unique(np.asarray(marked_segments, dtype=np.int64))
    if len(seg_ids):
        if seg_ids.min() < 0 or seg_ids.max() >= bmesh.num_segments:
            raise ValueError("marked segment id out of range")
        edge_marked[tri2edge[bmesh.owner[seg_ids], bmesh.owner_edge[seg_ids]]] = True

    # closure: the reference edge of any element with a marked edge is marked
    while True:
        need = edge_marked[tri2edge].any(axis=1) & ~edge_marked[tri2edge[:, 0]]
        if not need.any():
            break
        edge_marked[tri2edge[need, 0]] = True

    n_new = int(edge_marked.sum())
    new_vertex_of_edge = np.full(ne, -1, dtype=np.int64)
    hit = np.flatnonzero(edge_marked)
    new_vertex_of_edge[hit] = mesh.num_vertices + np.arange(n_new)
    midpoints = 0.5 * (mesh.vertices[edges[hit, 0]] + mesh.vertices[edges[hit, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    em = edge_marked[tri2edge]          # (nt, 3) which local edges split
    pattern = em[:, 0] + 2 * em[:, 1] + 4 * em[:, 2]
    n_sons = np.array([len(_BISECTION.get(p, ())) for p in range(8)])[pattern]
    if np.any(n_sons == 0):
        raise AssertionError("closure failed to mark a reference edge")
    offset = np.concatenate([[0], np.cumsum(n_sons)])
    tris = np.empty((offset[-1], 3), dtype=np.int64)
    cols = np.hstack([mesh.triangles, new_vertex_of_edge[tri2edge]])  # (a, b, c, m0, m1, m2)
    for p, sons in _BISECTION.items():
        sel = np.flatnonzero(pattern == p)
        for k, son in enumerate(sons):
            tris[offset[sel] + k] = cols[sel[:, None], son]

    father = np.repeat(np.arange(mesh.num_triangles), n_sons)
    fine = Mesh(vertices, tris, father)

    # the fine boundary walk: each coarse segment, or its two halves, in walk order
    seg_edge = tri2edge[bmesh.owner, bmesh.owner_edge]
    split = edge_marked[seg_edge]
    seg_father = np.repeat(np.arange(bmesh.num_segments), 1 + split)
    half = np.zeros(len(seg_father), dtype=np.int64)
    half[np.cumsum(1 + split)[split] - 1] = 1
    coarse_owner = bmesh.owner[seg_father]
    son, local = _EDGE_SONS[pattern[coarse_owner], bmesh.owner_edge[seg_father], half].T
    owner = offset[coarse_owner] + son
    segments = np.stack([tris[owner, local], tris[owner, (local + 1) % 3]], axis=1)
    fine_trace = BoundaryMesh(mesh=fine, segments=segments, owner=owner,
                              owner_edge=local, line_ids=bmesh.line_ids[seg_father])

    relation = RefinementRelation(
        coarse=mesh,
        fine=fine,
        new_vertex_parents=edges[hit],
        seg_father=seg_father,
        fine_trace=fine_trace,
    )
    return fine, relation
