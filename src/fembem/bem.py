"""Boundary-element pieces for the 2D Laplace kernel.

Fundamental solution ``G(z) = -log|z| / (2*pi)`` (which is why the
domains are scaled to diameter < 1: the single-layer operator is then
elliptic).  Densities are piecewise constant per boundary segment,
traces piecewise affine in the boundary vertices.

Quadrature strategy for the single-layer Galerkin matrix: the inner
integral ``int_E' log|x-y| ds(y)`` is evaluated in closed form, the
outer one by Gauss-Legendre.  Pairs of panels on one straight line
(including every panel with itself) have a fully closed-form double
integral; panels meeting at a corner get the ``s log s`` endpoint
behaviour of the outer integrand subtracted analytically and the
remainder integrated on a geometrically graded composite Gauss rule.
Double-layer integrals of affine densities are closed-form per panel,
one term for the panel's start value and one for its slope.  The
arclength derivatives of both potentials at a point x with tangent tau
and normal n come from one closed-form panel integral
``I_j(x) = int_j (x - y) / |x - y|^2 ds_y``: ``d/ds V psi`` sums
``-tau . I_j psi_j / (2 pi)``, and on a closed polygon the derivative of
the double layer of a continuous piecewise-affine trace is the adjoint
double layer of its slopes, ``d/ds K g = -K' dg/ds``, which sums
``n . I_j (dg/ds)_j / (2 pi)``.
:class:`BemOperators` evaluates all of these in one pass over the
panel geometry and keeps them as matrices of the boundary mesh, one
entry per (segment or Gauss node, panel) pair; the ``-1/2`` of the
double-layer right-hand side is applied with the trace.  The matrices
are stored by slot, which a segment keeps through refinements, so the
next fill grows each matrix in place, the old one its top-left block, and
evaluates only the rows and columns of the new segments, a kept row
running every kernel on the new panels alone.
Pairs of panels on one line are found by the line id of each segment,
which the boundary mesh carries through refinement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import _LINE_TOL, BoundaryMesh, _blocks, gauss_legendre

__all__ = [
    "BemDensity",
    "BoundaryTrace",
    "BemOperators",
    "assemble_single_layer",
    "assemble_dl_rhs",
    "double_layer_pointwise",
    "hminushalf_error_surrogate",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BemDensity:
    """Piecewise-constant density, one value per boundary segment."""

    bmesh: BoundaryMesh
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", self.bmesh.per_segment(self.values, "density values"))


@dataclass(frozen=True)
class BoundaryTrace:
    """Piecewise-affine function on the boundary walk.

    ``values[k]`` belongs to ``bmesh.boundary_vertices[k]``; on segment
    k the function interpolates ``values[k] -> values[(k+1) % ns]``.
    """

    bmesh: BoundaryMesh
    values: np.ndarray

    def __post_init__(self):
        v = self.bmesh.per_segment(self.values, "trace values")
        object.__setattr__(self, "values", v)
        g1 = np.roll(v, -1)
        object.__setattr__(self, "_ends", (v, g1))
        object.__setattr__(self, "_slopes", (g1 - v) / self.bmesh.lengths())

    def endpoint_values(self):
        """Values at the start and at the end of every segment."""
        return self._ends

    def slopes(self):
        """Arclength derivative per segment."""
        return self._slopes


# ----------------------------------------------------------------------------
# panel geometry helpers


def _frames(bmesh: BoundaryMesh):
    """Start point, unit direction, unit normal and length of each panel."""
    return bmesh.endpoints()[0], bmesh.tangents(), bmesh.normals(), bmesh.lengths()


def _safe_log(q):
    return np.log(q, out=np.zeros_like(q), where=q > 0.0)


def _atan_span(h, L, a, b):
    """atan(b/h) - atan(a/h) for h >= 0, stable for all magnitudes."""
    return np.arctan2(h * L, h * h + a * b)


def _node_panel_geometry(x, p0, d, n, L):
    """Coordinates of points ``x`` in every panel frame, with the shared kernels.

    Returns ``(s0, H, h, a, b, span, la, lb)``: tangential coordinate,
    signed and absolute distance to the panel line, offsets of the panel
    ends, the angle the panel subtends and the logarithms of the squared
    distances to the panel ends; each of shape (m, ns).  The panel
    integral ``I_j(x) = int_j (x - y) / |x - y|^2 ds_y`` is
    ``A d_j + B n_j`` with ``A = (la - lb) / 2`` and ``B = sign(H) span``.
    """
    x = np.asarray(x, float)
    dx = x[:, 0, None] - p0[:, 0]
    dy = x[:, 1, None] - p0[:, 1]
    s0 = dx * d[:, 0] + dy * d[:, 1]
    H = dx * n[:, 0] + dy * n[:, 1]
    h = np.abs(H)
    a = -s0
    b = L[None, :] - s0
    span = _atan_span(h, L[None, :], a, b)
    return s0, H, h, a, b, span, _safe_log(a * a + h * h), _safe_log(b * b + h * h)


# ----------------------------------------------------------------------------
# single-layer Galerkin matrix


def _psi_antiderivative(z):
    """Psi with Psi'' = log|z| and Psi(0) = 0."""
    z = np.asarray(z, float)
    z2 = z * z
    return 0.5 * z2 * _safe_log(z2) * 0.5 - 0.75 * z2


def _panel_frames(bmesh: BoundaryMesh):
    """``(p0, p1, d, n, L)`` of every panel, with the end ``p1 = p0 + L d``."""
    p0, d, n, L = _frames(bmesh)
    return p0, p0 + L[:, None] * d, d, n, L


def _along(p, p0, d, i, j):
    """Arclength coordinate of the points ``p[j]`` in the frame of panel ``i``."""
    return (p[j, 0] - p0[i, 0]) * d[i, 0] + (p[j, 1] - p0[i, 1]) * d[i, 1]


def _collinear_double_integral(A2, B2, L1):
    """int_0^L1 int_[A2,B2] log|s-t| dt ds in coordinates of the outer line."""
    lo = np.minimum(A2, B2)
    hi = np.maximum(A2, B2)
    return (_psi_antiderivative(L1 - lo) + _psi_antiderivative(0.0 - hi)
            - _psi_antiderivative(0.0 - lo) - _psi_antiderivative(L1 - hi))


_WEDGE_PIECES = 9
_WEDGE_NODES = 24


def _wedge_double_integrals(e1, L1, e2, L2):
    """Double log integrals for panel pairs sharing a corner.

    Both panels are parametrized away from the common vertex with unit
    directions e1, e2 (arrays of shape (m, 2)).  The outer integrand
    ``I(s) = cos * s * log s + analytic`` gets its endpoint term removed
    in closed form; the analytic rest uses composite Gauss with pieces
    doubling away from the corner so that strongly graded neighbours
    stay accurate.
    """
    m = len(L1)
    cos = np.einsum("md,md->m", e1, e2)
    sin = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    xi, w = gauss_legendre(_WEDGE_NODES)
    scale = np.minimum(L1, L2)
    bounds = np.minimum(scale[:, None] * (2.0 ** np.arange(_WEDGE_PIECES))[None, :],
                        L1[:, None])
    bounds = np.concatenate([np.zeros((m, 1)), bounds], axis=1)
    bounds[:, -1] = L1
    lo = bounds[:, :-1]
    width = np.diff(bounds, axis=1)
    s = lo[:, :, None] + 0.5 * (xi[None, None, :] + 1.0) * width[:, :, None]
    ws = 0.5 * w[None, None, :] * width[:, :, None]
    s_flat = s.reshape(m, _WEDGE_PIECES * _WEDGE_NODES)
    ws_flat = ws.reshape(m, _WEDGE_PIECES * _WEDGE_NODES)

    # inner integral over panel 2 at x = s * e1, minus cos * s * log s
    s0 = s_flat * cos[:, None]
    h = s_flat * sin[:, None]
    a = -s0
    b = L2[:, None] - s0
    qa = a * a + h * h
    qb = b * b + h * h
    inner = 0.5 * (b * _safe_log(qb) - a * _safe_log(qa)) - L2[:, None] \
        + h * _atan_span(h, L2[:, None], a, b)
    rest = inner - cos[:, None] * s_flat * _safe_log(s_flat * s_flat) * 0.5
    gauss = np.einsum("mk,mk->m", ws_flat, rest)
    exact = cos * (0.5 * L1 * L1 * np.log(L1) - 0.25 * L1 * L1)
    return gauss + exact


def _single_layer_from_gauss(Jr, Jc, rows, todo, p0, p1, d, L, line, nxt, prv):
    """Rows ``rows`` of the Galerkin single-layer matrix from its Gauss values.

    ``p0``, ``p1``, ``d``, ``L`` and the line ids ``line`` are given by
    slot, and ``nxt[i]`` and ``prv[i]`` are the slots of the panels after
    and before panel i along the walk.  On the columns ``todo``,
    ``Jr = J[rows, :]`` and ``Jc = J[:, rows].T`` hold the outer-Gauss
    double integrals of the pairs touching ``rows``; on the others ``Jr``
    holds finished entries, which are returned as they are.  The pairs on
    ``todo`` are symmetrized, same-line pairs (equal line ids) the mean of
    their closed forms in both orders and corner pairs the graded wedge
    rule; every value depends on its pair alone, so the rows equal those
    of the whole matrix (all segments in ``rows``) bit for bit.  Exactly
    symmetric; positive definite whenever diam(domain) < 1.
    """
    # S[a, j] is the symmetrized double integral of the pair (rows[a], j)
    S = 0.5 * (Jr + Jc)

    # panels on a common straight line: fully closed form
    def collinear(i, j):
        return _collinear_double_integral(_along(p0, p0, d, i, j), _along(p1, p0, d, i, j), L[i])

    a, j = np.nonzero((line[rows, None] == line) & todo)
    S[a, j] = 0.5 * (collinear(rows[a], j) + collinear(j, rows[a]))

    # panels meeting at a corner: each row (a) with the panel (j) after and
    # before it on the walk, the pair (kk, kn) in walk order, where the line turns
    a, j = np.tile(np.arange(len(rows)), 2), np.concatenate([nxt[rows], prv[rows]])
    kk, kn = np.concatenate([rows, prv[rows]]), np.concatenate([nxt[rows], rows])
    m = (line[kk] != line[kn]) & todo[j]
    S[a[m], j[m]] = _wedge_double_integrals(-d[kk[m]], L[kk[m]], d[kn[m]], L[kn[m]])

    return np.where(todo, -S / TWO_PI, Jr)


# ----------------------------------------------------------------------------
# pointwise double layer (reference for the operators below)


def _dl_panel_terms(points, p0, d, n, L, g0, g1):
    """Per-panel double-layer contributions ``H * int g(t)/D dt``.

    Returns the (m, ns) matrix whose row sum (over panels) times
    ``1/(2*pi)`` is the double-layer potential Kg at each point.  Panels
    whose line contains the evaluation point contribute zero.
    """
    s0, H, h, a, b, span, la, lb = _node_panel_geometry(points, p0, d, n, L)
    mu = (g1 - g0) / L
    # H * A0 and H * A1 stay finite as h -> 0
    HA0 = np.sign(H) * span
    HA1 = 0.5 * H * (lb - la) + s0 * HA0
    vals = g0[None, :] * HA0 + mu[None, :] * HA1
    on_line = h <= _LINE_TOL * np.maximum(L[None, :], 1.0)
    return np.where(on_line, 0.0, vals)


def double_layer_pointwise(bmesh: BoundaryMesh, g: BoundaryTrace, points) -> np.ndarray:
    """Double-layer potential Kg of an affine trace at arbitrary points.

    For points on the boundary this is the principal-value operator K.
    """
    p0, d, n, L = _frames(bmesh)
    g0, g1 = g.endpoint_values()
    x = np.atleast_2d(np.asarray(points, float))
    out = np.empty(len(x))
    for i0, i1 in _blocks(len(x), len(L)):
        out[i0:i1] = _dl_panel_terms(x[i0:i1], p0, d, n, L, g0, g1).sum(axis=1) / TWO_PI
    return out


# ----------------------------------------------------------------------------
# operators of one boundary mesh


def _gauss_sum(w, block):
    """``sum_q w[i, q] * block[i, q, j]``, added up in node order.

    ``einsum`` changes its summation order with the block shape; this
    gives an entry the same bits in every block it is computed in.
    """
    out = w[:, 0, None] * block[:, 0]
    for k in range(1, block.shape[1]):
        out += w[:, k, None] * block[:, k]
    return out


def _nodes(segs, q):
    """Gauss-node rows of the segments ``segs``."""
    return (segs[:, None] * q + np.arange(q)).reshape(-1)


# ``ndarray.resize`` with NumPy's reference check on, called from C: under a
# profiler or tracer (cProfile, coverage, a debugger) a method call from Python
# holds one more reference to the array, which the check takes for a view
_resize = functools.partial(np.ndarray.resize)


def _matrix(name):
    """The matrix ``name`` of :class:`BemOperators`: a view of the front of its buffer."""
    def view(ops):
        rows, width = ops._per_slot[name] * ops._width, ops._width
        return ops._buffers[name][:rows * width].reshape(rows, width)
    return property(view)


class BemOperators:
    """Geometry-only BEM matrices of one boundary mesh ``bmesh``.

    A blocked pass over (Gauss node x panel) pairs computes the panel
    coordinates, the atan span and the logarithms once and fills

    * ``V`` (ns, ns): single-layer Galerkin matrix on P0;
    * ``DL0``, ``DL1`` (ns, ns): ``int_E`` of the double-layer terms of
      each panel, over ``2 pi``, for its start value ``g0`` and for its
      slope (zero on panels on the node's line); :meth:`dl_rhs` applies
      them and adds the ``-1/2`` identity part where the trace is known;
    * ``MK``, ``MV`` (ns*q, ns): at the Gauss nodes the arclength
      derivative of ``(K - 1/2) g - V psi`` is
      ``MK @ g.slopes() - MV @ psi - 1/2 dg/ds``; with the panel
      integral ``I_j`` of the module docstring, ``MV`` holds
      ``-tau . I_j / (2 pi)`` and ``MK`` holds ``n . I_j / (2 pi)``
      (``d/ds K g = -K' dg/ds``), zero on panels on the node's line.

    Nothing depends on data, so one object serves every density and
    trace of its boundary mesh; the methods refuse those of any other
    mesh object.  ``n_gauss`` is the outer quadrature of all of them.

    The matrices are stored by slot: segment k of the walk sits in slot
    ``slots[k]`` (the Gauss-node rows ``slots[k]*q ...`` of ``MK`` and
    ``MV``), and slot s holds segment ``order[s]``; a fresh object has
    ``slots[k] == k``.  :meth:`dl_rhs` returns the right-hand side by
    slot, the order of ``V``; traces, densities and
    :meth:`residual_derivative` run along the walk.

    Every entry depends only on the geometry of its pair, a segment or
    Gauss node and a panel.  So :meth:`refine`, run on every refinement
    of the trace, moves no entry: an unsplit segment keeps its slot, the
    first son of a split one takes its father's and the second son the
    next fresh slot at the end.  :meth:`fill` grows each matrix, the old
    one its top-left block, and computes only the rows and columns of
    the new segments: new rows on every panel, kept rows on the new
    panels alone.  A fresh object is the fill of empty operators, and a
    refined one equals it, permuted by the slots, bit for bit.
    Same-line pairs (the closed forms of ``V``, the zeros of ``DL0``,
    ``DL1`` and ``MK``) come from the line ids of the boundary mesh
    alone.

    A fill holds one copy of each matrix and one block of temporaries:
    rows are built, and ``V`` symmetrized, in segment-aligned blocks of
    at most ``_BLOCK_ENTRIES`` entries, and each matrix lives in a
    private 1-D buffer that grows in place.  The attributes ``V``,
    ``DL0``, ``DL1``, ``MK`` and ``MV`` are views of these buffers, made
    on every read.  NumPy resizes a buffer only while no other array
    views it, so a caller that holds a matrix (or any view of one)
    across a fill gets NumPy's ``ValueError``; to keep a matrix, keep a
    copy.  The driver reads them only between fills.
    """

    V = _matrix("V")
    DL0 = _matrix("DL0")
    DL1 = _matrix("DL1")
    MK = _matrix("MK")
    MV = _matrix("MV")

    def __init__(self, bmesh: BoundaryMesh, n_gauss: int = 4):
        ns = bmesh.num_segments
        self.bmesh = bmesh
        self.n_gauss = n_gauss
        self.slots = np.arange(ns)              # slot of each segment, in walk order
        self.order = np.arange(ns)              # segment in each slot
        self._per_slot = dict(V=1, DL0=1, DL1=1, MK=n_gauss, MV=n_gauss)   # rows per slot
        self._buffers = {name: np.empty(0) for name in self._per_slot}
        self._width = 0                         # slots the matrices are filled for
        self._new = np.ones(ns, dtype=bool)     # slots whose rows and columns are unset
        self.fill()

    def refine(self, relation) -> None:
        """Re-slot the segments for the refined boundary ``relation.fine_trace``.

        Any refinement of the trace is accepted, split or not; the sons of
        a segment follow each other along the walk, as
        :func:`~fembem.mesh.refine_nvb` makes them.  No matrix changes: the
        next :meth:`fill` computes every entry of a split segment or panel.
        """
        father = relation.seg_father
        ns, nf = len(self.slots), len(father)
        n_sons = np.bincount(father)
        if relation.coarse is not self.bmesh.mesh or len(n_sons) != ns:
            raise ValueError("relation does not refine the boundary mesh of these operators")
        first = np.diff(father, prepend=-1) > 0      # the first son of each segment
        slots = np.empty(nf, dtype=np.int64)
        slots[first] = self.slots
        slots[~first] = np.arange(ns, nf)
        new = np.ones(nf, dtype=bool)
        new[:ns] = self._new
        new[self.slots[n_sons > 1]] = True
        self.slots = slots
        self.order = np.empty_like(slots)
        self.order[slots] = np.arange(nf)
        self._new = new
        self.bmesh = relation.fine_trace

    def fill(self) -> bool:
        """Compute the rows and columns of the segments new since the last fill.

        Each matrix first grows in place to the slot count, the old one
        its top-left block; this raises NumPy's ``ValueError`` while a
        caller still holds a matrix.  Returns whether anything was
        computed.
        """
        new = self._new
        if not new.any():
            return False
        ns, q = len(new), self.n_gauss
        # every buffer grows before any row moves: a resize refused while a
        # matrix is held leaves each matrix as it was, to fill again later
        for name, per in self._per_slot.items():
            _resize(self._buffers[name], per * ns * ns)
        for name in self._per_slot:
            self._widen(name, ns)
        self._width = ns
        # the panel geometry by slot, and the slots of each panel's walk neighbours
        o = self.order
        p0, p1, d, n, L = (a[o] for a in _panel_frames(self.bmesh))
        line = self.bmesh.line_ids[o]
        nxt, prv = self.slots[(o + 1) % ns], self.slots[(o - 1) % ns]
        geometry = (p0, d, n, L, line, *(a[o] for a in self.bmesh.gauss_points(q)))
        rows = np.flatnonzero(new)
        # new rows meet every panel, kept rows the new panels
        self._fill_rows(geometry, rows, None)
        self._fill_rows(geometry, np.flatnonzero(~new), rows)
        # V by blocks of new rows and their columns: a block finishes every
        # pair it meets but those with the new rows of earlier blocks, which
        # it reads as those blocks finished them
        V, todo = self.V, np.ones(ns, dtype=bool)
        for r0, r1 in _blocks(len(rows), ns):
            r = rows[r0:r1]
            Vr = _single_layer_from_gauss(V[r], V[:, r].T, r, todo, p0, p1, d, L, line, nxt, prv)
            V[r] = Vr
            V[:, r] = Vr.T
            todo[r] = False
        self._new = np.zeros(ns, dtype=bool)
        return True

    def _widen(self, name, ns):
        """Move the rows of the matrix ``name``, in its grown buffer, to their places at ``ns`` slots.

        Each old row moves to the start of its wider new row, last row
        first and a block at a time, so no row is overwritten before it
        has moved; the rest of the new rows is left unset.
        """
        old, buf = self._width, self._buffers[name]
        wide = buf.reshape(-1, ns)
        for r0, r1 in reversed(list(_blocks(self._per_slot[name] * old, old))):
            wide[r0:r1, :old] = buf[r0 * old:r1 * old].reshape(-1, old)

    def _fill_rows(self, geometry, segs, cols):
        """Rows of the slots ``segs`` on the panel columns ``cols`` (``None``: whole rows).

        ``geometry`` holds the panel frames, line ids, Gauss nodes and
        weights by slot.  ``V`` gets the unsymmetrized Gauss values,
        ``DL0``, ``DL1``, ``MK`` and ``MV`` their entries.
        """
        p0, d, n, L, line, points, weights = geometry
        q = self.n_gauss
        c = slice(None) if cols is None else cols
        cp0, cd, cn, cL, cline = p0[c], d[c], n[c], L[c], line[c]

        def put(a, rows, vals):   # a[rows x cols] = vals
            if cols is None:
                a[rows] = vals
            else:
                a[np.ix_(rows, cols)] = vals

        for r0, r1 in _blocks(len(segs), len(cL) * q):
            s = segs[r0:r1]
            w = weights[s]
            shape = (len(s), q, len(cL))
            s0, H, h, a, b, span, la, lb = _node_panel_geometry(
                points[s].reshape(-1, 2), cp0, cd, cn, cL)
            # int_panel log|x-y| ds(y) in closed form
            J = _gauss_sum(w, (0.5 * (b * lb - a * la) - cL + h * span).reshape(shape))
            A = (0.5 * (la - lb)).reshape(shape)
            B = (np.sign(H) * span).reshape(shape)
            del h, a, b, span, la, lb
            # per segment: the tangent against each panel's direction and normal
            td = (d[s] @ cd.T)[:, None]
            tn = (d[s] @ cn.T)[:, None]
            # H int g(t)/D dt as _dl_panel_terms: B and H A1 = s0 B - H A are
            # its g0 and slope coefficients
            DL0 = _gauss_sum(w, B)
            DL1 = _gauss_sum(w, s0.reshape(shape) * B - H.reshape(shape) * A)
            del s0, H
            dV = -(td * A + tn * B) / TWO_PI
            dK = td * B - tn * A
            # the panels on the segment's line, where neither the double
            # layer nor dK/ds has a kernel
            same = line[s, None] == cline
            DL0[same] = 0.0
            DL1[same] = 0.0
            np.copyto(dK, 0.0, where=same[:, None])
            dK /= TWO_PI
            nodes = _nodes(s, q)
            put(self.V, s, J)
            put(self.DL0, s, DL0 / TWO_PI)
            put(self.DL1, s, DL1 / TWO_PI)
            put(self.MK, nodes, dK.reshape(-1, len(cL)))
            put(self.MV, nodes, dV.reshape(-1, len(cL)))

    def check_mesh(self, bmesh: BoundaryMesh) -> None:
        """Raise ``ValueError`` unless the matrices are filled for ``bmesh`` itself."""
        if self._new.any():
            raise ValueError("operators not filled since the last refinement")
        if bmesh is not self.bmesh:
            raise ValueError("data of another boundary mesh than the operators'")

    def dl_rhs(self, g: BoundaryTrace) -> np.ndarray:
        """Galerkin right-hand side ``int_E (K - 1/2) g ds``, by slot (the rows of ``V``)."""
        self.check_mesh(g.bmesh)
        o = self.order
        g0, g1 = g.endpoint_values()
        return (self.DL0 @ g0[o] + self.DL1 @ g.slopes()[o]
                - 0.25 * self.bmesh.lengths()[o] * (g0 + g1)[o])

    def residual_derivative(self, psi, g: BoundaryTrace):
        """Arclength derivative of ``(K - 1/2) g - V psi`` at the Gauss nodes.

        ``psi`` (a :class:`BemDensity` or its values) and ``g`` run along
        the walk, and so does the result: ``(values, points, weights)``
        with shapes (ns, q), (ns, q, 2), (ns, q).  This is the integrand
        of the boundary residual indicator; Gauss nodes are interior,
        where the derivative is defined (it jumps at panel ends).
        """
        self.check_mesh(g.bmesh)
        if isinstance(psi, BemDensity):
            self.check_mesh(psi.bmesh)
            psi = psi.values
        o = self.order
        slopes = g.slopes()
        by_slot = self.MK @ slopes[o] - self.MV @ np.asarray(psi, float)[o]
        vals = by_slot.reshape(-1, self.n_gauss)[self.slots] - 0.5 * slopes[:, None]
        return (vals, *self.bmesh.gauss_points(self.n_gauss))


def assemble_single_layer(bmesh: BoundaryMesh, n_gauss: int = 4) -> np.ndarray:
    """Dense Galerkin matrix of the single-layer operator on P0, in walk order.

    Exactly symmetric; positive definite whenever diam(domain) < 1.
    ``n_gauss`` controls the outer quadrature for well-separated pairs.
    """
    return BemOperators(bmesh, n_gauss).V


def assemble_dl_rhs(bmesh: BoundaryMesh, g: BoundaryTrace) -> np.ndarray:
    """Galerkin right-hand side ``int_E (K - 1/2) g ds`` per segment."""
    return BemOperators(bmesh).dl_rhs(g)


# ----------------------------------------------------------------------------
# error surrogate


def hminushalf_error_surrogate(bmesh: BoundaryMesh, phi_exact, psi,
                               n_gauss: int = 4) -> float:
    """Mesh-weighted L2 distance ``|| h^(1/2) (phi - psi) ||_{L2(Gamma)}``.

    ``phi_exact(points, normals)`` is the exact density, ``psi`` the P0
    approximation, one value per segment; the weight is ``h|_E = |E|``.
    """
    psi_v = bmesh.per_segment(psi, "psi")
    _, wts = bmesh.gauss_points(n_gauss)
    dev = (bmesh.gauss_values(phi_exact, n_gauss) - psi_v[:, None]) ** 2
    per_seg = np.einsum("sq,sq->s", wts, dev) * bmesh.lengths()
    return float(np.sqrt(per_seg.sum()))
