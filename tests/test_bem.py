"""Boundary-element layer: single/double layer potentials and surrogates."""

import cProfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from _helpers import (assert_equal_to_a_fresh_build_by_slot, collinear_coordinates_reference,
                      double_layer_derivative_closed_form, integrate_double_layer, integrate_trace, nodal_interpolate_u0,
                      panel_coordinates_reference, same_line_reference, single_layer_pointwise,
                      uniform_refine_boundary)
import fembem.mesh
from fembem import bem
from fembem.mesh import Mesh, boundary_trace, make_initial_mesh, refine_nvb
from fembem.model import EXAMPLES, make_problem

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def lbm():
    return boundary_trace(make_initial_mesh("lshape"))


@pytest.fixture(scope="module")
def V(lbm):
    return bem.assemble_single_layer(lbm)


def kernel_entry(bm, i, j):
    """(s, t) integrand of the Galerkin single-layer entry (i, j)."""
    a, b = bm.endpoints()
    L = bm.lengths()

    def f(t, s):
        x = a[i] + s * (b[i] - a[i])
        y = a[j] + t * (b[j] - a[j])
        return -np.log(np.hypot(*(x - y))) / TWO_PI * L[i] * L[j]

    return f


# ---------------------------------------------------------------------------
# single-layer matrix entries


def test_single_layer_symmetric(V):
    assert np.abs(V - V.T).max() <= 1e-13


def test_self_entries_match_closed_form(lbm, V):
    L = lbm.lengths()
    exact = L ** 2 / TWO_PI * (1.5 - np.log(L))
    assert np.abs(np.diag(V) - exact).max() <= 1e-15


def test_self_entry_matches_adaptive_quadrature(lbm, V):
    # split the square at the diagonal singularity and use symmetry in (s, t)
    val, err = integrate.dblquad(kernel_entry(lbm, 0, 0), 0, 1, 0,
                                 lambda s: s, epsabs=1e-13, epsrel=1e-13)
    assert abs(V[0, 0] - 2.0 * val) <= 1e-10


def test_disjoint_entries_match_tensor_gauss(lbm, V):
    a, b = lbm.endpoints()
    L = lbm.lengths()
    xi, w = np.polynomial.legendre.leggauss(32)
    xi = 0.5 * (xi + 1.0)
    w = 0.5 * w

    def tensor_entry(i, j):
        X = a[i] + xi[:, None] * (b[i] - a[i])[None, :]
        Y = a[j] + xi[:, None] * (b[j] - a[j])[None, :]
        D = np.hypot(X[:, None, 0] - Y[None, :, 0], X[:, None, 1] - Y[None, :, 1])
        return -(w[:, None] * w[None, :] * np.log(D)).sum() * L[i] * L[j] / TWO_PI

    V24 = bem.assemble_single_layer(lbm, n_gauss=24)
    ns = lbm.num_segments
    checked = 0
    for i in range(ns):
        for j in range(ns):
            mid_i = 0.5 * (a[i] + b[i])
            mid_j = 0.5 * (a[j] + b[j])
            if np.hypot(*(mid_i - mid_j)) > 0.5 * (L[i] + L[j]) + 1e-12:
                ref = tensor_entry(i, j)
                assert abs(V[i, j] - ref) <= 1e-8
                assert abs(V24[i, j] - ref) <= 1e-10
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (3, 4), (7, 0), (0, 2), (2, 5)])
def test_near_entries_match_adaptive_quadrature(lbm, V, pair):
    i, j = pair
    val, err = integrate.dblquad(kernel_entry(lbm, i, j), 0, 1, 0, 1,
                                 epsabs=1e-12, epsrel=1e-12)
    assert abs(V[i, j] - val) <= 5e-10


def test_single_layer_spd(lbm, V):
    np.linalg.cholesky(V)
    assert np.linalg.eigvalsh(V).min() > 0
    mesh, bm, _ = uniform_refine_boundary(make_initial_mesh("lshape"), 2)
    Vf = bem.assemble_single_layer(bm)
    np.linalg.cholesky(Vf)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=8, max_size=8))
def test_single_layer_quadratic_form_positive(lbm, V, coeffs):
    psi = np.asarray(coeffs)
    if np.abs(psi).max() < 1e-6:
        return
    assert psi @ (V @ psi) > 0.0


def test_single_layer_pointwise_matches_quadrature(lbm, rng):
    psi = bem.BemDensity(lbm, rng.standard_normal(lbm.num_segments))
    a, b = lbm.endpoints()
    L = lbm.lengths()
    for x0 in (np.array([0.4, 0.37]), np.array([-0.05, 0.02])):
        ref = 0.0
        for j in range(lbm.num_segments):
            def f(t):
                y = a[j] + t * (b[j] - a[j])
                return -np.log(np.hypot(*(x0 - y))) / TWO_PI * L[j]
            val, _ = integrate.quad(f, 0, 1, epsabs=1e-13, limit=200)
            ref += psi.values[j] * val
        out = single_layer_pointwise(lbm, psi, x0[None, :])[0]
        assert abs(out - ref) <= 1e-10


# ---------------------------------------------------------------------------
# double layer


def test_double_layer_of_one_is_minus_half(lbm):
    ones = bem.BoundaryTrace(lbm, np.ones(lbm.num_segments))
    pts, _ = lbm.gauss_points(4)
    k1 = bem.double_layer_pointwise(lbm, ones, pts.reshape(-1, 2))
    assert np.abs(k1 + 0.5).max() <= 1e-12
    rhs1 = bem.assemble_dl_rhs(lbm, ones)
    assert np.abs(rhs1 + lbm.lengths()).max() <= 1e-13


def test_double_layer_panel_terms_match_quadrature(lbm):
    a, b = lbm.endpoints()
    L = lbm.lengths()
    ns = lbm.num_segments
    pts, _ = lbm.gauss_points(4)
    x0 = pts[3, 1]
    p0f, df, nf, Lf = bem._frames(lbm)
    ones = np.ones(ns)
    terms = bem._dl_panel_terms(x0[None, :], p0f, df, nf, Lf, ones, ones) / TWO_PI
    for j in (0, 2, 5, 7):
        def dl(t):
            y = a[j] + t * (b[j] - a[j])
            d = x0 - y
            nrm = np.array([(b[j] - a[j])[1], -(b[j] - a[j])[0]]) / L[j]
            return (nrm @ d) / (d @ d) / TWO_PI * L[j]
        val, _ = integrate.quad(dl, 0, 1, epsabs=1e-13, limit=200)
        assert abs(terms[0, j] - val) <= 1e-8
    assert abs(terms.sum() + 0.5) <= 1e-12


def test_dl_rhs_zero_trace_and_quadrature_refinement(lbm):
    zero = bem.BoundaryTrace(lbm, np.zeros(lbm.num_segments))
    assert np.array_equal(bem.assemble_dl_rhs(lbm, zero),
                          np.zeros(lbm.num_segments))
    pts = lbm.mesh.vertices[lbm.boundary_vertices]
    smooth = bem.BoundaryTrace(lbm, np.cos(pts[:, 0]) + pts[:, 1] ** 2)
    r4 = bem.assemble_dl_rhs(lbm, smooth)
    r12 = bem.BemOperators(lbm, 12).dl_rhs(smooth)
    r24 = bem.BemOperators(lbm, 24).dl_rhs(smooth)
    # the integrand has corner singularities in higher derivatives, so
    # Gauss converges algebraically: 4 points are already at 1e-5 and
    # each refinement gains well over an order of magnitude
    d4 = np.abs(r4 - r24).max()
    d12 = np.abs(r12 - r24).max()
    assert d4 <= 2e-5 * np.abs(r24).max()
    assert d12 <= 0.05 * d4


# ---------------------------------------------------------------------------
# operators of one boundary mesh against the pointwise references


@pytest.fixture(scope="module")
def graded_lbm():
    """L-shape trace graded towards the re-entrant corner (the origin).

    Only boundary segments are marked: each round splits the two
    segments touching the corner.
    """
    mesh = make_initial_mesh("lshape")
    bm = boundary_trace(mesh)
    for _ in range(6):
        mid = 0.5 * np.add(*bm.endpoints())
        near = np.argsort(np.linalg.norm(mid, axis=1))[:2]
        mesh, _ = refine_nvb(mesh, (), marked_segments=near, bmesh=bm)
        bm = boundary_trace(mesh)
    return bm


def test_dl_operator_matches_pointwise_double_layer(graded_lbm, rng):
    bm = graded_lbm
    L = bm.lengths()
    assert L.max() / L.min() >= 32
    ops = bem.BemOperators(bm)
    for _ in range(3):
        g = bem.BoundaryTrace(bm, rng.standard_normal(bm.num_segments))
        ref = integrate_double_layer(bm, g) - 0.5 * integrate_trace(bm, g)
        np.testing.assert_allclose(ops.dl_rhs(g), ref, rtol=1e-12,
                                   atol=1e-15 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# residual derivative (drives the boundary estimator)


def test_residual_derivative_matches_finite_differences(lbm, rng):
    ns = lbm.num_segments
    psi = bem.BemDensity(lbm, rng.standard_normal(ns))
    g = bem.BoundaryTrace(lbm, rng.standard_normal(ns))
    vals, rpts, _ = bem.BemOperators(lbm, n_gauss=4).residual_derivative(psi, g)
    tgt = lbm.tangents()
    slopes = g.slopes()
    eps = 1e-6
    worst = 0.0
    for s in range(ns):
        for q in range(4):
            x = rpts[s, q]
            xp = (x + eps * tgt[s])[None, :]
            xm = (x - eps * tgt[s])[None, :]
            kd = (bem.double_layer_pointwise(lbm, g, xp)[0]
                  - bem.double_layer_pointwise(lbm, g, xm)[0]) / (2 * eps)
            vd = (single_layer_pointwise(lbm, psi, xp)[0]
                  - single_layer_pointwise(lbm, psi, xm)[0]) / (2 * eps)
            fd = kd - 0.5 * slopes[s] - vd
            worst = max(worst, abs(fd - vals[s, q]))
    assert worst <= 1e-5


def random_zshape_trace(seed, rounds=6):
    """Z-shape trace refined at random segments and elements."""
    rng = np.random.default_rng(seed)
    mesh = make_initial_mesh("zshape")
    bm = boundary_trace(mesh)
    for _ in range(rounds):
        mesh, rel = refine_nvb(mesh, rng.choice(mesh.num_triangles, 3, replace=False), bmesh=bm,
                               marked_segments=rng.choice(bm.num_segments, 3, replace=False))
        bm = rel.fine_trace
    return bm


def rotated(bm, angle):
    """The trace of ``bm``'s mesh turned by ``angle``: no segment is axis-aligned."""
    c, s = np.cos(angle), np.sin(angle)
    mesh = bm.mesh
    return boundary_trace(Mesh(mesh.vertices @ np.array([[c, s], [-s, c]]), mesh.triangles))


@pytest.mark.parametrize("trace", ["graded_lshape", "random_zshape", "rotated_zshape"])
@pytest.mark.parametrize("n_gauss", [2, 4])
def test_panel_form_of_dk_ds_matches_the_closed_form(graded_lbm, rng, trace, n_gauss):
    """``MK @ slopes`` (``-K' dg/ds``) equals the 1/h^3 closed form of dK g/ds.

    Every segment's nodes are compared, those on the two segments at
    each corner of the polygon among them.  On the rotated trace the
    nodes lie off their own panel's line by rounding, where only the
    same-line rule keeps the principal value.
    """
    bm = graded_lbm if trace == "graded_lshape" else random_zshape_trace(int(rng.integers(100)))
    if trace == "rotated_zshape":
        bm = rotated(bm, 0.5)
    d, before = bm.tangents(), np.roll(bm.tangents(), 1, axis=0)
    corner = np.abs(d[:, 0] * before[:, 1] - d[:, 1] * before[:, 0]) > 1e-9   # at its start
    at_corner = np.repeat(corner | np.roll(corner, -1), n_gauss)
    assert at_corner.any() and not at_corner.all()
    ops = bem.BemOperators(bm, n_gauss)
    for _ in range(3):
        g = bem.BoundaryTrace(bm, rng.standard_normal(bm.num_segments))
        ref = double_layer_derivative_closed_form(bm, g, n_gauss)
        got = ops.MK @ g.slopes()
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15 * np.abs(ref).max())
        np.testing.assert_allclose(got[at_corner], ref[at_corner], rtol=1e-12,
                                   atol=1e-15 * np.abs(ref[at_corner]).max())


def test_residual_derivative_constant_trace_vanishes(lbm):
    ns = lbm.num_segments
    vals, _, _ = bem.BemOperators(lbm).residual_derivative(
        bem.BemDensity(lbm, np.zeros(ns)), bem.BoundaryTrace(lbm, np.full(ns, 3.7)))
    assert np.abs(vals).max() <= 1e-12


# ---------------------------------------------------------------------------
# operators carried through boundary refinements


def boundary_marking(kind, ns, rng):
    if kind == "first":
        return [0]
    if kind == "last":            # its sons meet segment 0 across the end of the walk
        return [ns - 1]
    if kind == "neighbours":
        k = int(rng.integers(ns - 1))
        return [k, k + 1]
    if kind == "alternate":       # kept rows meet new panels on both sides of most vertices
        return np.arange(0, ns, 2)
    return rng.choice(ns, max(1, ns // 5), replace=False)


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
@pytest.mark.parametrize("n_gauss", [2, 4])
@pytest.mark.parametrize("chain", [1, 3])
def test_refined_operators_equal_fresh_bitwise(domain, n_gauss, chain):
    """``refine`` + ``fill`` gives the very bits of a fresh build, permuted by the slots.

    ``chain`` refinements run between two fills, so sons of segments
    that were split but never filled are split again.  Random markings
    also mark a few elements, whose closure may split more segments.
    """
    rng = np.random.default_rng(7 * n_gauss + chain)
    mesh = make_initial_mesh(domain)
    bm = boundary_trace(mesh)
    ops = bem.BemOperators(bm, n_gauss)
    for kind in ("first", "last", "neighbours", "alternate", "random", "random", "last"):
        for _ in range(chain):
            tris = rng.choice(mesh.num_triangles, 2, replace=False) if kind == "random" else ()
            mesh, rel = refine_nvb(mesh, tris, bmesh=bm,
                                   marked_segments=boundary_marking(kind, bm.num_segments, rng))
            ops.refine(rel)
            bm = rel.fine_trace
        ops.fill()
        assert ops.bmesh is bm
        assert_equal_to_a_fresh_build_by_slot(ops, bm)


def test_kept_rows_evaluate_only_the_new_panels(monkeypatch):
    """After one split, the kept rows meet the two sons and no other panel."""
    mesh, bm, _ = uniform_refine_boundary(make_initial_mesh("lshape"), 3)
    assert bm.num_segments == 64
    ops = bem.BemOperators(bm)
    mesh, rel = refine_nvb(mesh, (), marked_segments=[5], bmesh=bm)
    assert rel.fine_trace.num_segments == 65
    ops.refine(rel)
    seen = []           # (Gauss nodes, panels) of each geometry evaluation
    plain = bem._node_panel_geometry

    def spy(x, p0, d, n, L):
        seen.append((len(x), len(L)))
        return plain(x, p0, d, n, L)

    monkeypatch.setattr(bem, "_node_panel_geometry", spy)
    ops.fill()
    q = ops.n_gauss
    assert seen == [(2 * q, 65), (63 * q, 2)]


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_refine_keeps_the_old_matrices_as_top_left_blocks(domain):
    """A refinement moves no entry: the old matrices sit in the top-left blocks of the new.

    ``refine`` re-slots and leaves the matrices as they are; the next
    ``fill`` grows each in place, keeps every entry of a pair of unsplit
    segments where it was and computes the rest, and a second fill has
    nothing to do.  Unsplit segments keep their slots, a first son takes its
    father's, and the second sons take the fresh slots at the end, in
    walk order.  Only copies of the matrices are kept across the fill,
    which refuses to grow a matrix that is still held.
    """
    rng = np.random.default_rng(len(domain))
    mesh = make_initial_mesh(domain)
    bm = boundary_trace(mesh)
    ops = bem.BemOperators(bm)
    q = ops.n_gauss
    for kind in ("first", "last", "alternate", "random", "last"):
        mesh, rel = refine_nvb(mesh, (), bmesh=bm,
                               marked_segments=boundary_marking(kind, bm.num_segments, rng))
        ns, nf = bm.num_segments, rel.fine_trace.num_segments
        old = {name: getattr(ops, name).copy() for name in ("V", "DL0", "DL1", "MK", "MV")}
        slots = ops.slots.copy()
        unsplit = slots[np.bincount(rel.seg_father) == 1]
        ops.refine(rel)
        assert all(getattr(ops, name).tobytes() == a.tobytes() for name, a in old.items())
        first = np.diff(rel.seg_father, prepend=-1) > 0
        assert np.array_equal(ops.slots[first], slots)
        assert np.array_equal(ops.slots[~first], np.arange(ns, nf))
        assert ops.fill() is True
        assert ops.fill() is False
        for name, a in old.items():
            per = q if name in ("MK", "MV") else 1      # rows per segment
            assert a.shape == (ns * per, ns)
            assert getattr(ops, name).shape == (nf * per, nf)
            block = np.ix_(bem._nodes(unsplit, per), unsplit)
            assert getattr(ops, name)[block].tobytes() == a[block].tobytes(), name
        bm = rel.fine_trace


@pytest.mark.parametrize("example", sorted(EXAMPLES))
@pytest.mark.parametrize("marking", ["uniform", "random"])
def test_line_ids_join_exactly_the_same_line_pairs(example, marking):
    """``line[i] == line[j]`` is the distance test of the pair, for every pair of segments.

    The operators find their same-line pairs by the ids alone, so their
    bits rest on this.  The initial ids come from the sides of the
    polygon, the refined ones from the fathers.  Random markings also
    mark a few elements, whose closure grades the trace.
    """
    rng = np.random.default_rng(len(example) + len(marking))
    mesh = make_initial_mesh(make_problem(example).domain)
    bm = boundary_trace(mesh)
    np.testing.assert_array_equal(bm.line_ids[:, None] == bm.line_ids, same_line_reference(bm))
    for _ in range(5):
        ns = bm.num_segments
        if marking == "uniform":
            tris, segs = (), np.arange(ns)
        else:
            tris = rng.choice(mesh.num_triangles, 3, replace=False)
            segs = rng.choice(ns, max(1, ns // 3), replace=False)
        mesh, rel = refine_nvb(mesh, tris, bmesh=bm, marked_segments=segs)
        bm = rel.fine_trace
        np.testing.assert_array_equal(bm.line_ids[:, None] == bm.line_ids, same_line_reference(bm))


def assert_same_line_pairs_are_zero(ops):
    """``DL0``, ``DL1`` and the ``MK`` rows of the Gauss nodes are 0.0 at equal line ids."""
    line = ops.bmesh.line_ids[ops.order]               # by slot
    same = line[:, None] == line
    assert same.sum() > len(line)                      # more pairs than the diagonal
    assert np.count_nonzero(ops.DL0[~same]) > 0
    for name in ("DL0", "DL1"):
        assert (getattr(ops, name)[same] == 0.0).all(), name
    MK = ops.MK.reshape(len(line), ops.n_gauss, len(line))
    assert (MK[np.broadcast_to(same[:, None], MK.shape)] == 0.0).all()


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
@pytest.mark.parametrize("angle", [0.0, 0.5])
def test_same_line_zeros_come_from_the_line_ids(domain, angle):
    """The line ids alone decide the same-line zeros, fresh and after ``refine`` + ``fill``.

    Turned by 0.5, no segment is axis-aligned and the Gauss nodes lie
    off their own panel's line by rounding, where only the ids give 0.0.
    """
    rng = np.random.default_rng(len(domain) + 1)
    base = make_initial_mesh(domain)
    c, s = np.cos(angle), np.sin(angle)
    mesh = Mesh(base.vertices @ np.array([[c, s], [-s, c]]), base.triangles)
    bm = boundary_trace(mesh)
    ops = bem.BemOperators(bm)
    assert_same_line_pairs_are_zero(ops)
    for kind in ("first", "last", "alternate", "random"):
        mesh, rel = refine_nvb(mesh, (), bmesh=bm,
                               marked_segments=boundary_marking(kind, bm.num_segments, rng))
        bm = rel.fine_trace
        ops.refine(rel)
        ops.fill()
        assert_same_line_pairs_are_zero(ops)
        assert_same_line_pairs_are_zero(bem.BemOperators(bm))


@pytest.mark.parametrize("trace", ["graded_lshape", "random_zshape", "rotated_zshape"])
def test_panel_products_equal_their_einsum_forms(graded_lbm, rng, trace):
    """``s0``, ``H`` and the collinear ``A2``/``B2`` equal the einsum forms.

    Equal as numbers: the two-term products may give ``-0.0`` where the
    einsum gives ``+0.0``, which no consumer tells apart.
    """
    bm = graded_lbm if trace == "graded_lshape" else random_zshape_trace(int(rng.integers(100)))
    if trace == "rotated_zshape":
        bm = rotated(bm, 0.5)
    p0, p1, d, n, L = bem._panel_frames(bm)
    x = np.concatenate([bm.gauss_points(4)[0].reshape(-1, 2), rng.uniform(-0.3, 0.3, (50, 2))])
    s0, H = bem._node_panel_geometry(x, p0, d, n, L)[:2]
    s0_ref, H_ref = panel_coordinates_reference(x, p0, d, n)
    assert np.array_equal(s0, s0_ref) and np.array_equal(H, H_ref)
    i, j = np.indices((len(L), len(L))).reshape(2, -1)
    A2, B2 = collinear_coordinates_reference(p0, p1, d, i, j)
    assert np.array_equal(bem._along(p0, p0, d, i, j), A2)
    assert np.array_equal(bem._along(p1, p0, d, i, j), B2)


def test_gauss_sum_has_the_same_bits_in_every_block(rng):
    """A column sums its Gauss nodes in one order, whatever the block width."""
    for q in (2, 4, 7):
        w = rng.random((6, q))
        block = rng.standard_normal((6, q, 9))
        wide = bem._gauss_sum(w, block)
        for j in range(9):
            narrow = bem._gauss_sum(w, np.ascontiguousarray(block[:, :, j:j + 1]))
            assert narrow[:, 0].tobytes() == wide[:, j].tobytes()


def test_operators_refuse_data_of_another_boundary_mesh(lbm, rng):
    from fembem.estimate import mu_bem

    ns = lbm.num_segments
    ops = bem.BemOperators(lbm)
    # same segment count and walk, other geometry
    other = boundary_trace(Mesh(0.5 * lbm.mesh.vertices, lbm.mesh.triangles))
    assert other.num_segments == ns
    g_other = bem.BoundaryTrace(other, rng.standard_normal(ns))
    psi_other = bem.BemDensity(other, rng.standard_normal(ns))
    g = bem.BoundaryTrace(lbm, g_other.values)
    with pytest.raises(ValueError, match="another boundary mesh"):
        ops.dl_rhs(g_other)
    with pytest.raises(ValueError, match="another boundary mesh"):
        ops.residual_derivative(psi_other, g)
    with pytest.raises(ValueError, match="another boundary mesh"):
        mu_bem(other, bem.BemDensity(lbm, psi_other.values), g,
               du0_ds=lambda p, t: np.zeros(len(p)), operators=ops)
    # a trace of an equal geometry is another boundary mesh too
    twin = boundary_trace(lbm.mesh)
    with pytest.raises(ValueError, match="another boundary mesh"):
        ops.dl_rhs(bem.BoundaryTrace(twin, g.values))
    # and a refinement of another mesh, with the same segment count
    with pytest.raises(ValueError, match="does not refine"):
        ops.refine(refine_nvb(other.mesh, (), bmesh=other)[1])

    mesh, rel = refine_nvb(lbm.mesh, (), marked_segments=[0], bmesh=lbm)
    ops.refine(rel)
    fine = bem.BoundaryTrace(rel.fine_trace, np.zeros(rel.fine_trace.num_segments))
    with pytest.raises(ValueError, match="not filled"):
        ops.dl_rhs(fine)
    ops.fill()
    assert np.array_equal(ops.dl_rhs(fine), np.zeros(rel.fine_trace.num_segments))
    with pytest.raises(ValueError, match="does not refine"):
        ops.refine(rel)


def test_refine_follows_a_refinement_that_splits_no_segment(rng):
    """The operators move to the fine trace, keep their bits and compute nothing."""
    mesh, bm, _ = uniform_refine_boundary(make_initial_mesh("lshape"), 2)
    ops = bem.BemOperators(bm)
    g = bem.BoundaryTrace(bm, rng.standard_normal(bm.num_segments))
    rhs = ops.dl_rhs(g)
    mesh, rel = refine_nvb(mesh, [0], bmesh=bm)
    assert rel.fine_trace.num_segments == bm.num_segments
    ops.refine(rel)
    assert ops.bmesh is rel.fine_trace
    assert ops.fill() is False
    with pytest.raises(ValueError, match="another boundary mesh"):
        ops.dl_rhs(g)
    assert ops.dl_rhs(bem.BoundaryTrace(rel.fine_trace, g.values)).tobytes() == rhs.tobytes()


MATRICES = ("V", "DL0", "DL1", "MK", "MV")


def pointwise_double_layer_bytes(bm):
    """Bytes of the pointwise double layer of one trace at the Gauss nodes of ``bm``."""
    g = bem.BoundaryTrace(bm, np.cos(7.0 * bm.mesh.vertices[bm.boundary_vertices] @ [1.0, 0.3]))
    return bem.double_layer_pointwise(bm, g, bm.gauss_points(4)[0].reshape(-1, 2)).tobytes()


def matrices_along_a_refinement_chain(domain):
    """Bytes of the matrices of a fresh build, of each fill of a chain, and of a fresh build at its end.

    Each entry of the chain also holds the pointwise double layer of its trace.
    """
    rng = np.random.default_rng(11)
    mesh, bm, _ = uniform_refine_boundary(make_initial_mesh(domain), 3)
    ops = bem.BemOperators(bm)
    out = [[getattr(ops, name).tobytes() for name in MATRICES] + [pointwise_double_layer_bytes(bm)]]
    for kind in ("alternate", "random", "first", "last", "neighbours"):
        mesh, rel = refine_nvb(mesh, (), bmesh=bm,
                               marked_segments=boundary_marking(kind, bm.num_segments, rng))
        ops.refine(rel)
        bm = rel.fine_trace
        ops.fill()
        out.append([getattr(ops, name).tobytes() for name in MATRICES]
                   + [pointwise_double_layer_bytes(bm)])
    out.append([getattr(bem.BemOperators(bm), name).tobytes() for name in MATRICES])
    return out


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_the_block_size_changes_no_bit(domain, monkeypatch):
    """One segment per block (and one row per move) gives every matrix the bits of the default blocks."""
    default = matrices_along_a_refinement_chain(domain)
    monkeypatch.setattr(fembem.mesh, "_BLOCK_ENTRIES", 1)
    assert matrices_along_a_refinement_chain(domain) == default


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_a_fresh_build_evaluates_each_same_line_and_corner_pair_once(domain, monkeypatch):
    """With one segment a block, each pair of ``V`` is finished in one row.

    Each unordered same-line pair, and each segment with itself, enters
    the closed form once in each order of its mean: a side of the polygon
    with n segments passes n (n + 1) entries.  Each corner of the walk
    enters the wedge rule once.
    """
    monkeypatch.setattr(fembem.mesh, "_BLOCK_ENTRIES", 1)
    closed, wedges = [], []
    plain_closed, plain_wedge = bem._collinear_double_integral, bem._wedge_double_integrals

    def spy_closed(A2, B2, L1):
        closed.append(len(L1))
        return plain_closed(A2, B2, L1)

    def spy_wedge(e1, L1, e2, L2):
        wedges.append(len(L1))
        return plain_wedge(e1, L1, e2, L2)

    monkeypatch.setattr(bem, "_collinear_double_integral", spy_closed)
    monkeypatch.setattr(bem, "_wedge_double_integrals", spy_wedge)
    bm = random_zshape_trace(3) if domain == "zshape" else uniform_refine_boundary(
        make_initial_mesh(domain), 2)[1]
    bem.BemOperators(bm)
    n = np.bincount(bm.line_ids)
    assert len(n) >= 6 and sum(closed) == int((n * (n + 1)).sum())
    line = bm.line_ids
    assert sum(wedges) == np.count_nonzero(line != np.roll(line, -1)) == len(n)


def test_the_wedge_rule_takes_an_empty_batch():
    e, L = np.zeros((0, 2)), np.zeros(0)
    assert bem._wedge_double_integrals(e, L, e, L).shape == (0,)


@pytest.mark.parametrize("block", [None, 2_000], ids=["default", "2000"])
def test_a_fill_holds_one_copy_of_each_matrix_and_one_block_of_temporaries(monkeypatch, block):
    """Traced by tracemalloc, a fill's peak above what it leaves alive is a few blocks.

    That is, the peak of a fresh build, and of a refine + fill that
    splits 4 of 256 segments, less the five matrices and the facts of
    the trace that stay: at most 24 blocks of ``_BLOCK_ENTRIES`` doubles
    and 512 bytes a segment.  Neither a second copy of a growing matrix
    nor a temporary of the size of ``V`` fits in that.
    """
    if block is not None:
        monkeypatch.setattr(fembem.mesh, "_BLOCK_ENTRIES", block)
    mesh, bm, _ = uniform_refine_boundary(make_initial_mesh("lshape"), 5)
    ns = bm.num_segments
    assert ns == 256
    budget = 24 * 8 * fembem.mesh._BLOCK_ENTRIES + 512 * ns
    tracemalloc.start()
    try:
        ops = bem.BemOperators(bm)
        current, peak = tracemalloc.get_traced_memory()
        assert current >= sum(getattr(ops, name).nbytes for name in MATRICES)
        assert peak - current <= budget
        mesh, rel = refine_nvb(mesh, (), marked_segments=np.arange(0, ns, 64), bmesh=bm)
        tracemalloc.reset_peak()
        ops.refine(rel)
        assert ops.fill() is True
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ops.V.shape == (ns + 4, ns + 4)
    assert peak - current <= budget


def test_a_matrix_held_across_a_fill_stops_it_until_let_go(lbm):
    """The matrices grow in place, so a fill refuses with NumPy's ``ValueError`` while one is viewed.

    ``MV`` grows last: the refused fill leaves every matrix as it was,
    and once the view is gone the same fill equals a fresh build.
    """
    ops = bem.BemOperators(lbm)
    old = {name: getattr(ops, name).copy() for name in MATRICES}
    mesh, rel = refine_nvb(lbm.mesh, (), marked_segments=[0, 3], bmesh=lbm)
    ops.refine(rel)
    held = ops.MV.diagonal()
    with pytest.raises(ValueError, match="cannot resize"):
        ops.fill()
    assert all(getattr(ops, name).tobytes() == a.tobytes() for name, a in old.items())
    with pytest.raises(ValueError, match="not filled"):
        ops.dl_rhs(bem.BoundaryTrace(rel.fine_trace, np.zeros(rel.fine_trace.num_segments)))
    del held
    assert ops.fill() is True
    assert_equal_to_a_fresh_build_by_slot(ops, rel.fine_trace)


def test_a_fill_grows_its_matrices_under_a_profiler(lbm):
    """A profiler's own reference to each method call's array is not taken for a held matrix."""
    ops = bem.BemOperators(lbm)
    mesh, rel = refine_nvb(lbm.mesh, (), marked_segments=[1, 5], bmesh=lbm)
    ops.refine(rel)
    assert cProfile.Profile().runcall(ops.fill) is True
    assert_equal_to_a_fresh_build_by_slot(ops, rel.fine_trace)


# ---------------------------------------------------------------------------
# manufactured-solution consistency of the weakly-singular equation


def exterior_fields():
    from fembem.model import make_problem
    exact = make_problem("laplace_lshape").exact
    return exact.u_ext, exact.phi


def test_exterior_representation_residual_decays():
    u_ext, phi_ext = exterior_fields()
    mesh = make_initial_mesh("lshape")
    bm = boundary_trace(mesh)
    mismatch = []
    for _ in range(4):
        gh = nodal_interpolate_u0(bm, u_ext)
        a, b = bm.endpoints()
        ph = bem.BemDensity(bm, phi_ext(0.5 * (a + b), bm.normals()))
        Vf = bem.assemble_single_layer(bm)
        lhs = Vf @ ph.values
        rhs = bem.assemble_dl_rhs(bm, gh)
        mismatch.append(np.linalg.norm(lhs - rhs) / np.sqrt(bm.num_segments))
        mesh, bm, _ = uniform_refine_boundary(mesh, 1)
    assert all(y < x for x, y in zip(mismatch, mismatch[1:]))
    assert mismatch[-1] < mismatch[0] / 8.0


def test_galerkin_solution_converges_for_interior_source():
    z0 = np.array([0.6, 0.55])   # source outside the domain

    def w_int(p):
        d = p - z0
        return np.log(np.hypot(d[:, 0], d[:, 1]))

    def dn_w(p, n):
        d = p - z0
        return np.einsum("ij,ij->i", n, d) / np.einsum("ij,ij->i", d, d)

    mesh = make_initial_mesh("lshape")
    bm = boundary_trace(mesh)
    errs = []
    for _ in range(5):
        gh = nodal_interpolate_u0(bm, w_int)
        Vf = bem.assemble_single_layer(bm)
        rhs = integrate_double_layer(bm, gh) + 0.5 * integrate_trace(bm, gh)
        psi_h = np.linalg.solve(Vf, rhs)
        a, b = bm.endpoints()
        exact = dn_w(0.5 * (a + b), bm.normals())
        errs.append(np.sqrt((bm.lengths() * (psi_h - exact) ** 2).sum()))
        mesh, bm, _ = uniform_refine_boundary(mesh, 1)
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert all(y < x for x, y in zip(errs, errs[1:]))
    assert (rates[-2:] >= 1.0).all()


# ---------------------------------------------------------------------------
# traces, densities, error surrogate


def test_trace_containers_validate_length(lbm):
    with pytest.raises(ValueError, match="density values"):
        bem.BemDensity(lbm, np.zeros(lbm.num_segments + 1))
    with pytest.raises(ValueError, match="trace values"):
        bem.BoundaryTrace(lbm, np.zeros((lbm.num_segments, 2)))


def test_trace_of_and_nodal_interpolation(lbm):
    from fembem.fem import FeFunction
    mesh = lbm.mesh
    affine = lambda p: 1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1]
    u = FeFunction(mesh, affine(mesh.vertices))
    tr = bem.BoundaryTrace(lbm, u.values[lbm.boundary_vertices])
    ni = nodal_interpolate_u0(lbm, affine)
    assert np.array_equal(tr.values, ni.values)
    g0, g1 = tr.endpoint_values()
    assert np.array_equal(integrate_trace(lbm, tr),
                          0.5 * lbm.lengths() * (g0 + g1))


def test_error_surrogate_exact_cases(lbm):
    zero = lambda p, n: np.zeros(len(p))
    assert bem.hminushalf_error_surrogate(lbm, zero, np.zeros(lbm.num_segments)) == 0.0

    # affine deviation with zero panel mean: contribution L^4 b^2 / 12
    c = np.array([0.8, -0.3])
    phi = lambda p, n: p @ c
    a, b = lbm.endpoints()
    mids = 0.5 * (a + b) @ c
    slopes = lbm.tangents() @ c
    expected = np.sqrt((lbm.lengths() ** 4 * slopes ** 2 / 12.0).sum())
    got = bem.hminushalf_error_surrogate(lbm, phi, mids, n_gauss=4)
    assert abs(got - expected) <= 1e-13 * expected


def test_error_surrogate_rejects_a_density_not_given_per_segment(lbm):
    """One value for the whole boundary fails instead of broadcasting over the segments."""
    zero = lambda p, n: np.zeros(len(p))
    for psi in (np.array([0.5]), np.zeros(lbm.num_segments + 1)):
        with pytest.raises(ValueError, match="psi must hold one value per boundary segment"):
            bem.hminushalf_error_surrogate(lbm, zero, psi)


def test_error_surrogate_halves_with_constant_deviation():
    zero = lambda p, n: np.zeros(len(p))
    mesh = make_initial_mesh("lshape")
    bm = boundary_trace(mesh)
    coarse = bem.hminushalf_error_surrogate(bm, zero, np.ones(bm.num_segments))
    _, bmf, _ = uniform_refine_boundary(mesh, 1)
    fine = bem.hminushalf_error_surrogate(bmf, zero, np.ones(bmf.num_segments))
    assert abs(fine / coarse - np.sqrt(0.5)) <= 1e-15
