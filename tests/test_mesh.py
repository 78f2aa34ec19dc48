"""Triangulations, newest-vertex bisection, boundary traces."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (derived_facts, random_nvb_mesh, shape_regularity, uniform_refine,
                      validate)
from fembem.mesh import (BoundaryMesh, Mesh, boundary_trace, make_initial_mesh, refine_nvb,
                         vertex_prolongation_matrix)


def single_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


# ---------------------------------------------------------------------------
# initial meshes


def test_lshape_counts(lshape):
    assert lshape.num_triangles == 12
    assert lshape.num_vertices == 11
    bm = boundary_trace(lshape)
    assert bm.num_segments == 8
    assert len(bm.boundary_vertices) == 8


def test_zshape_counts(zshape):
    assert zshape.num_triangles == 14
    assert zshape.num_vertices == 13
    validate(zshape)


def test_lshape_domain_diameter(lshape):
    pts = lshape.vertices
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                 pts[:, None, 1] - pts[None, :, 1]).max()
    assert abs(d - np.sqrt(2.0) / 2.0) < 1e-14
    assert d < 1.0


def test_zshape_domain_diameter(zshape):
    pts = zshape.vertices
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                 pts[:, None, 1] - pts[None, :, 1]).max()
    assert d < 1.0


def test_lshape_perimeter(lshape):
    bm = boundary_trace(lshape)
    assert abs(bm.lengths().sum() - 2.0) < 1e-14


def test_lshape_area(lshape):
    assert abs(lshape.areas().sum() - 3.0 / 16.0) < 1e-15


def test_zshape_area(zshape):
    # quarter-scaled square minus the eighth-circle wedge triangle
    assert abs(zshape.areas().sum() - (0.25 - 0.03125)) < 1e-15


def test_initial_meshes_validate(lshape, zshape):
    validate(lshape)
    validate(zshape)
    assert (lshape.areas() > 0).all()
    assert (zshape.areas() > 0).all()


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_initial_meshes_list_the_strictly_longest_edge_first(domain):
    """The reference edge (v0, v1) of every initial element is its strictly longest edge."""
    p = make_initial_mesh(domain).corners()
    lengths = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)   # edge k = (v_k, v_k+1)
    assert (lengths[:, 0] > lengths[:, 1]).all() and (lengths[:, 0] > lengths[:, 2]).all()


def test_unknown_domain_rejected():
    with pytest.raises(ValueError, match="lshape"):
        make_initial_mesh("disk")


# ---------------------------------------------------------------------------
# refinement


def test_refine_nothing_returns_identical(lshape):
    fine, rel = refine_nvb(lshape, np.zeros(0, dtype=int))
    assert fine.num_triangles == lshape.num_triangles
    assert np.array_equal(fine.vertices, lshape.vertices)
    assert np.array_equal(fine.triangles, lshape.triangles)
    assert all(len(s) == 1 for s in rel.tri_sons)


def test_single_triangle_bisection():
    mesh = single_triangle()
    fine, rel = refine_nvb(mesh, np.array([0]))
    assert fine.num_triangles == 2
    assert len(rel.tri_sons[0]) == 2
    areas = fine.areas()
    assert np.allclose(areas, mesh.areas()[0] / 2.0, rtol=1e-15)
    validate(fine)


def test_refine_all_conforming(lshape):
    fine, rel = refine_nvb(lshape, np.arange(12))
    validate(fine)
    assert all(len(s) >= 2 for s in rel.tri_sons)


def test_marked_triangles_never_survive(lshape, rng):
    mesh = uniform_refine(lshape, 2)
    for _ in range(5):
        marked = rng.choice(mesh.num_triangles, size=7, replace=False)
        fine, rel = refine_nvb(mesh, marked)
        for t in marked:
            assert len(rel.tri_sons[t]) >= 2
        mesh = fine


def test_area_conservation_and_son_ratios(lshape, rng):
    mesh = lshape
    total = mesh.areas().sum()
    for _ in range(6):
        marked = rng.choice(mesh.num_triangles,
                            size=max(1, mesh.num_triangles // 5), replace=False)
        fine, rel = refine_nvb(mesh, marked)
        assert abs(fine.areas().sum() - total) < 1e-12 * total
        coarse_area = mesh.areas()
        fine_area = fine.areas()
        q = 2.0 ** -0.5
        for t, sons in enumerate(rel.tri_sons):
            ratios = fine_area[sons] / coarse_area[t]
            if len(sons) == 1:
                assert ratios[0] == 1.0
            else:
                assert (ratios <= q + 1e-12).all()
                for r in ratios:
                    assert min(abs(r - 0.5), abs(r - 0.25), abs(r - 0.125)) < 1e-12
        mesh = fine


def test_out_of_range_marked_rejected(lshape):
    with pytest.raises(ValueError):
        refine_nvb(lshape, np.array([12]))
    with pytest.raises(ValueError):
        refine_nvb(lshape, np.array([-1]))


def test_father_chain_composes(lshape):
    m1, r1 = refine_nvb(lshape, np.arange(6))
    m2, r2 = refine_nvb(m1, np.arange(0, m1.num_triangles, 2))
    # grandsons of every root cover exactly the root's area
    for t in range(lshape.num_triangles):
        grandsons = np.concatenate([r2.tri_sons[s] for s in r1.tri_sons[t]])
        assert abs(m2.areas()[grandsons].sum() - lshape.areas()[t]) < 1e-14


# ---------------------------------------------------------------------------
# boundary trace


def test_boundary_closed_polygon(lshape):
    bm = boundary_trace(uniform_refine(lshape, 1))
    a, b = bm.endpoints()
    assert np.allclose(b, np.roll(a, -1, axis=0), rtol=0, atol=0)


def test_normals_point_outward(lshape, zshape):
    for mesh in (lshape, uniform_refine(lshape, 1), zshape):
        bm = boundary_trace(mesh)
        a, b = bm.endpoints()
        mid = 0.5 * (a + b)
        centroids = mesh.corners().mean(axis=1)[bm.owner]
        nrm = bm.normals()
        assert (np.einsum("sd,sd->s", nrm, mid - centroids) > 0).all()
        assert np.allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0, rtol=1e-14)
        assert np.allclose(np.einsum("sd,sd->s", nrm, bm.tangents()), 0.0,
                           atol=1e-15)


def test_gauss_points_weights_sum_to_length(lshape):
    bm = boundary_trace(lshape)
    for n in (2, 4, 7):
        pts, wts = bm.gauss_points(n)
        assert pts.shape == (bm.num_segments, n, 2)
        assert np.allclose(wts.sum(axis=1), bm.lengths(), rtol=1e-14)


def _flux(points, normals):
    return np.einsum("nd,nd->n", normals, points) + points[:, 0] ** 2


def _height(points):
    return np.sin(5.0 * points[:, 0]) + points[:, 1]


# every fact a boundary mesh derives: the key it is kept under, and how to ask for it
BOUNDARY_FACTS = {
    "endpoints": BoundaryMesh.endpoints,
    "lengths": BoundaryMesh.lengths,
    "tangents": BoundaryMesh.tangents,
    "normals": BoundaryMesh.normals,
    str(("gauss_points", 2)): lambda bm: bm.gauss_points(2),
    str(("gauss_points", 4)): lambda bm: bm.gauss_points(4),
    str(("gauss_values", _flux, 4, "normals")): lambda bm: bm.gauss_values(_flux, 4),
    str(("gauss_values", _flux, 2, "tangents")):
        lambda bm: bm.gauss_values(_flux, 2, "tangents"),
    str(("vertex_values", _height)): lambda bm: bm.vertex_values(_height),
}


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_facts_are_kept_read_only_and_equal_a_fresh_build(domain, seed):
    """Each fact is built once, shared read-only, and has the bytes of a build on a bare trace."""
    mesh = random_nvb_mesh(domain, seed)
    bm = boundary_trace(mesh)
    kept = {key: derive(bm) for key, derive in reversed(BOUNDARY_FACTS.items())}
    assert derived_facts(bm) == sorted(BOUNDARY_FACTS)
    for key, derive in BOUNDARY_FACTS.items():
        assert derive(bm) is kept[key], key
        bare = boundary_trace(Mesh(mesh.vertices, mesh.triangles, mesh.father))
        fresh = derive(bare)                     # the first fact this copy derives
        got_arrays = kept[key] if isinstance(kept[key], tuple) else (kept[key],)
        ref_arrays = fresh if isinstance(fresh, tuple) else (fresh,)
        for got, ref in zip(got_arrays, ref_arrays, strict=True):
            assert not got.flags.writeable, key
            assert got.dtype == ref.dtype and got.shape == ref.shape, key
            assert got.tobytes() == ref.tobytes(), key
    # the formulas each fact stands for
    p = mesh.vertices
    a, b = p[bm.segments[:, 0]], p[bm.segments[:, 1]]
    t = b - a
    assert np.array_equal(bm.endpoints()[0], a) and np.array_equal(bm.endpoints()[1], b)
    assert bm.lengths().tobytes() == np.linalg.norm(t, axis=1).tobytes()
    assert bm.tangents().tobytes() == (t / np.linalg.norm(t, axis=1)[:, None]).tobytes()
    pts, _ = bm.gauss_points(4)
    nrm = np.repeat(bm.normals()[:, None, :], 4, axis=1)
    assert bm.gauss_values(_flux, 4).tobytes() == _flux(
        pts.reshape(-1, 2), nrm.reshape(-1, 2)).tobytes()
    assert bm.vertex_values(_height).tobytes() == _height(p[bm.boundary_vertices]).tobytes()


def test_trace_of_refinement_is_refinement_of_trace(lshape, rng):
    mesh = lshape
    bm = boundary_trace(mesh)
    marked = rng.choice(mesh.num_triangles, size=4, replace=False)
    msegs = rng.choice(bm.num_segments, size=2, replace=False)
    fine, rel = refine_nvb(mesh, marked, marked_segments=msegs, bmesh=bm)
    bmf = boundary_trace(fine)

    def segment_set(b):
        a, bb = b.endpoints()
        return {tuple(np.round(np.concatenate([p, q]), 13))
                for p, q in zip(a, bb)}

    # the segment genealogy reproduces exactly the segments of the fine trace
    af, bf = bmf.endpoints()
    from_relation = set()
    for sons in rel.seg_sons:
        for s in sons:
            from_relation.add(tuple(np.round(np.concatenate([af[s], bf[s]]), 13)))
    assert from_relation == segment_set(bmf)


def test_segment_genealogy_lengths(lshape, rng):
    mesh = lshape
    bm = boundary_trace(mesh)
    fine, rel = refine_nvb(mesh, np.arange(mesh.num_triangles),
                           marked_segments=np.arange(bm.num_segments), bmesh=bm)
    bmf = boundary_trace(fine)
    for k, sons in enumerate(rel.seg_sons):
        assert len(sons) >= 2  # explicitly marked
        assert abs(bmf.lengths()[sons].sum() - bm.lengths()[k]) < 1e-15
    assert np.array_equal(rel.seg_father[np.concatenate(rel.seg_sons)],
                          np.repeat(np.arange(bm.num_segments),
                                    [len(s) for s in rel.seg_sons]))


def test_marked_segments_split(lshape):
    bm = boundary_trace(lshape)
    fine, rel = refine_nvb(lshape, np.zeros(0, dtype=int),
                           marked_segments=np.array([3]), bmesh=bm)
    assert len(rel.seg_sons[3]) == 2
    validate(fine)


@pytest.mark.parametrize("ids", [[-1], [0, 8], [3, 100]])
@pytest.mark.parametrize("pass_trace", [False, True])
def test_marked_segment_ids_out_of_range_are_rejected(lshape, ids, pass_trace):
    """Segment ids get the range check of element ids: no wrap-around, no bare IndexError."""
    bm = boundary_trace(lshape)
    assert bm.num_segments == 8
    with pytest.raises(ValueError, match="marked segment id out of range"):
        refine_nvb(lshape, (), marked_segments=ids, bmesh=bm if pass_trace else None)


# ---------------------------------------------------------------------------
# shape regularity


def test_shape_regularity_unit_right_triangle():
    assert abs(shape_regularity(single_triangle()) - 2.0) < 1e-14


def test_shape_regularity_constant_under_uniform_refinement(lshape):
    mesh = lshape
    sigma0 = shape_regularity(mesh)
    assert abs(sigma0 - 2.0) < 1e-12
    for _ in range(4):
        mesh = uniform_refine(mesh, 1)
        assert abs(shape_regularity(mesh) - sigma0) < 1e-12


def test_shape_regularity_1000_random_refinements(lshape):
    rng = np.random.default_rng(0)
    sigma0 = shape_regularity(lshape)
    worst = 0.0
    for _ in range(40):
        mesh = lshape
        for _ in range(25):
            k = int(rng.integers(1, 9))
            marked = rng.choice(mesh.num_triangles,
                                size=min(k, mesh.num_triangles), replace=False)
            mesh, _ = refine_nvb(mesh, marked)
            worst = max(worst, shape_regularity(mesh))
    # NVB keeps every element similar to the right-isosceles roots
    assert worst <= sigma0 + 1e-9


# ---------------------------------------------------------------------------
# structure / explicit bookkeeping


def test_edge_structure_consistency(lshape):
    mesh = uniform_refine(lshape, 1)
    edges, tri2edge, edge2tri = mesh.edge_structure()
    assert (edges[:, 0] < edges[:, 1]).all()
    # each edge row of tri2edge matches the local edge (t[k], t[k+1])
    for t, tri in enumerate(mesh.triangles):
        for k in range(3):
            pair = sorted((tri[k], tri[(k + 1) % 3]))
            assert edges[tri2edge[t, k]].tolist() == pair
    counts = np.bincount(tri2edge.ravel(), minlength=len(edges))
    interior = edge2tri[:, 1] >= 0
    assert (counts[interior] == 2).all()
    assert (counts[~interior] == 1).all()


def test_vertex_prolongation_matrix_structure(lshape):
    fine, rel = refine_nvb(lshape, np.arange(12))
    P = vertex_prolongation_matrix(rel.new_vertex_parents, lshape.num_vertices)
    nvc, nvf = lshape.num_vertices, fine.num_vertices
    assert P.shape == (nvf, nvc)
    dense = P.toarray()
    assert np.array_equal(dense[:nvc], np.eye(nvc))
    for i, (pa, pb) in enumerate(rel.new_vertex_parents):
        row = dense[nvc + i]
        assert row[pa] == 0.5 and row[pb] == 0.5
        assert row.sum() == 1.0


def test_edge_structure_is_cached_and_read_only(lshape):
    mesh = uniform_refine(lshape, 1)
    first = mesh.edge_structure()
    assert mesh.edge_structure() is first
    for arr in first:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_dropped_derived_facts_are_built_again(lshape):
    mesh = uniform_refine(lshape, 1)
    first = [mesh.edge_structure(), mesh.corners(), mesh.areas()]
    assert derived_facts(mesh) == ["areas", "corners", "edge_structure"]
    mesh.drop_derived()
    assert derived_facts(mesh) == []
    again = [mesh.edge_structure(), mesh.corners(), mesh.areas()]
    for old, new in zip(first, again):
        assert new is not old
    assert all(np.array_equal(a, b) for a, b in zip(first[0], again[0]))
    assert all(np.array_equal(a, b) for a, b in zip(first[1:], again[1:]))


def _edge_structure_by_unique_rows(mesh):
    """Edges and incidences from ``np.unique`` over the sorted vertex pairs."""
    t = mesh.triangles
    raw = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1).reshape(-1, 2)
    edges, tri2edge = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    tri2edge = tri2edge.reshape(-1, 3)
    edge2tri = np.full((len(edges), 2), -1, dtype=np.int64)
    for tri, row in enumerate(tri2edge):
        for e in row:
            edge2tri[e, 0 if edge2tri[e, 0] < 0 else 1] = tri
    return edges, tri2edge, edge2tri


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
@pytest.mark.parametrize("seed", range(10))
def test_edge_structure_equals_the_unique_rows_reference(domain, seed):
    mesh = random_nvb_mesh(domain, seed)
    for got, ref in zip(mesh.edge_structure(), _edge_structure_by_unique_rows(mesh)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_edge_structure_rejects_nonconforming_mesh_on_every_call():
    # three triangles sharing the edge 0--1
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]]),
                np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-conforming"):
            mesh.edge_structure()


def _genealogy_by_loops(coarse, bm, fine, fine_trace):
    """Fathers and sons found by geometry, one element or segment at a time."""
    p = coarse.corners()
    inv = np.linalg.inv(np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2))
    father = np.empty(fine.num_triangles, dtype=np.int64)
    for s, x in enumerate(fine.corners().mean(axis=1)):
        lam = np.einsum("tij,tj->ti", inv, x - p[:, 0])
        inside = (lam.min(axis=1) > 0) & (lam.sum(axis=1) < 1)
        (father[s],) = np.flatnonzero(inside)
    tri_sons = [np.flatnonzero(father == t) for t in range(coarse.num_triangles)]
    lookup = {(int(a), int(b)): k for k, (a, b) in enumerate(fine_trace.segments)}
    seg_sons = []
    seg_father = np.empty(fine_trace.num_segments, dtype=np.int64)
    for k, (v0, v1) in enumerate(bm.segments.tolist()):
        if (v0, v1) in lookup:
            sons = [lookup[(v0, v1)]]
        else:
            mid = 0.5 * (fine.vertices[v0] + fine.vertices[v1])
            (m,) = np.flatnonzero((fine.vertices == mid).all(axis=1))
            sons = [lookup[(v0, int(m))], lookup[(int(m), v1)]]
        seg_sons.append(np.array(sons, dtype=np.int64))
        seg_father[sons] = k
    return father, tri_sons, seg_sons, seg_father


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
def test_refinement_relation_matches_loop_reference(domain):
    """The fine walk, its genealogy and the element sons against a geometric search.

    Odd steps mark boundary segments too; every fourth marks the last
    one, whose sons meet segment 0 across the end of the walk.
    """
    rng = np.random.default_rng(7)
    mesh = make_initial_mesh(domain)
    bm = boundary_trace(mesh)
    for step in range(12):
        marked = rng.choice(mesh.num_triangles, size=1 + mesh.num_triangles // 5,
                            replace=False)
        msegs = (rng.choice(bm.num_segments, size=2, replace=False)
                 if step % 2 else ())
        if step % 4 == 3:
            msegs = np.append(msegs, bm.num_segments - 1)
        fine, rel = refine_nvb(mesh, marked, marked_segments=msegs, bmesh=bm)
        ref = boundary_trace(fine)
        assert rel.fine_trace.mesh is fine
        for name in ("segments", "owner", "owner_edge", "boundary_vertices"):
            assert getattr(rel.fine_trace, name).tobytes() == getattr(ref, name).tobytes()
        father, tri_sons, seg_sons, seg_father = _genealogy_by_loops(mesh, bm, fine, ref)
        if step % 4 == 3:
            assert len(seg_sons[-1]) == 2 and seg_sons[-1][-1] == ref.num_segments - 1
        assert np.array_equal(fine.father, father)
        assert len(rel.tri_sons) == len(tri_sons)
        assert all(np.array_equal(a, b) for a, b in zip(rel.tri_sons, tri_sons))
        assert len(rel.seg_sons) == len(seg_sons)
        assert all(np.array_equal(a, b) for a, b in zip(rel.seg_sons, seg_sons))
        assert np.array_equal(rel.seg_father, seg_father)
        mesh, bm = fine, rel.fine_trace


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=11), max_size=12),
       st.lists(st.integers(min_value=0, max_value=7), max_size=8))
def test_random_marking_properties(marked, msegs):
    mesh = make_initial_mesh("lshape")
    bm = boundary_trace(mesh)
    fine, rel = refine_nvb(mesh, np.unique(marked).astype(int),
                           marked_segments=np.unique(msegs).astype(int),
                           bmesh=bm)
    validate(fine)
    assert abs(fine.areas().sum() - mesh.areas().sum()) < 1e-12
    assert abs(shape_regularity(fine) - 2.0) < 1e-9
    for t in np.unique(marked):
        assert len(rel.tri_sons[int(t)]) >= 2
    for s in np.unique(msegs):
        assert len(rel.seg_sons[int(s)]) >= 2
