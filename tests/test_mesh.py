import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermofem.mesh import (ARC_RADIUS, Mesh, MeshFormatError, X_LEFT, Y_HALF,
                            focused_domain_contains, focused_domain_mesh, load_mesh,
                            mirror_vertex_map, save_mesh, unit_square_mesh)

# analytic area of the focused domain: slab of width 0.06 joined with the
# circular cap right of x1 = 0.03 (the slab corners lie exactly on the arc)
CAP_AREA = ARC_RADIUS**2 * math.acos(0.6) - 0.03 * 0.04
FOCUSED_AREA = 0.06 * 0.08 + CAP_AREA


class TestUnitSquare:
    def test_smallest(self):
        m = unit_square_mesh(1)
        assert m.n_vertices == 4
        assert m.n_triangles == 2

    def test_counts_n2(self):
        m = unit_square_mesh(2)
        assert m.n_vertices == 9
        assert m.n_triangles == 8

    def test_counts_n64(self):
        m = unit_square_mesh(64)
        assert m.n_triangles == 8192
        assert m.h_max == pytest.approx(math.sqrt(2.0) / 64, rel=1e-14)

    @given(st.integers(min_value=1, max_value=16))
    def test_counting_formulas(self, n):
        m = unit_square_mesh(n)
        assert m.n_vertices == (n + 1) ** 2
        assert m.n_triangles == 2 * n * n
        assert m.h_max == pytest.approx(math.sqrt(2.0) / n, rel=1e-14)

    @given(st.integers(min_value=1, max_value=12))
    def test_refinement_halves_h(self, n):
        assert unit_square_mesh(2 * n).h_max == pytest.approx(
            unit_square_mesh(n).h_max / 2, rel=1e-14)

    def test_area_is_one(self):
        m = unit_square_mesh(7)
        assert m.areas().sum() == pytest.approx(1.0, rel=1e-13)

    def test_boundary_vertices_are_geometric(self):
        m = unit_square_mesh(5)
        onb = np.zeros(m.n_vertices, dtype=bool)
        onb[list(m.boundary_vertices)] = True
        v = m.vertices
        geometric = (np.isclose(v, 0.0, atol=1e-10) | np.isclose(v, 1.0, atol=1e-10)).any(axis=1)
        assert np.array_equal(onb, geometric)

    def test_all_triangles_ccw(self):
        m = unit_square_mesh(3)
        assert (m.areas() > 0).all()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_square_mesh(0)


class TestFocusedDomain:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            focused_domain_mesh(0.0)
        with pytest.raises(ValueError):
            focused_domain_mesh(-1e-3)
        with pytest.raises(ValueError):
            focused_domain_mesh(0.05)

    def test_vertices_inside_domain(self):
        m = focused_domain_mesh(3e-3)
        assert focused_domain_contains(m.vertices).all()

    def test_arc_vertices_snapped(self):
        m = focused_domain_mesh(2.5e-3)
        r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
        arc = r > ARC_RADIUS - 1e-6
        assert arc.any()
        assert np.abs(r[arc] - ARC_RADIUS).max() <= 1e-12

    def test_h_max_bound(self):
        for h in (4e-3, 1.5e-3):
            m = focused_domain_mesh(h)
            assert m.h_max <= 2.0 * h

    def test_production_element_count_band(self):
        m = focused_domain_mesh(7.6e-4)
        assert 38912 * 0.75 <= m.n_triangles <= 38912 * 1.25

    def test_triangle_areas_partition_boundary_polygon(self):
        # triangle areas must tile the polygon spanned by the boundary loop
        m = focused_domain_mesh(3e-3)
        total = m.areas().sum()
        poly = _boundary_polygon_area(m)
        assert total == pytest.approx(poly, rel=1e-10)

    def test_area_approaches_smooth_domain(self):
        # polygonal arc cuts O((h/R)^2) of the area, always from below
        for h in (4e-3, 2e-3):
            m = focused_domain_mesh(h)
            deficit = (FOCUSED_AREA - m.areas().sum()) / FOCUSED_AREA
            assert 0.0 < deficit <= (h / ARC_RADIUS) ** 2

    def test_mirror_symmetry_exact(self):
        m = focused_domain_mesh(3e-3)
        perm = mirror_vertex_map(m)
        assert np.array_equal(m.vertices[perm][:, 0], m.vertices[:, 0])
        assert np.array_equal(m.vertices[perm][:, 1], -m.vertices[:, 1])
        assert (perm[perm] == np.arange(m.n_vertices)).all()

    def test_boundary_vertices_are_geometric(self):
        m = focused_domain_mesh(3e-3)
        v = m.vertices
        r = np.hypot(v[:, 0], v[:, 1])
        geometric = (
            np.isclose(v[:, 0], X_LEFT, atol=1e-10)
            | np.isclose(np.abs(v[:, 1]), Y_HALF, atol=1e-10)
            | np.isclose(r, ARC_RADIUS, atol=1e-10)
        )
        onb = np.zeros(m.n_vertices, dtype=bool)
        onb[list(m.boundary_vertices)] = True
        assert np.array_equal(onb, geometric)


def _boundary_polygon_area(mesh):
    """Shoelace area of the polygon formed by the boundary edge loop."""
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key in edges:
                del edges[key]
            else:
                edges[key] = (a, b)  # oriented as in the (ccw) triangle
    nxt = {a: b for a, b in edges.values()}
    start = next(iter(nxt))
    loop = [start]
    while True:
        cur = nxt[loop[-1]]
        if cur == start:
            break
        loop.append(cur)
    assert len(loop) == len(nxt)
    v = mesh.vertices[loop]
    x, y = v[:, 0], v[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


class TestMeshValidation:
    def test_rejects_clockwise_triangle(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Mesh(verts, np.array([[0, 2, 1]]))

    def test_rejects_bad_index(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Mesh(verts, np.array([[0, 1, 3]]))

    def test_rejects_repeated_vertex(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Mesh(verts, np.array([[0, 1, 1]]))

    def test_h_max_recomputable(self):
        m = unit_square_mesh(3)
        longest = 0.0
        for tri in m.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                d = np.linalg.norm(m.vertices[tri[a]] - m.vertices[tri[b]])
                longest = max(longest, d)
        assert m.h_max == pytest.approx(longest, rel=1e-14)

    def test_immutable_arrays(self):
        m = unit_square_mesh(2)
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0


class TestNativeFormat:
    def test_roundtrip(self, tmp_path):
        m = unit_square_mesh(4)
        p = tmp_path / "m.csv"
        save_mesh(m, p)
        m2 = load_mesh(p)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.boundary_vertices, m2.boundary_vertices)

    def test_single_triangle(self, tmp_path):
        p = tmp_path / "tri.csv"
        p.write_text("#vertices 3\n0,0\n1,0\n0,1\n#triangles 1\n0,1,2\n")
        m = load_mesh(p)
        assert m.n_triangles == 1
        assert set(m.boundary_vertices.tolist()) == {0, 1, 2}

    def test_clockwise_reoriented(self, tmp_path):
        p = tmp_path / "cw.csv"
        p.write_text("#vertices 3\n0,0\n1,0\n0,1\n#triangles 1\n0,2,1\n")
        m = load_mesh(p)
        assert (m.areas() > 0).all()

    def test_degenerate_triangle_errors_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#vertices 3\n0,0\n1,0\n2,0\n#triangles 1\n0,1,2\n")
        with pytest.raises(MeshFormatError) as exc:
            load_mesh(p)
        assert ":6:" in str(exc.value) or ":6 " in str(exc.value) or "6" in str(exc.value)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#vertices x\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)
