"""Snapshot writer tests: VTK legacy ASCII structure and the CSV dump.

The VTK files are checked against a minimal reference reader written here
from the legacy-format rules, and round-tripped against the CSV path.
"""
import numpy as np
import pytest

from thermofem import output
from thermofem.fem import FEFunction, build_space
from thermofem.mesh import Mesh, unit_square_mesh
from thermofem.output import write_snapshot_csv, write_vtk


def one_triangle_mesh():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def read_vtk(path):
    """Minimal legacy-VTK reader: points, cells, and named point arrays."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    tag, n_points, kind = lines[4].split()
    assert tag == "POINTS" and kind == "double"
    n_points = int(n_points)
    pos = 5
    points = np.array([[float(v) for v in lines[pos + i].split()]
                       for i in range(n_points)])
    pos += n_points
    tag, n_cells, list_len = lines[pos].split()
    assert tag == "CELLS"
    n_cells, list_len = int(n_cells), int(list_len)
    assert list_len == 4 * n_cells
    pos += 1
    cells = []
    for i in range(n_cells):
        entry = [int(v) for v in lines[pos + i].split()]
        assert entry[0] == 3
        cells.append(entry[1:])
    pos += n_cells
    assert lines[pos].split() == ["CELL_TYPES", str(n_cells)]
    pos += 1
    assert all(lines[pos + i] == "5" for i in range(n_cells))
    pos += n_cells
    assert lines[pos].split() == ["POINT_DATA", str(n_points)]
    pos += 1
    arrays = {}
    while pos < len(lines) and lines[pos]:
        tag, name, kind, comps = lines[pos].split()
        assert (tag, kind, comps) == ("SCALARS", "double", "1")
        assert lines[pos + 1] == "LOOKUP_TABLE default"
        pos += 2
        arrays[name] = np.array([float(lines[pos + i]) for i in range(n_points)])
        pos += n_points
    return points, np.array(cells), arrays


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0] == "x1,x2,u,theta"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return rows


def fields_on(space, rng):
    u = FEFunction(space, rng.standard_normal(space.n_dofs))
    theta = FEFunction(space, rng.standard_normal(space.n_dofs))
    return u, theta


class TestVtkStructure:
    def test_one_triangle_layout(self, tmp_path):
        space = build_space(one_triangle_mesh(), 1)
        u = FEFunction(space, np.array([1.0, 2.0, 3.0]))
        theta = FEFunction(space, np.array([-1.0, 0.0, 0.5]))
        path = tmp_path / "snap.vtk"
        write_vtk(path, [("pressure", u), ("temperature", theta)])

        points, cells, arrays = read_vtk(path)
        assert len(points) == 3
        assert cells.shape == (1, 3)
        assert list(arrays) == ["pressure", "temperature"]
        assert np.all(points[:, 2] == 0.0)
        np.testing.assert_array_equal(points[:, :2], space.mesh.vertices)
        np.testing.assert_array_equal(arrays["pressure"], u.values)
        np.testing.assert_array_equal(arrays["temperature"], theta.values)

    def test_exact_lines_one_triangle(self, tmp_path):
        space = build_space(one_triangle_mesh(), 1)
        u = FEFunction(space, np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "snap.vtk"
        write_vtk(path, [("pressure", u)], title="single cell")
        expected = [
            "# vtk DataFile Version 2.0",
            "single cell",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            "POINTS 3 double",
            "0 0 0",
            "1 0 0",
            "0 1 0",
            "CELLS 1 4",
            "3 0 1 2",
            "CELL_TYPES 1",
            "5",
            "POINT_DATA 3",
            "SCALARS pressure double 1",
            "LOOKUP_TABLE default",
            "1",
            "2",
            "3",
        ]
        assert path.read_text().splitlines() == expected

    def test_linear_counts_follow_mesh(self, tmp_path, rng):
        mesh = unit_square_mesh(3)
        space = build_space(mesh, 1)
        u, theta = fields_on(space, rng)
        path = tmp_path / "snap.vtk"
        write_vtk(path, [("pressure", u), ("temperature", theta)])
        points, cells, _ = read_vtk(path)
        assert len(points) == mesh.n_vertices
        assert len(cells) == mesh.n_triangles

    @pytest.mark.parametrize("degree", [2, 3])
    def test_higher_order_refined_counts(self, tmp_path, rng, degree):
        # quadratic and cubic fields are plotted on the once-refined
        # subtriangulation: 4x the cells, vertices plus edge midpoints
        mesh = unit_square_mesh(2)
        # Euler: V - E + T = 1 for a disk, so E = V + T - 1
        n_edges = mesh.n_vertices + mesh.n_triangles - 1
        space = build_space(mesh, degree)
        u, theta = fields_on(space, rng)
        path = tmp_path / "snap.vtk"
        write_vtk(path, [("pressure", u), ("temperature", theta)])
        points, cells, _ = read_vtk(path)
        assert len(cells) == 4 * mesh.n_triangles
        assert len(points) == mesh.n_vertices + n_edges

    def test_cells_index_valid_points(self, tmp_path, rng):
        space = build_space(unit_square_mesh(2), 2)
        u, theta = fields_on(space, rng)
        path = tmp_path / "snap.vtk"
        write_vtk(path, [("pressure", u), ("temperature", theta)])
        points, cells, _ = read_vtk(path)
        assert cells.min() >= 0 and cells.max() < len(points)
        # every child triangle has positive area after the even split
        p = points[:, :2]
        a, b, c = p[cells[:, 0]], p[cells[:, 1]], p[cells[:, 2]]
        areas = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                             - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
        assert areas.min() > 0.0
        assert areas.sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_empty_and_mixed_spaces(self, tmp_path, rng):
        mesh = unit_square_mesh(2)
        s1 = build_space(mesh, 1)
        s2 = build_space(mesh, 2)
        with pytest.raises(ValueError, match="at least one"):
            write_vtk(tmp_path / "e.vtk", [])
        with pytest.raises(ValueError, match="different space"):
            write_vtk(tmp_path / "m.vtk",
                      [("pressure", FEFunction(s1, np.zeros(s1.n_dofs))),
                       ("temperature", FEFunction(s2, np.zeros(s2.n_dofs)))])


class TestRoundTrip:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_vtk_matches_csv_at_dof_points(self, tmp_path, rng, degree):
        # the refined plot points for degree 2 coincide with dof points, so
        # every CSV row must reappear in the VTK point data; for degrees 1
        # and 3 the shared points are the vertices (plus midpoints for 2)
        space = build_space(unit_square_mesh(3), degree)
        u, theta = fields_on(space, rng)
        write_vtk(tmp_path / "s.vtk", [("pressure", u), ("temperature", theta)])
        write_snapshot_csv(tmp_path / "s.csv", u, theta)

        points, _, arrays = read_vtk(tmp_path / "s.vtk")
        vtk_at = {(f"{x:.14g}", f"{y:.14g}"): (arrays["pressure"][i],
                                               arrays["temperature"][i])
                  for i, (x, y, _) in enumerate(points)}
        rows = read_csv(tmp_path / "s.csv")
        hits = 0
        for x, y, uv, tv in rows:
            key = (f"{x:.14g}", f"{y:.14g}")
            if key not in vtk_at:
                continue
            got_u, got_t = vtk_at[key]
            assert abs(got_u - uv) <= 1e-12 * max(1.0, abs(uv))
            assert abs(got_t - tv) <= 1e-12 * max(1.0, abs(tv))
            hits += 1
        assert hits >= space.mesh.n_vertices

    def test_quadratic_dofs_fully_recovered(self, tmp_path, rng):
        space = build_space(unit_square_mesh(3), 2)
        u, theta = fields_on(space, rng)
        write_vtk(tmp_path / "s.vtk", [("pressure", u), ("temperature", theta)])
        points, _, arrays = read_vtk(tmp_path / "s.vtk")
        assert len(points) == space.n_dofs
        vtk_at = {(f"{x:.14g}", f"{y:.14g}"): arrays["pressure"][i]
                  for i, (x, y, _) in enumerate(points)}
        for i, (x, y) in enumerate(space.dof_coords):
            got = vtk_at[(f"{x:.14g}", f"{y:.14g}")]
            assert abs(got - u.values[i]) <= 1e-12 * max(1.0, abs(u.values[i]))

    def test_seventeen_digits_round_trip(self, tmp_path):
        space = build_space(one_triangle_mesh(), 1)
        vals = np.array([1.0 / 3.0, np.pi * 1e-7, -2.0 / 7.0])
        u = FEFunction(space, vals.copy())
        theta = FEFunction(space, np.array([1e-300, 123456.789012345678, -0.1]))
        write_vtk(tmp_path / "s.vtk", [("pressure", u), ("temperature", theta)])
        write_snapshot_csv(tmp_path / "s.csv", u, theta)
        _, _, arrays = read_vtk(tmp_path / "s.vtk")
        np.testing.assert_array_equal(arrays["pressure"], u.values)
        np.testing.assert_array_equal(arrays["temperature"], theta.values)
        rows = read_csv(tmp_path / "s.csv")
        np.testing.assert_array_equal(rows[:, 2], u.values)
        np.testing.assert_array_equal(rows[:, 3], theta.values)

    def test_writes_are_deterministic(self, tmp_path, rng):
        space = build_space(unit_square_mesh(2), 2)
        u, theta = fields_on(space, rng)
        for name in ("a", "b"):
            write_vtk(tmp_path / f"{name}.vtk",
                      [("pressure", u), ("temperature", theta)])
            write_snapshot_csv(tmp_path / f"{name}.csv", u, theta)
        assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCsv:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_row_count_is_dof_count(self, tmp_path, rng, degree):
        space = build_space(unit_square_mesh(2), degree)
        u, theta = fields_on(space, rng)
        write_snapshot_csv(tmp_path / "s.csv", u, theta)
        rows = read_csv(tmp_path / "s.csv")
        assert len(rows) == space.n_dofs
        np.testing.assert_array_equal(rows[:, :2], space.dof_coords)
        np.testing.assert_array_equal(rows[:, 2], u.values)
        np.testing.assert_array_equal(rows[:, 3], theta.values)

    def test_rejects_mismatched_spaces(self, tmp_path):
        mesh = unit_square_mesh(2)
        s1, s2 = build_space(mesh, 1), build_space(mesh, 2)
        u = FEFunction(s1, np.zeros(s1.n_dofs))
        theta = FEFunction(s2, np.zeros(s2.n_dofs))
        with pytest.raises(ValueError, match="different spaces"):
            write_snapshot_csv(tmp_path / "s.csv", u, theta)


def per_row_vtk(fields, title="coupled wave/heat snapshot"):
    """The VTK text formatted one row at a time, one f-string per line."""
    space = fields[0][1].space
    points, cells, ids, bary = output._plot_geometry(space)
    lines = ["# vtk DataFile Version 2.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {len(points)} double"]
    lines.extend(f"{p[0]:.17g} {p[1]:.17g} 0" for p in points)
    lines.append(f"CELLS {len(cells)} {4 * len(cells)}")
    lines.extend(f"3 {t[0]} {t[1]} {t[2]}" for t in cells)
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend("5" for _ in range(len(cells)))
    lines.append(f"POINT_DATA {len(points)}")
    for name, f in fields:
        vals = output._sample(space, ids, bary, f.values, len(points))
        lines.extend([f"SCALARS {name} double 1", "LOOKUP_TABLE default"])
        lines.extend(f"{v:.17g}" for v in vals)
    return "\n".join(lines) + "\n"


def per_row_csv(u, theta):
    """The CSV text formatted one row at a time, one f-string per line."""
    c = u.space.dof_coords
    lines = ["x1,x2,u,theta"]
    lines.extend(f"{c[i, 0]:.17g},{c[i, 1]:.17g},{u.values[i]:.17g},{theta.values[i]:.17g}"
                 for i in range(len(c)))
    return "\n".join(lines) + "\n"


class TestBlockFormatting:
    """The writers format whole blocks with one %; the bytes are those of
    per-row formatting, special values included."""

    @pytest.mark.parametrize("degree", [1, 2], ids=["p1", "p2-subtriangulated"])
    def test_bytes_equal_per_row_formatting(self, tmp_path, rng, degree):
        space = build_space(unit_square_mesh(3), degree)
        u, theta = fields_on(space, rng)
        u.values *= 10.0 ** rng.integers(-300, 300, space.n_dofs)
        special = [0.0, -0.0, 1e-310, -1e300, 0.1, 1.0 / 3.0, np.inf, -np.inf, np.nan]
        theta.values[:len(special)] = special
        fields = [("pressure", u), ("temperature", theta)]
        with np.errstate(invalid="ignore"):  # sampling inf and nan
            write_vtk(tmp_path / "s.vtk", fields)
            expected = per_row_vtk(fields)
        write_snapshot_csv(tmp_path / "s.csv", u, theta)
        assert (tmp_path / "s.vtk").read_bytes() == expected.encode()
        assert (tmp_path / "s.csv").read_bytes() == per_row_csv(u, theta).encode()
