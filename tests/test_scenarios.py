"""Scenario tests: pulse/source field formulas, configuration rules, and
reduced-resolution physics checks on the focused-transducer runs.

The two packaged runs are exercised on an h = 3 mm mesh (about 2900
triangles) instead of the sub-millimetre default, which keeps the module
under a minute while preserving the qualitative behaviour the full runs
show: mirror symmetry about the axis, heating concentrated near the focus,
and less heating when the drive frequency drops.
"""
import json
import math
import os

import numpy as np
import pytest

from thermofem.mesh import mirror_vertex_map
from thermofem.scenarios import (APERTURE_HALF_ANGLE, ScenarioConfig, TRANSDUCER_RADIUS,
                                 example2_initial_data, example3_source, run_scenario)

R0 = TRANSDUCER_RADIUS
HALF_ANGLE = APERTURE_HALF_ANGLE

# velocity pulse at the transducer edge on the axis: the radial envelope
# 3*pi*exp(-3*pi) survives and cos(15*pi) flips the sign
EDGE_VELOCITY = 1.0e6 * 3.0 * math.pi * math.exp(-3.0 * math.pi) * math.cos(15.0 * math.pi)


def driven_source(*args):
    """example3_source as a function (x, t) -> wave source values at x."""
    evaluator = example3_source(*args)
    return lambda x, t: evaluator(np.asarray(x, dtype=np.float64))(t)[0]


def polar_points(r, theta):
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


@pytest.fixture(scope="module")
def ex2_coarse(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex2_coarse")
    result = run_scenario(ScenarioConfig(example=2, h=3e-3), output_dir=str(out))
    return result, str(out)


@pytest.fixture(scope="module")
def ex3_coarse():
    return run_scenario(ScenarioConfig(example=3, h=3e-3, snapshots=()))


@pytest.fixture(scope="module")
def ex3_low_frequency():
    return run_scenario(ScenarioConfig(example=3, h=3e-3, snapshots=(),
                                       source_frequency=1.0e4))


class TestPulseFields:
    def test_vanish_at_center(self):
        g0, g1, theta0 = example2_initial_data()
        f0 = driven_source()
        origin = np.zeros(2)
        assert g0.value(origin) == 0.0
        assert g1.value(origin) == 0.0
        assert f0(origin, 0.0) == 0.0
        assert theta0.value(origin) == 0.0

    def test_zero_outside_support(self, rng):
        g0, g1, _ = example2_initial_data()
        f0 = driven_source()
        r_far = rng.uniform(R0 * 1.0001, 0.1, 40)
        th_far = rng.uniform(-np.pi, np.pi, 40)
        behind = polar_points(rng.uniform(0.0, R0, 40),
                              rng.uniform(HALF_ANGLE * 1.0001, np.pi, 40)
                              * rng.choice([-1.0, 1.0], 40))
        pts = np.vstack([polar_points(r_far, th_far), behind])
        for field in (g0, g1):
            assert np.all(field.value(pts) == 0.0)
        assert np.all(f0(pts, 0.3e-5) == 0.0)

    def test_cutoff_continuity(self, rng):
        # field values sampled on the cutoff curves themselves; the
        # velocity pulse is checked on the angular cutoff only, since its
        # radial profile steps at r0 by design (see the edge-value test)
        g0, g1, _ = example2_initial_data()
        f0 = driven_source()
        r = rng.uniform(0.0, R0, 50)
        sign = rng.choice([-1.0, 1.0], 50)
        angular = polar_points(r, sign * HALF_ANGLE)
        radial = polar_points(np.full(50, R0), rng.uniform(-HALF_ANGLE, HALF_ANGLE, 50))
        both = np.vstack([angular, radial])
        assert np.max(np.abs(g0.value(both))) <= 1e-9 * 1.0e6
        assert np.max(np.abs(g1.value(angular))) <= 1e-9 * 1.0e6
        assert np.max(np.abs(f0(both, 0.0))) <= 1e-9 * 1.0e12

    def test_pressure_pulse_edge_value(self):
        g0, g1, _ = example2_initial_data()
        edge = np.array([R0, 0.0])
        # sin(15*pi) kills the pressure pulse at the edge; the velocity
        # pulse keeps the full envelope with a sign flip from cos(15*pi)
        assert abs(g0.value(edge)) <= 1e-7
        assert g1.value(edge) == pytest.approx(EDGE_VELOCITY, rel=1e-12)
        assert g1.value(edge) == pytest.approx(-760.575, abs=0.001)

    def test_velocity_pulse_steps_at_radial_cutoff(self):
        _, g1, _ = example2_initial_data()
        inside = g1.value(np.array([R0 * (1.0 - 1e-9), 0.0]))
        outside = g1.value(np.array([R0 * (1.0 + 1e-9), 0.0]))
        assert outside == 0.0
        assert inside == pytest.approx(EDGE_VELOCITY, rel=1e-4)

    def test_axis_formulas_match(self, rng):
        g0, g1, _ = example2_initial_data()
        r = rng.uniform(0.0, R0, 200)
        th = rng.uniform(-HALF_ANGLE, HALF_ANGLE, 200)
        pts = polar_points(r, th)
        s = 3.0 * np.pi * r / R0
        envelope = 1.0e6 * np.cos(1.75 * th) * s * np.exp(-s)
        np.testing.assert_allclose(g0.value(pts),
                                   envelope * np.sin(15.0 * np.pi * r / R0),
                                   rtol=1e-12, atol=1e-6)
        np.testing.assert_allclose(g1.value(pts),
                                   envelope * np.cos(15.0 * np.pi * r / R0),
                                   rtol=1e-12, atol=1e-6)

    def test_amplitude_scales_linearly(self):
        g0_a, g1_a, _ = example2_initial_data(1.0e6)
        g0_b, g1_b, _ = example2_initial_data(2.5e6)
        pts = polar_points([0.01, 0.02, 0.04], [0.0, 0.3, -0.5])
        np.testing.assert_allclose(g0_b.value(pts), 2.5 * g0_a.value(pts), rtol=1e-14)
        np.testing.assert_allclose(g1_b.value(pts), 2.5 * g1_a.value(pts), rtol=1e-14)

    def test_temperature_starts_at_rest(self, rng):
        _, _, theta0 = example2_initial_data()
        pts = rng.uniform(-0.03, 0.03, size=(100, 2))
        assert np.all(theta0.value(pts) == 0.0)
        assert theta0.value(pts).shape == (100,)
        assert np.all(theta0.gradient(pts) == 0.0)

    def test_gradients_match_finite_differences(self, rng):
        # interior points kept clear of the cutoff curves, where the
        # piecewise gradient is the honest one; h = 1e-7 balances the
        # 1e6-scale values against truncation
        g0, g1, _ = example2_initial_data()
        r = rng.uniform(0.05 * R0, 0.93 * R0, 300)
        th = rng.uniform(-0.93 * HALF_ANGLE, 0.93 * HALF_ANGLE, 300)
        pts = polar_points(r, th)
        h = 1e-7
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        for field in (g0, g1):
            fd = np.stack([(field.value(pts + ex) - field.value(pts - ex)) / (2 * h),
                           (field.value(pts + ey) - field.value(pts - ey)) / (2 * h)],
                          axis=-1)
            grad = field.gradient(pts)
            scale = np.max(np.abs(grad))
            assert np.max(np.abs(grad - fd)) <= 1e-5 * scale

    def test_gradient_zero_outside_support(self, rng):
        g0, g1, _ = example2_initial_data()
        pts = polar_points(rng.uniform(R0 * 1.01, 0.08, 50),
                           rng.uniform(-np.pi, np.pi, 50))
        assert np.all(g0.gradient(pts) == 0.0)
        assert np.all(g1.gradient(pts) == 0.0)
        assert np.all(g0.gradient(np.zeros(2)) == 0.0)


class TestDrivenSource:
    def test_interior_value_at_t0(self):
        f0 = driven_source(1.0e12, 1.0e5)
        r, th = 0.5 * R0, 0.2
        expected = (1.0e12 * math.cos(1.75 * th) * 0.5
                    * (math.exp(-20.0) - math.exp(-40.0)))
        assert f0(polar_points(r, th), 0.0) == pytest.approx(expected, rel=1e-12)

    def test_radial_bracket_vanishes_at_edge(self):
        f0 = driven_source()
        assert f0(np.array([R0, 0.0]), 0.0) == 0.0

    def test_quarter_period_null(self):
        f0 = driven_source(1.0e12, 1.0e5)
        pts = polar_points([0.3 * R0, 0.7 * R0], [0.0, 0.4])
        assert np.max(np.abs(f0(pts, 2.5e-6))) <= 1e-9 * 1.0e12

    def test_full_period_repeats(self):
        f0 = driven_source(1.0e12, 1.0e5)
        pts = polar_points([0.3 * R0, 0.7 * R0], [0.0, -0.4])
        np.testing.assert_allclose(f0(pts, 1.0e-5), f0(pts, 0.0), rtol=1e-9)

    def test_frequency_sets_period(self):
        slow = driven_source(1.0e12, 1.0e4)
        pts = polar_points(0.5 * R0, 0.0)
        assert slow(pts, 2.5e-5) == pytest.approx(0.0, abs=1e-9 * 1.0e12)
        assert slow(pts, 1.0e-4) == pytest.approx(slow(pts, 0.0), rel=1e-9)

    def test_cached_profile_is_bit_identical(self, rng):
        # The profile is tabulated once per point table and rescaled at each
        # time; every call must equal the formula evaluated from scratch,
        # bit for bit, and the heat source is absent.
        amp, freq = 1.0e12, 1.0e5

        def uncached(x, t):
            r = np.hypot(x[..., 0], x[..., 1])
            ang = np.arctan2(x[..., 1], x[..., 0])
            inside = (r <= R0) & (np.abs(ang) <= HALF_ANGLE)
            w = np.where(inside, np.cos(1.75 * ang), 0.0)
            radial = (r / R0) * (np.exp(-40.0 * r / R0) - math.exp(-40.0))
            return amp * w * radial * math.cos(2.0 * math.pi * freq * t)

        evaluator = example3_source(amp, freq)
        for _ in range(2):
            pts = polar_points(rng.uniform(0.0, 1.2 * R0, 64),
                               rng.uniform(-1.2, 1.2, 64) * HALF_ANGLE)
            values = evaluator(pts)
            for t in (1.0e-7, 2.3e-6, 0.0, 1.0e-7):
                got, heat = values(t)
                assert heat is None
                assert np.any(got != 0.0)
                assert np.array_equal(got, uncached(pts, t))


class TestScenarioConfig:
    def test_rejects_unknown_example(self):
        with pytest.raises(ValueError, match="example"):
            ScenarioConfig(example=1)
        with pytest.raises(ValueError, match="example"):
            ScenarioConfig(example=4)

    def test_rejects_bad_mesh_size(self):
        for h in (-1.0, 0.0, 0.05, float("nan")):
            with pytest.raises(ValueError, match="h must lie"):
                ScenarioConfig(example=2, h=h)

    def test_rejects_bad_fixed_point_settings(self):
        with pytest.raises(ValueError, match="tolerance"):
            ScenarioConfig(example=2, fp_tol=5.0)
        with pytest.raises(ValueError, match="max_iter"):
            ScenarioConfig(example=2, fp_max_iter=0)
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            ScenarioConfig(example=2, fp_max_iter=2.5)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            ScenarioConfig(example=2, degree=0)
        with pytest.raises(ValueError, match="degree"):
            ScenarioConfig(example=2, degree=4)

    @pytest.mark.parametrize("degree", [2.0, 1.0, True, np.int64(2)], ids=repr)
    def test_rejects_non_int_degree(self, degree):
        # 2.0 and True equal a valid degree; the run would fail only inside
        # build_space.
        with pytest.raises(ValueError, match="degree must be the integer 1, 2 or 3"):
            ScenarioConfig(example=2, degree=degree)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            ScenarioConfig(example=2, scheme="leapfrog")

    def test_rejects_bad_time_grid(self):
        with pytest.raises(ValueError, match="tau"):
            ScenarioConfig(example=2, tau=0.0)
        with pytest.raises(ValueError, match="multiple"):
            ScenarioConfig(example=2, tau=3e-7, final_time=4e-5)
        with pytest.raises(ValueError, match="multiple"):
            ScenarioConfig(example=2, final_time=0.0)
        with pytest.raises(ValueError, match="multiple"):
            ScenarioConfig(example=2, tau=1e-300, final_time=1e300)

    def test_rejects_negative_amplitude_allows_zero(self):
        with pytest.raises(ValueError, match="amplitude"):
            ScenarioConfig(example=2, amplitude=-1.0)
        assert ScenarioConfig(example=2, amplitude=0.0).resolved_amplitude == 0.0

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            ScenarioConfig(example=3, source_frequency=0.0)

    def test_rejects_unknown_projection(self):
        with pytest.raises(ValueError, match="projection"):
            ScenarioConfig(example=2, projection="collocation")

    def test_default_amplitudes(self):
        assert ScenarioConfig(example=2).resolved_amplitude == 1.0e6
        assert ScenarioConfig(example=3).resolved_amplitude == 1.0e12
        assert ScenarioConfig(example=3, amplitude=5.0).resolved_amplitude == 5.0

    def test_default_snapshots(self):
        assert ScenarioConfig(example=2).resolved_snapshots == (10, 50, 100, 200, 300)
        assert ScenarioConfig(example=3).resolved_snapshots == (200, 300, 400)

    def test_snapshots_clipped_to_step_count(self):
        cfg = ScenarioConfig(example=2, final_time=1.0e-5)
        assert cfg.n_steps == 100
        assert cfg.resolved_snapshots == (10, 50, 100)

    def test_explicit_snapshots_kept(self):
        cfg = ScenarioConfig(example=2, snapshots=(7, 9))
        assert cfg.resolved_snapshots == (7, 9)

    def test_snapshot_beyond_final_step_rejected_before_the_run(self):
        # The config rejects it, so run_scenario never meshes for it.
        with pytest.raises(ValueError, match=r"snapshot indices \[10\] lie outside \[0, 5\]"):
            ScenarioConfig(example=2, h=8e-3, final_time=5e-7, snapshots=(10,))

    def test_rejects_snapshots_outside_the_run(self):
        # 40 steps; (2.7, 500) used to resolve to (2, 500) and fail only
        # after the 22k-dof space was built.
        for snapshots in ((2, 500), (-1,), (41,)):
            with pytest.raises(ValueError, match=r"lie outside \[0, 40\]"):
                ScenarioConfig(example=3, final_time=4e-6, snapshots=snapshots)
        cfg = ScenarioConfig(example=3, final_time=4e-6, snapshots=(0, 40))
        assert cfg.resolved_snapshots == (0, 40)

    @pytest.mark.parametrize("snapshots", [(2.7, 40), (2.0,), (True,), (np.int64(2),), ("3",), 5],
                             ids=repr)
    def test_rejects_non_int_snapshots(self, snapshots):
        # 2.7 used to truncate to step 2 and True to become step 1.
        with pytest.raises(ValueError, match="snapshots must be a sequence of integer"):
            ScenarioConfig(example=3, final_time=4e-6, snapshots=snapshots)


class TestZeroAmplitude:
    def test_example2_stays_at_rest(self):
        cfg = ScenarioConfig(example=2, h=8e-3, final_time=2e-6,
                             amplitude=0.0, snapshots=(10, 20))
        result = run_scenario(cfg)
        assert result.summary["max_abs_u"] == 0.0
        assert result.summary["max_abs_theta"] == 0.0
        assert all(s["max_abs_u"] == 0.0 and s["max_abs_theta"] == 0.0
                   for s in result.summary["snapshots"])
        assert result.summary["max_fp_iterations"] == 1

    def test_example3_stays_at_rest(self):
        cfg = ScenarioConfig(example=3, h=8e-3, final_time=1e-6,
                             amplitude=0.0, snapshots=(5,))
        result = run_scenario(cfg)
        assert result.summary["max_abs_u"] == 0.0
        assert result.summary["max_abs_theta"] == 0.0


class TestProjectionChoice:
    def test_ritz_launch_runs_and_matches_scale(self):
        # a 4 mm mesh under-resolves the 6.4 mm radial wavelength, so the
        # two projections differ pointwise; they must still launch pulses
        # of the same magnitude and both run to completion
        results = {}
        for projection in ("nodal", "ritz"):
            cfg = ScenarioConfig(example=2, h=4e-3, final_time=2e-6,
                                 snapshots=(), projection=projection)
            results[projection] = run_scenario(cfg)
        u_nodal = results["nodal"].simulation.state.u[0]
        u_ritz = results["ritz"].simulation.state.u[0]
        assert np.all(np.isfinite(u_ritz))
        scale_nodal = np.max(np.abs(u_nodal))
        scale_ritz = np.max(np.abs(u_ritz))
        assert scale_nodal > 0.0
        assert 0.5 * scale_nodal <= scale_ritz <= 2.0 * scale_nodal


class TestFocusedPulseRun:
    def test_summary_shape(self, ex2_coarse):
        result, _ = ex2_coarse
        s = result.summary
        assert s["example"] == 2
        assert s["variant"] == "westervelt"
        assert s["scheme"] == "bdf2"
        assert s["n_steps"] == 400
        assert s["final_time"] == pytest.approx(4e-5, rel=1e-12)
        assert s["amplitude"] == 1.0e6
        assert s["n_dofs"] == s["n_vertices"]
        assert s["max_abs_u"] > 0.0
        assert 0.0 < s["max_abs_theta"] < 1.0

    def test_snapshot_series(self, ex2_coarse):
        result, _ = ex2_coarse
        snaps = result.summary["snapshots"]
        assert [s["step"] for s in snaps] == [10, 50, 100, 200, 300]
        for s in snaps:
            assert s["time"] == pytest.approx(s["step"] * 1e-7, rel=1e-12)
        assert result.summary["final_max_abs_theta"] > 0.0

    def test_mirror_symmetry(self, ex2_coarse):
        # data even in the polar angle on a mirror-symmetric mesh: the
        # discrete fields inherit the symmetry up to solver roundoff
        result, _ = ex2_coarse
        state = result.simulation.state
        mesh = state.space.mesh
        np.testing.assert_array_equal(state.space.dof_coords, mesh.vertices)
        mirror = mirror_vertex_map(mesh)
        u, theta = state.u[0], state.theta[0]
        u_scale = np.max(np.abs(u))
        th_scale = np.max(np.abs(theta))
        assert np.max(np.abs(u - u[mirror])) <= 1e-8 * u_scale
        assert np.max(np.abs(theta - theta[mirror])) <= 1e-8 * th_scale

    def test_heating_concentrates_at_focus(self, ex2_coarse):
        # the bowl-shaped pulse focuses at the arc center; accumulated
        # heating peaks within a couple of wavelengths of it, on the axis
        result, _ = ex2_coarse
        state = result.simulation.state
        coords = state.space.dof_coords
        theta = state.theta[0]
        peak = coords[int(np.argmax(np.abs(theta)))]
        assert np.hypot(peak[0], peak[1]) <= 0.012
        assert abs(peak[1]) <= 2.0 * 3e-3

    def test_files_written(self, ex2_coarse):
        result, out = ex2_coarse
        names = sorted(os.path.basename(p) for p in result.files)
        expected = sorted([f"snapshot_{i:06d}.{ext}"
                           for i in (10, 50, 100, 200, 300)
                           for ext in ("vtk", "csv")] + ["steps.csv", "summary.json"])
        assert names == expected
        assert all(os.path.exists(p) for p in result.files)
        with open(os.path.join(out, "steps.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 401
        assert lines[0].startswith("step,")

    def test_summary_json_round_trip(self, ex2_coarse):
        result, out = ex2_coarse
        with open(os.path.join(out, "summary.json")) as fh:
            loaded = json.load(fh)
        assert loaded["max_abs_theta"] == result.summary["max_abs_theta"]
        assert loaded["n_steps"] == 400
        assert [s["step"] for s in loaded["snapshots"]] == [10, 50, 100, 200, 300]


class TestDrivenRun:
    def test_summary_shape(self, ex3_coarse):
        s = ex3_coarse.summary
        assert s["example"] == 3
        assert s["variant"] == "kuznetsov"
        assert s["n_steps"] == 400
        assert s["amplitude"] == 1.0e12
        assert s["source_frequency"] == 1.0e5
        assert s["snapshots"] == []

    def test_heating_magnitude(self, ex3_coarse):
        # the sub-millimetre default run lands mid-band near 2.6e-10; the
        # 3 mm mesh stays within the same decade
        assert 1e-11 <= ex3_coarse.summary["max_abs_theta"] <= 1e-8

    def test_lower_drive_frequency_heats_less(self, ex3_coarse, ex3_low_frequency):
        hot = ex3_coarse.summary["max_abs_theta"]
        cool = ex3_low_frequency.summary["max_abs_theta"]
        assert cool < 0.8 * hot

    def test_mirror_symmetry(self, ex3_coarse):
        # unlike the pulse run, the driven run assembles a non-polynomial
        # source, and the conical-product quadrature samples it at points
        # that do not mirror across the axis; the discrete fields are
        # therefore symmetric only to quadrature accuracy at this h
        state = ex3_coarse.simulation.state
        mirror = mirror_vertex_map(state.space.mesh)
        u, theta = state.u[0], state.theta[0]
        assert np.max(np.abs(u - u[mirror])) <= 1e-2 * np.max(np.abs(u))
        assert np.max(np.abs(theta - theta[mirror])) <= 1e-2 * np.max(np.abs(theta))
