"""Tests for synthetic scene generation, trajectories, and dot rendering."""

import numpy as np
import pytest

from epigeo.epipolar import fundamental_from_cameras, sampson_errors
from epigeo.synth import (
    CorrespondenceSet,
    Scene,
    TrajectorySpec,
    camera_trajectory,
    generate_scene,
    project_scene,
    render_dots,
)


def orbit(n_frames=8, **kw):
    return TrajectorySpec(kind="orbit", n_frames=n_frames, **kw)


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(50, 2.0, seed=9)
        b = generate_scene(50, 2.0, seed=9)
        np.testing.assert_array_equal(a.points3d, b.points3d)

    def test_seed_changes_points(self):
        a = generate_scene(50, 2.0, seed=0)
        b = generate_scene(50, 2.0, seed=1)
        assert not np.array_equal(a.points3d, b.points3d)

    def test_exact_count_and_bounds(self):
        s = generate_scene(8, 1.5, seed=2)
        assert s.n_points == 8
        assert np.all(np.abs(s.points3d) <= 1.5)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            generate_scene(7)

    def test_scene_validates_extent(self):
        with pytest.raises(ValueError):
            Scene(np.array([[5.0, 0.0, 0.0]]), seed=0, extent=1.0)


class TestTrajectorySpec:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            TrajectorySpec(kind="zoom")

    def test_rejects_single_frame(self):
        with pytest.raises(ValueError):
            TrajectorySpec(n_frames=1)

    def test_rejects_fraction_sum(self):
        with pytest.raises(ValueError):
            TrajectorySpec(outlier_fraction=0.6, dynamic_fraction=0.5)

    def test_intrinsics_default_principal_point(self):
        k = TrajectorySpec(width=640, height=480, focal=500.0).intrinsics
        np.testing.assert_allclose(k, [[500, 0, 320], [0, 500, 240], [0, 0, 1]])


class TestCameraTrajectory:
    def test_orbit_four_frames_90_degrees(self):
        cams = camera_trajectory(orbit(n_frames=4))
        centers = np.array([c.center for c in cams])
        radii = np.linalg.norm(centers, axis=1)
        assert np.ptp(radii) < 1e-12
        for i in range(4):
            a, b = centers[i], centers[(i + 1) % 4]
            angle = np.degrees(np.arccos(a @ b / (radii[i] * radii[(i + 1) % 4])))
            assert angle == pytest.approx(90.0, abs=1e-9)

    def test_orbit_consecutive_baselines_equal(self):
        cams = camera_trajectory(orbit(n_frames=10))
        centers = np.array([c.center for c in cams])
        baselines = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        assert np.ptp(baselines) < 1e-9

    def test_dolly_rotations_identical(self):
        cams = camera_trajectory(TrajectorySpec(kind="dolly", n_frames=6))
        for cam in cams[1:]:
            np.testing.assert_array_equal(cam.r, cams[0].r)
        centers = np.array([c.center for c in cams])
        # straight-line motion along the fixed view axis
        deltas = np.diff(centers, axis=0)
        assert np.ptp(np.linalg.norm(deltas, axis=1)) < 1e-12

    def test_arc_has_vertical_rise(self):
        spec = TrajectorySpec(kind="arc", n_frames=5, arc_rise=1.0)
        cams = camera_trajectory(spec)
        heights = [c.center[1] for c in cams]
        np.testing.assert_allclose(heights, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_all_kinds_see_scene(self):
        scene = generate_scene(64, 2.0, seed=3)
        for kind in ("orbit", "dolly", "arc"):
            spec = TrajectorySpec(kind=kind, n_frames=5)
            cams = camera_trajectory(spec)
            proj = project_scene(scene, cams, spec)
            for fp in proj.frames:
                assert (fp.depths > 0).all()
                assert fp.visible.sum() >= 8


class TestProjectScene:
    def test_clean_satisfies_oracle(self):
        scene = generate_scene(200, 2.0, seed=7)
        spec = orbit()
        cams = camera_trajectory(spec)
        proj = project_scene(scene, cams, spec)
        f = fundamental_from_cameras(cams[0], cams[1])
        cs = proj.pairs[(0, 1)]
        ha = np.hstack([cs.a, np.ones((len(cs), 1))])
        hb = np.hstack([cs.b, np.ones((len(cs), 1))])
        resid = np.einsum("ij,jk,ik->i", hb, f.m, ha)
        assert np.abs(resid).max() < 1e-10
        assert set(cs.labels) == {"clean"}

    def test_outlier_count_exact(self):
        scene = generate_scene(200, 2.0, seed=7)
        spec = orbit(outlier_fraction=0.3)
        cams = camera_trajectory(spec)
        proj = project_scene(scene, cams, spec)
        for cs in proj.pairs.values():
            assert (cs.labels == "outlier").sum() == int(np.floor(0.3 * len(cs)))

    def test_dynamic_points_violate_constraint(self):
        scene = generate_scene(300, 2.0, seed=7)
        spec = orbit(dynamic_fraction=0.2, dynamic_speed=0.08)
        cams = camera_trajectory(spec)
        proj = project_scene(scene, cams, spec)
        f = fundamental_from_cameras(cams[0], cams[1])
        cs = proj.pairs[(0, 1)]
        errors, _ = sampson_errors(f, cs.a, cs.b)
        clean = errors[cs.labels == "clean"]
        dynamic = errors[cs.labels == "dynamic"]
        assert len(dynamic) > 0
        p99 = np.percentile(clean, 99)
        assert (dynamic > p99).mean() > 0.9

    def test_label_priority_outlier_over_dynamic(self):
        scene = generate_scene(100, 2.0, seed=4)
        spec = orbit(outlier_fraction=0.5, dynamic_fraction=0.3)
        cams = camera_trajectory(spec)
        proj = project_scene(scene, cams, spec)
        cs = proj.pairs[(0, 1)]
        assert (cs.labels == "outlier").sum() == int(np.floor(0.5 * len(cs)))
        assert set(cs.labels) <= {"clean", "outlier", "dynamic"}

    def test_jitter_labels(self):
        scene = generate_scene(100, 2.0, seed=4)
        spec = orbit(jitter_sigma=0.5)
        cams = camera_trajectory(spec)
        proj = project_scene(scene, cams, spec)
        assert set(proj.pairs[(0, 1)].labels) == {"jittered"}

    def test_rerun_bitwise_identical(self):
        scene = generate_scene(150, 2.0, seed=12)
        spec = orbit(jitter_sigma=1.0, outlier_fraction=0.2, dynamic_fraction=0.1)
        cams = camera_trajectory(spec)
        p1 = project_scene(scene, cams, spec)
        p2 = project_scene(scene, cams, spec)
        for key in p1.pairs:
            np.testing.assert_array_equal(p1.pairs[key].a, p2.pairs[key].a)
            np.testing.assert_array_equal(p1.pairs[key].b, p2.pairs[key].b)
            np.testing.assert_array_equal(p1.pairs[key].labels, p2.pairs[key].labels)

    def test_jitter_monotone_in_sampson(self):
        scene = generate_scene(200, 2.0, seed=7)
        base = orbit()
        cams = camera_trajectory(base)
        f = fundamental_from_cameras(cams[0], cams[1])
        means = []
        for sigma in (0.25, 0.5, 1.0, 2.0, 4.0):
            spec = orbit(jitter_sigma=sigma)
            proj = project_scene(scene, cams, spec)
            cs = proj.pairs[(0, 1)]
            errors, flagged = sampson_errors(f, cs.a, cs.b)
            means.append(errors[~flagged].mean())
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_negative_depth_names_frame_and_point(self):
        scene = generate_scene(20, 2.0, seed=1)
        spec = orbit(radius=0.5)  # cameras inside the point cloud
        cams = camera_trajectory(spec)
        with pytest.raises(ValueError, match=r"point \d+ .* frame \d+"):
            project_scene(scene, cams, spec)

    def test_custom_pairs(self):
        scene = generate_scene(50, 2.0, seed=2)
        spec = orbit()
        cams = camera_trajectory(spec)
        proj = project_scene(scene, cams, spec, pairs=[(0, 4), (2, 6)])
        assert set(proj.pairs) == {(0, 4), (2, 6)}


class TestRenderDots:
    def test_empty_is_black(self):
        f = render_dots([], 64, 64, texture_amplitude=0.0)
        assert f.pixels.max() == 0.0

    def test_empty_with_texture_is_low_amplitude(self):
        f = render_dots([], 64, 64, texture_amplitude=0.02)
        assert 0.0 < f.pixels.max() <= 0.02 + 1e-12

    def test_center_dot_argmax(self):
        f = render_dots([(32.0, 20.0)], 64, 48, dot_sigma=1.0)
        assert np.unravel_index(f.pixels.argmax(), f.pixels.shape) == (20, 32)

    def test_intensity_range_and_determinism(self):
        pts = [(10.0, 10.0), (30.0, 30.0), (50.0, 20.0)]
        a = render_dots(pts, 64, 48, intensity_seed=5)
        b = render_dots(pts, 64, 48, intensity_seed=5)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        peaks = [a.pixels[10, 10], a.pixels[30, 30], a.pixels[20, 50]]
        for p in peaks:
            assert 0.4 - 1e-9 <= p <= 1.0

    def test_point_ids_keep_intensity_across_frames(self):
        a = render_dots([(10.0, 10.0)], 64, 48, intensity_seed=5, point_ids=[3], texture_amplitude=0.0)
        b = render_dots([(40.0, 30.0)], 64, 48, intensity_seed=5, point_ids=[3], texture_amplitude=0.0)
        assert a.pixels[10, 10] == pytest.approx(b.pixels[30, 40], abs=1e-12)

    def test_rejects_small_sigma(self):
        with pytest.raises(ValueError):
            render_dots([(5.0, 5.0)], 32, 32, dot_sigma=0.5)

    def test_offscreen_points_ignored(self):
        f = render_dots([(-500.0, -500.0)], 32, 32, texture_amplitude=0.0)
        assert f.pixels.max() == 0.0

    def test_clamped_to_one(self):
        pts = [(16.0, 16.0)] * 20
        f = render_dots(pts, 32, 32)
        assert f.pixels.max() <= 1.0
