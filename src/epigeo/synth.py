"""Synthetic scenes with known cameras: exact oracles and controlled corruption.

A Scene is a box of static 3D points; camera_trajectory places cameras on an
orbit, dolly, or arc path looking at the scene. project_scene produces pixel
correspondences that satisfy the true fundamental matrix exactly, then
optionally corrupts them (Gaussian jitter per frame, uniform outliers,
points given constant world velocity) while keeping ground-truth labels.
render_dots rasterizes projected points so the full pixel pipeline can be
exercised on frames whose geometry is known.

Everything is a pure function of its arguments and seeds; reruns are
bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epipolar import CameraMatrix
from .image import Frame, gaussian_blur_array
from .records import DEFAULT_DOT_SIGMA, DEFAULT_SCENE_EXTENT, DEFAULT_TEXTURE_AMPLITUDE, TrajectorySpec

# sub-stream keys so each degradation has an independent, stable RNG
_JITTER_KEY = 101
_OUTLIER_KEY = 202
_DYNAMIC_KEY = 303
_INTENSITY_KEY = 404
_TEXTURE_KEY = 505

LABEL_CLEAN = "clean"
LABEL_JITTERED = "jittered"
LABEL_OUTLIER = "outlier"
LABEL_DYNAMIC = "dynamic"


@dataclass
class Scene:
    """Static 3D points, uniform in [-extent, extent]^3 around the origin."""

    points3d: np.ndarray
    seed: int
    extent: float

    def __post_init__(self):
        pts = np.asarray(self.points3d, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points3d must be (N, 3), got {pts.shape}")
        if np.any(np.abs(pts) > self.extent + 1e-9):
            raise ValueError("scene points exceed the stated extent")
        self.points3d = pts

    @property
    def n_points(self):
        return len(self.points3d)


@dataclass
class CorrespondenceSet:
    """Matched pixel points for one frame pair, with ground-truth labels."""

    a: np.ndarray           # (M, 2) pixels in the earlier frame
    b: np.ndarray           # (M, 2) pixels in the later frame
    labels: np.ndarray      # (M,) strings: clean/jittered/outlier/dynamic
    indices: np.ndarray     # (M,) scene point index of each correspondence

    def __len__(self):
        return len(self.a)

    def as_arrays(self):
        return self.a, self.b


@dataclass
class FrameProjection:
    """All scene points projected into one frame (after jitter)."""

    points2d: np.ndarray    # (N, 2) pixels
    depths: np.ndarray      # (N,)
    visible: np.ndarray     # (N,) bool: positive depth and inside the image

    def visible_points(self):
        return self.points2d[self.visible]

    def visible_indices(self):
        return np.flatnonzero(self.visible)


@dataclass
class ProjectedScene:
    frames: list
    pairs: dict             # (i, j) -> CorrespondenceSet


def generate_scene(n_points: int, extent: float = DEFAULT_SCENE_EXTENT, seed: int = 0) -> Scene:
    """Uniform random points in [-extent, extent]^3, deterministic in seed."""
    if n_points < 8:
        raise ValueError(f"n_points must be >= 8, got {n_points}")
    if extent <= 0:
        raise ValueError("extent must be positive")
    rng = np.random.default_rng([seed, 0])
    pts = rng.uniform(-extent, extent, size=(n_points, 3))
    return Scene(pts, seed=seed, extent=extent)


def _look_at(center, target, up=(0.0, 1.0, 0.0)):
    center = np.asarray(center, dtype=np.float64)
    z = np.asarray(target, dtype=np.float64) - center
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=np.float64), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    r = np.stack([x, y, z])
    return r, -r @ center


def camera_trajectory(spec: TrajectorySpec) -> list:
    """Cameras along the requested path, all sharing one intrinsic matrix."""
    k = spec.intrinsics
    n = spec.n_frames
    cams = []
    if spec.kind == "orbit":
        for i in range(n):
            theta = 2.0 * np.pi * i / n
            c = spec.radius * np.array([np.cos(theta), 0.0, np.sin(theta)])
            r, t = _look_at(c, (0.0, 0.0, 0.0))
            cams.append(CameraMatrix(k, r, t))
    elif spec.kind == "dolly":
        r, _ = _look_at((0.0, 0.0, -spec.radius), (0.0, 0.0, 0.0))
        for i in range(n):
            dist = spec.radius * (1.0 - spec.travel * i / (n - 1))
            c = np.array([0.0, 0.0, -dist])
            cams.append(CameraMatrix(k, r, -r @ c))
    else:  # arc
        for i in range(n):
            frac = i / (n - 1)
            theta = spec.arc_span * (frac - 0.5)
            c = np.array(
                [
                    spec.radius * np.sin(theta),
                    spec.arc_rise * frac,
                    -spec.radius * np.cos(theta),
                ]
            )
            r, t = _look_at(c, (0.0, 0.0, 0.0))
            cams.append(CameraMatrix(k, r, t))
    return cams


def dynamic_motion(scene: Scene, spec: TrajectorySpec):
    """Which points move, and their constant world-space velocities.

    Deterministic in the scene seed, independent of everything else, so the
    same points move no matter how the scene is later projected or rendered.
    """
    rng = np.random.default_rng([scene.seed, _DYNAMIC_KEY])
    n_dynamic = int(np.floor(spec.dynamic_fraction * scene.n_points))
    if not n_dynamic:
        return np.empty(0, dtype=int), np.zeros((0, 3))
    idx = rng.choice(scene.n_points, size=n_dynamic, replace=False)
    directions = rng.normal(size=(n_dynamic, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return idx, spec.dynamic_speed * directions


def project_scene(scene: Scene, cameras, spec: TrajectorySpec, pairs=None) -> ProjectedScene:
    """Project the scene through every camera and build labeled correspondences.

    pairs defaults to consecutive frames [(0,1), (1,2), ...]. Corruption per
    spec: dynamic points move with a constant per-point world velocity before
    projection; Gaussian pixel jitter is drawn independently per frame;
    outliers replace the later-frame point of a correspondence with a uniform
    image point. Labels record what happened to each correspondence, with
    outlier taking precedence over dynamic over jittered.
    """
    n_frames = len(cameras)
    if pairs is None:
        pairs = [(i, i + 1) for i in range(n_frames - 1)]
    n_pts = scene.n_points

    dynamic_idx, velocities = dynamic_motion(scene, spec)
    n_dynamic = len(dynamic_idx)
    is_dynamic = np.zeros(n_pts, dtype=bool)
    is_dynamic[dynamic_idx] = True

    frames = []
    for k, cam in enumerate(cameras):
        pts = scene.points3d.copy()
        if n_dynamic:
            pts[dynamic_idx] += k * velocities
        pix, depths = cam.project(pts)
        bad = np.flatnonzero(depths <= 0)
        if bad.size:
            raise ValueError(
                f"point {bad[0]} has non-positive depth {depths[bad[0]]:.4g} in frame {k}"
            )
        if spec.jitter_sigma > 0:
            jit_rng = np.random.default_rng([scene.seed, _JITTER_KEY, k])
            pix = pix + jit_rng.normal(0.0, spec.jitter_sigma, size=pix.shape)
        visible = (
            (pix[:, 0] >= 0)
            & (pix[:, 0] < spec.width)
            & (pix[:, 1] >= 0)
            & (pix[:, 1] < spec.height)
        )
        frames.append(FrameProjection(pix, depths, visible))

    pair_sets = {}
    for (i, j) in pairs:
        both = frames[i].visible & frames[j].visible
        idx = np.flatnonzero(both)
        a = frames[i].points2d[idx].copy()
        b = frames[j].points2d[idx].copy()
        labels = np.full(len(idx), LABEL_JITTERED if spec.jitter_sigma > 0 else LABEL_CLEAN,
                         dtype=object)
        labels[is_dynamic[idx]] = LABEL_DYNAMIC
        n_out = int(np.floor(spec.outlier_fraction * len(idx)))
        if n_out:
            out_rng = np.random.default_rng([scene.seed, _OUTLIER_KEY, i, j])
            chosen = out_rng.choice(len(idx), size=n_out, replace=False)
            b[chosen, 0] = out_rng.uniform(0.0, spec.width, size=n_out)
            b[chosen, 1] = out_rng.uniform(0.0, spec.height, size=n_out)
            labels[chosen] = LABEL_OUTLIER
        pair_sets[(i, j)] = CorrespondenceSet(a, b, labels, idx)
    return ProjectedScene(frames, pair_sets)


def render_dots(
    points2d,
    width: int,
    height: int,
    dot_sigma: float = DEFAULT_DOT_SIGMA,
    intensity_seed: int = 0,
    point_ids=None,
    texture_amplitude: float = DEFAULT_TEXTURE_AMPLITUDE,
) -> Frame:
    """Rasterize points as Gaussian dots on a dark frame.

    Each dot gets a deterministic intensity in [0.4, 1.0] keyed by its
    point id (pass scene indices as point_ids to keep a point's brightness
    stable across frames). texture_amplitude > 0 (the default) adds a fixed
    low-contrast background so descriptors see some context; keep it below the
    detector contrast threshold so it spawns no keypoints of its own.
    """
    if dot_sigma < 0.8:
        raise ValueError(f"dot_sigma must be >= 0.8, got {dot_sigma}")
    pts = np.asarray(points2d, dtype=np.float64).reshape(-1, 2)
    if point_ids is None:
        point_ids = np.arange(len(pts))
    point_ids = np.asarray(point_ids, dtype=np.int64)
    if len(point_ids) != len(pts):
        raise ValueError("point_ids must match points2d in length")

    img = np.zeros((height, width), dtype=np.float64)
    if texture_amplitude > 0:
        tex_rng = np.random.default_rng([intensity_seed, _TEXTURE_KEY])
        noise = tex_rng.uniform(0.0, 1.0, size=(height, width))
        img += texture_amplitude * gaussian_blur_array(noise, 1.0)

    if len(pts):
        int_rng = np.random.default_rng([intensity_seed, _INTENSITY_KEY])
        table = 0.4 + 0.6 * int_rng.random(int(point_ids.max()) + 1 if len(point_ids) else 0)
        radius = int(np.ceil(3.0 * dot_sigma))
        for (x, y), pid in zip(pts, point_ids):
            cx, cy = int(np.floor(x)), int(np.floor(y))
            x0, x1 = cx - radius, cx + radius + 1
            y0, y1 = cy - radius, cy + radius + 1
            if x1 <= 0 or y1 <= 0 or x0 >= width or y0 >= height:
                continue
            sx0, sx1 = max(x0, 0), min(x1, width)
            sy0, sy1 = max(y0, 0), min(y1, height)
            gx = np.arange(sx0, sx1, dtype=np.float64) - x
            gy = np.arange(sy0, sy1, dtype=np.float64) - y
            blob = np.exp(-(gy[:, None] ** 2 + gx[None, :] ** 2) / (2.0 * dot_sigma**2))
            img[sy0:sy1, sx0:sx1] += table[pid] * blob
    return Frame(np.clip(img, 0.0, 1.0))


def render_video(
    projected: ProjectedScene,
    spec: TrajectorySpec,
    dot_sigma: float = DEFAULT_DOT_SIGMA,
    intensity_seed: int = 0,
    texture_amplitude: float = DEFAULT_TEXTURE_AMPLITUDE,
    frame_indices=None,
):
    """Rasterize projected frames into a list of dot images.

    Point ids come from scene indices so each dot keeps its brightness from
    frame to frame. frame_indices selects a subsequence (default: all).
    """
    if frame_indices is None:
        frame_indices = range(len(projected.frames))
    return [
        render_dots(
            projected.frames[k].visible_points(),
            spec.width,
            spec.height,
            dot_sigma=dot_sigma,
            intensity_seed=intensity_seed,
            point_ids=projected.frames[k].visible_indices(),
            texture_amplitude=texture_amplitude,
        )
        for k in frame_indices
    ]
