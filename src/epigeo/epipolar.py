"""Two-view epipolar geometry on pixel coordinates.

Fundamental-matrix estimation (Hartley-normalized 8-point inside RANSAC),
Sampson and symmetric epipolar errors, and the camera-pair construction
F = [e']_x P' P+ used as an exact cross-check for the estimators.

Conventions used throughout:
  - a correspondence relates x in frame A to x' (xp) in frame B and
    satisfies xp^T F x = 0 for the true geometry;
  - estimated F is rank 2 with unit Frobenius norm, sign fixed so the
    largest-magnitude entry is positive (stable serialization);
  - errors are squared pixel distances (px^2).

A correspondence set has one form: a tuple (points_a, points_b) of (N, 2)
pixel or (N, 3) homogeneous arrays, row k of points_a matched with row k of
points_b. Each public entry point validates it once with
correspondence_arrays; the stacked solvers behind them take the validated
(N, 3) arrays as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# squared-pixel value reported when an error denominator collapses
# (point at an epipole); such entries carry a flag and are excluded
# from aggregation downstream
SAMPSON_CAP = 1.0e6
DENOM_EPS = 1.0e-15

RANK_TOL = 1e-8
CONDITION_LIMIT = 1e12


class DegenerateConfigurationError(ValueError):
    """Point configuration does not determine the geometry (plane, repeats)."""


class EstimationFailedError(RuntimeError):
    """Robust estimation could not produce a usable model."""


@dataclass
class FundamentalMatrix:
    """Rank-2, unit-Frobenius 3x3 matrix mapping points to epipolar lines."""

    m: np.ndarray
    inlier_count: int = 0
    method: str = "eight_point"

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"fundamental matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("fundamental matrix has non-finite entries")
        norm = np.linalg.norm(m)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"fundamental matrix must have unit Frobenius norm, got {norm}")
        s = np.linalg.svd(m, compute_uv=False)
        if s[2] >= RANK_TOL * s[0]:
            raise ValueError("fundamental matrix must have rank 2")
        self.m = m


@dataclass
class CameraMatrix:
    """Finite projective camera P = K [R | t].

    k is upper-triangular with positive diagonal, r orthonormal, t a
    3-vector; the camera center in world coordinates is -R^T t.
    """

    k: np.ndarray
    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=np.float64)
        r = np.asarray(self.r, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if k.shape != (3, 3) or r.shape != (3, 3):
            raise ValueError("k and r must be 3x3 matrices")
        if np.any(np.abs(np.tril(k, -1)) > 1e-12) or np.any(np.diag(k) <= 0):
            raise ValueError("k must be upper-triangular with positive diagonal")
        if np.linalg.norm(r @ r.T - np.eye(3)) > 1e-9:
            raise ValueError("r must be orthonormal within 1e-9")
        self.k, self.r, self.t = k, r, t

    @property
    def p(self):
        """The 3x4 projection matrix."""
        return self.k @ np.hstack([self.r, self.t[:, None]])

    @property
    def center(self):
        """Camera center in world coordinates."""
        return -self.r.T @ self.t

    def project(self, points3d):
        """Project (N, 3) world points; returns ((N, 2) pixels, (N,) depths)."""
        pts = np.asarray(points3d, dtype=np.float64).reshape(-1, 3)
        cam = pts @ self.r.T + self.t
        depths = cam[:, 2]
        hom = cam @ self.k.T
        return hom[:, :2] / hom[:, 2:3], depths


@dataclass
class Epipole:
    """Null-space point of F; unnormalized with at_infinity when |z| < 1e-12."""

    point: np.ndarray
    at_infinity: bool


# ---------------------------------------------------------------------------
# input plumbing


def as_homogeneous(points) -> np.ndarray:
    """Coerce (N, 2) or (N, 3) points to homogeneous (N, 3) with z = 1."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError(f"expected (N, 2) or (N, 3) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    if pts.shape[1] == 2:
        return np.hstack([pts, np.ones((len(pts), 1))])
    z = pts[:, 2]
    if np.any(z == 0):
        raise ValueError("points at infinity are not valid correspondences")
    return pts / z[:, None]


def correspondence_arrays(correspondences):
    """Validate a (points_a, points_b) tuple; returns two (N, 3) arrays with z = 1."""
    if not (isinstance(correspondences, tuple) and len(correspondences) == 2):
        raise TypeError(
            "correspondences must be a (points_a, points_b) tuple of (N, 2) or (N, 3) "
            f"arrays, got {type(correspondences).__name__}"
        )
    a = as_homogeneous(correspondences[0])
    b = as_homogeneous(correspondences[1])
    if len(a) != len(b):
        raise ValueError(f"point sets differ in length: {len(a)} vs {len(b)}")
    return a, b


def _f_matrix(f) -> np.ndarray:
    if isinstance(f, FundamentalMatrix):
        return f.m
    m = np.asarray(f, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _canonicalize(m: np.ndarray) -> np.ndarray:
    """Scale each 3x3 of a (K, 3, 3) stack to unit Frobenius norm; flip its
    sign so the largest |entry| is positive."""
    flat = m.reshape(len(m), 9)
    # the row dot product np.linalg.norm takes, so results match it bit for bit
    norm = np.sqrt(flat[:, None, :] @ flat[:, :, None]).reshape(-1)
    if not np.all((norm > 0) & np.isfinite(norm)):
        raise EstimationFailedError("estimated matrix is zero or non-finite")
    flat = flat / norm[:, None]
    peak = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    flat[peak < 0] = -flat[peak < 0]
    return flat.reshape(-1, 3, 3)


# ---------------------------------------------------------------------------
# normalization and the 8-point solver


def normalize_points(points):
    """Hartley normalization of homogeneous points.

    Returns (transformed points, T) where T translates the centroid to the
    origin and scales so the mean distance from the origin is sqrt(2).
    """
    pts = as_homogeneous(points)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    normed, T, ok = _normalize_stack(pts[None])
    if not ok[0]:
        raise DegenerateConfigurationError("all points are identical")
    return normed[0], T[0]


def _normalize_stack(pts: np.ndarray):
    """Hartley normalization of a (K, N, 3) stack of z = 1 point sets.

    Returns (transformed points, T per set, ok); ok is False for a set whose
    points all coincide, and its T is then meaningless.
    """
    xy = pts[..., :2]
    centroid = xy.mean(axis=-2)
    mean_dist = np.linalg.norm(xy - centroid[:, None, :], axis=-1).mean(axis=-1)
    ok = mean_dist >= 1e-12
    s = np.sqrt(2.0) / np.where(ok, mean_dist, 1.0)
    T = np.zeros((len(pts), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    return pts @ np.swapaxes(T, -1, -2), T, ok


def _eight_point_stack(a: np.ndarray, b: np.ndarray):
    """Normalized 8-point solve on (K, N, 3) stacks of z = 1 points.

    Returns (F per set, ok); ok is False where the set is degenerate
    (coincident, coplanar or repeated points), and that F is meaningless.
    """
    na, Ta, ok_a = _normalize_stack(a)
    nb, Tb, ok_b = _normalize_stack(b)
    # bilinear constraint rows: one per correspondence, unknown F' rav'd row-major
    design = np.empty(na.shape[:2] + (9,))
    design[..., 0] = nb[..., 0] * na[..., 0]
    design[..., 1] = nb[..., 0] * na[..., 1]
    design[..., 2] = nb[..., 0]
    design[..., 3] = nb[..., 1] * na[..., 0]
    design[..., 4] = nb[..., 1] * na[..., 1]
    design[..., 5] = nb[..., 1]
    design[..., 6] = na[..., 0]
    design[..., 7] = na[..., 1]
    design[..., 8] = 1.0
    _, s, vt = np.linalg.svd(design)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = ok_a & ok_b & (s[:, -2] > 0) & ~(s[:, 0] / s[:, -2] > CONDITION_LIMIT)
    u, sv, vt2 = np.linalg.svd(vt[:, -1].reshape(-1, 3, 3))
    sv[:, 2] = 0.0
    m = np.swapaxes(Tb, -1, -2) @ ((u * sv[:, None, :]) @ vt2) @ Ta
    m[ok] = _canonicalize(m[ok])
    return m, ok


def _eight_point_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized 8-point solve on homogeneous (N, 3) arrays."""
    m, ok = _eight_point_stack(a[None], b[None])
    if not ok[0]:
        raise DegenerateConfigurationError(
            "correspondences are degenerate (coplanar or repeated points)"
        )
    return m[0]


def eight_point(correspondences) -> FundamentalMatrix:
    """Estimate F with the normalized 8-point algorithm (least squares for N > 8)."""
    a, b = correspondence_arrays(correspondences)
    if len(a) < 8:
        raise ValueError(f"need at least 8 correspondences, got {len(a)}")
    m = _eight_point_arrays(a, b)
    return FundamentalMatrix(m, inlier_count=len(a), method="eight_point")


# ---------------------------------------------------------------------------
# residuals


def sampson_errors(f, points_a, points_b):
    """First-order geometric error of each correspondence, in px^2.

    points_a and points_b are the two sides of one correspondence set; a
    single correspondence is a one-row set. Returns (values, flagged).
    Entries whose denominator falls below 1e-15 (both points at epipoles)
    are set to the cap value and flagged; callers exclude flagged entries
    from aggregation.
    """
    return _sampson_stack(_f_matrix(f), *correspondence_arrays((points_a, points_b)))


def _sampson_stack(m: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Sampson errors of (N, 3) point arrays under each F of a (..., 3, 3) stack."""
    fx = a @ np.swapaxes(m, -1, -2)  # lines in image B
    ftx = b @ m                      # lines in image A
    resid = np.einsum("ij,...ij->...i", b, fx)
    denom = fx[..., 0] ** 2 + fx[..., 1] ** 2 + ftx[..., 0] ** 2 + ftx[..., 1] ** 2
    flagged = denom < DENOM_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(flagged, SAMPSON_CAP, resid**2 / denom)
    return values, flagged


def symmetric_epipolar_errors(f, points_a, points_b):
    """Sum of squared point-to-epipolar-line distances in both images, per
    correspondence of the set (points_a, points_b).

    Returns (values, flagged); a correspondence whose epipolar line in either
    image has zero normal is capped and flagged.
    """
    m = _f_matrix(f)
    a, b = correspondence_arrays((points_a, points_b))
    fx = a @ m.T
    ftx = b @ m
    resid2 = np.einsum("ij,ij->i", b, fx) ** 2
    norm_b = fx[:, 0] ** 2 + fx[:, 1] ** 2
    norm_a = ftx[:, 0] ** 2 + ftx[:, 1] ** 2
    flagged = (norm_b < DENOM_EPS) | (norm_a < DENOM_EPS)
    values = np.empty(len(a))
    safe = ~flagged
    values[safe] = resid2[safe] / norm_b[safe] + resid2[safe] / norm_a[safe]
    values[flagged] = SAMPSON_CAP
    return values, flagged


# ---------------------------------------------------------------------------
# robust estimation


# candidates x points evaluated at once by RANSAC; bounds its (K, N, 3)
# temporaries to a few MB
RANSAC_BLOCK_POINTS = 1 << 16


def _ransac_candidates(a, b, iterations, inlier_threshold, seed):
    """Yield (i, inlier count, errors, inlier mask, F) for each RANSAC
    iteration whose sample gives a model with inliers, in iteration order.

    Iterations are solved and scored in blocks, one stacked call per step;
    each iteration draws its sample from default_rng(seed ^ i).
    """
    n = len(a)
    block = max(1, RANSAC_BLOCK_POINTS // n)
    for start in range(0, iterations, block):
        stop = min(start + block, iterations)
        idx = np.array([
            np.random.default_rng(seed ^ i).choice(n, size=8, replace=False)
            for i in range(start, stop)
        ])
        models, ok = _eight_point_stack(a[idx], b[idx])
        errors, flagged = _sampson_stack(models, a, b)
        masks = (errors < inlier_threshold) & ~flagged
        counts = masks.sum(axis=1)
        for k in np.flatnonzero(ok & (counts > 0)):
            yield start + int(k), int(counts[k]), errors[k], masks[k], models[k]


def ransac_fundamental(
    correspondences,
    iterations: int = 2000,
    inlier_threshold: float = 1.0,
    seed: int = 0,
    adaptive: bool = False,
    confidence: float = 0.999,
):
    """RANSAC over 8-point minimal samples; returns (FundamentalMatrix, inlier mask).

    Deterministic for a given seed: iteration i draws its sample from an RNG
    seeded with seed XOR i, so any evaluation order gives identical results.
    Consensus ties are broken by lower mean inlier Sampson error. The winning
    model is refit on its full consensus set. With adaptive=True the loop
    stops early once `confidence` is reached for the best inlier ratio seen.
    """
    a, b = correspondence_arrays(correspondences)
    n = len(a)
    if n < 8:
        raise ValueError(f"need at least 8 correspondences, got {n}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    best = None  # (count, mean_inlier_error, mask, model)
    for i, count, errors, mask, model in _ransac_candidates(
            a, b, iterations, inlier_threshold, seed):
        if best is None or count >= best[0]:
            mean_err = float(errors[mask].mean())
            if best is None or count > best[0] or mean_err < best[1]:
                best = (count, mean_err, mask, model)
        if adaptive and best[0] >= 8:
            ratio = best[0] / n
            miss = 1.0 - min(ratio, 1.0 - 1e-12) ** 8
            needed = int(np.ceil(np.log(1.0 - confidence) / np.log(miss)))
            if i + 1 >= needed:
                break

    if best is None:
        raise EstimationFailedError("no RANSAC iteration produced a valid model")
    count, _, mask, model = best
    if count < 8:
        raise EstimationFailedError(
            f"best consensus has only {count} inliers (need at least 8)"
        )
    try:
        refit = _eight_point_arrays(a[mask], b[mask])
    except DegenerateConfigurationError:
        refit = model  # consensus set itself degenerate; keep the sample model
    errors, flagged = _sampson_stack(refit, a, b)
    final_mask = (errors < inlier_threshold) & ~flagged
    if int(final_mask.sum()) < 8:
        final_mask = mask  # refit drifted off the consensus; keep the sample mask
        refit = model
    return (
        FundamentalMatrix(refit, inlier_count=int(final_mask.sum()), method="eight_point"),
        final_mask,
    )


# ---------------------------------------------------------------------------
# camera oracle


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def fundamental_from_cameras(cam_a: CameraMatrix, cam_b: CameraMatrix) -> FundamentalMatrix:
    """Exact F for a known camera pair: F = [e']_x P' P+ with e' = P' C."""
    if np.linalg.norm(cam_a.center - cam_b.center) <= 1e-9:
        raise DegenerateConfigurationError(
            "camera centers coincide; epipolar geometry is undefined"
        )
    p = cam_a.p
    pp = cam_b.p
    center_h = np.append(cam_a.center, 1.0)
    e_prime = pp @ center_h
    m = skew(e_prime) @ pp @ np.linalg.pinv(p)
    return FundamentalMatrix(_canonicalize(m[None])[0], inlier_count=0, method="from_cameras")


def epipole(f, which: str = "left") -> Epipole:
    """Epipole as the null vector of F (left) or F^T (right).

    Finite epipoles are scaled to third coordinate 1; when |z| < 1e-12 the
    unit-norm vector is returned unnormalized with at_infinity set.
    """
    m = _f_matrix(f)
    if which not in ("left", "right"):
        raise ValueError(f"which must be 'left' or 'right', got {which!r}")
    if which == "right":
        m = m.T
    _, _, vt = np.linalg.svd(m)
    v = vt[-1]
    if abs(v[2]) < 1e-12:
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        return Epipole(v, at_infinity=True)
    return Epipole(v / v[2], at_infinity=False)
