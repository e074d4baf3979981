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

RANSAC ranks its minimal samples with QR null vectors, falling back to the
SVD for a sample whose R diagonal spans more than QR_TRUST (close to
rank-deficient). Those models only rank: the winning sample is solved again
with the SVD solver, so every returned F and mask comes from the SVD solver.
RANSAC stops at the first full consensus when that sample ends in the
refit on all points, the result every all-inlier winner gives; otherwise
ranking continues in the same pass, so no iteration is ranked twice.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .records import _as_type

# squared-pixel value reported when an error denominator collapses
# (point at an epipole); such entries carry a flag and are excluded
# from aggregation downstream
SAMPSON_CAP = 1.0e6
DENOM_EPS = 1.0e-15

RANK_TOL = 1e-8
CONDITION_LIMIT = 1e12
# largest ratio of |R_ii| for which a minimal sample's QR null vector is used
QR_TRUST = 1e4


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


def _normalized_design(a: np.ndarray, b: np.ndarray):
    """Bilinear constraint rows of Hartley-normalized (K, N, 3) stacks.

    Returns (design, Ta, Tb, ok): design is (K, N, 9), one row per
    correspondence with the unknown F' raveled row-major; ok is False where
    a set's points all coincide in either image.
    """
    na, Ta, ok_a = _normalize_stack(a)
    nb, Tb, ok_b = _normalize_stack(b)
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
    return design, Ta, Tb, ok_a & ok_b


def _svd_null_vectors(design: np.ndarray):
    """Last right singular vector of each (N, 9) design, and the degeneracy test."""
    # U is never read; an 8-row design still needs the 9th row of Vt
    _, s, vt = np.linalg.svd(design, full_matrices=design.shape[-2] < 9)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (s[:, -2] > 0) & ~(s[:, 0] / s[:, -2] > CONDITION_LIMIT)
    return vt[:, -1], ok


def _rank_two(v: np.ndarray, Ta: np.ndarray, Tb: np.ndarray, ok: np.ndarray):
    """F per null vector of a (K, 9) stack: nearest rank 2, denormalized, and
    canonicalized where ok; returns (F per set, ok)."""
    u, sv, vt = np.linalg.svd(v.reshape(-1, 3, 3))
    sv[:, 2] = 0.0
    m = np.swapaxes(Tb, -1, -2) @ ((u * sv[:, None, :]) @ vt) @ Ta
    m[ok] = _canonicalize(m[ok])
    return m, ok


def _eight_point_stack(a: np.ndarray, b: np.ndarray):
    """Normalized 8-point solve on (K, N, 3) stacks of z = 1 points.

    Returns (F per set, ok); ok is False where the set is degenerate
    (coincident, coplanar or repeated points), and that F is meaningless.
    """
    design, Ta, Tb, ok = _normalized_design(a, b)
    v, ok_svd = _svd_null_vectors(design)
    return _rank_two(v, Ta, Tb, ok & ok_svd)


def _sample_stack(a: np.ndarray, b: np.ndarray):
    """8-point models of (K, 8, 3) minimal samples, to rank RANSAC candidates.

    The null vector of each 8-row design is the last column of the complete
    QR of its transpose. A sample whose |R_ii| span more than QR_TRUST is
    close to rank-deficient (a repeated correspondence, say); it takes
    _eight_point_stack's SVD and degeneracy test instead. Returns
    (F per sample, ok) like _eight_point_stack; the F agree with it to
    rounding, not bit for bit.
    """
    design, Ta, Tb, ok = _normalized_design(a, b)
    q, r = np.linalg.qr(np.swapaxes(design, -1, -2), mode="complete")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    untrusted = ~(diag.max(axis=1) <= QR_TRUST * diag.min(axis=1))
    v = q[:, :, -1]
    if untrusted.any():
        v[untrusted], ok_svd = _svd_null_vectors(design[untrusted])
        ok[untrusted] &= ok_svd
    return _rank_two(v, Ta, Tb, ok)


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
# iterations ranked before the rest of the first block, so that a clean
# correspondence set reaches its first all-inlier sample in one small call
_FIRST_BLOCK = 16

# NumPy's SeedSequence and PCG64 constants (numpy/random/bit_generator.pyx,
# numpy/random/src/pcg64): the hash multipliers, the pool mixer, and the
# 128-bit LCG multiplier as (high, low) 64-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924, 4865540595714422341)
_M32 = 0xFFFFFFFF


def _seed_words(entropy):
    """SeedSequence(s).generate_state(4, uint64) for a (K,) uint32 array of
    one-word entropies s; returns the four (K,) uint64 words."""
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        v = v * hash_const
        return v ^ (v >> 16)

    pool = [hashmix(entropy)] + [hashmix(np.zeros_like(entropy)) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = v ^ (v >> 16)
    hash_const = _INIT_B
    words = []
    for k in range(8):
        v = pool[k % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        v = v * hash_const
        words.append((v ^ (v >> 16)).astype(np.uint64))
    return [lo | (hi << 32) for lo, hi in zip(words[::2], words[1::2])]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * MULT + inc mod 2**128, on (high, low) uint64 words."""
    m_hi, m_lo = _PCG_MULT
    # high word of the 64x64-bit product lo * m_lo, from 32-bit halves
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = m_lo & _M32, m_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    product_hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * m_lo + inc_lo
    carry = (new_lo < inc_lo).astype(np.uint64)
    return hi * m_lo + lo * m_hi + product_hi + inc_hi + carry, new_lo


def _pcg_draws(entropy, count):
    """The first `count` uint32 draws of PCG64(SeedSequence(s)) for each of a
    (K,) uint32 array of entropies s, as a (count, K) uint64 array.

    Each 64-bit XSL-RR output gives two draws, its low half first.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(entropy)
    # srandom: state 0, inc = 2 * seq + 1; step, add the seed, step
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < seed_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    outputs = []
    for _ in range((count + 1) // 2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        outputs.append((x >> rot) | (x << ((64 - rot) & 63)))
    out = np.array(outputs)
    return np.stack([out & _M32, out >> 32], axis=1).reshape(-1, len(entropy))[:count]


# the videos of a group share every pair's (n, seed), so 16 entries keep a
# group's draws while holding at most 16 x 512 KB
@functools.lru_cache(maxsize=16)
def _ransac_samples(n, seed, start, stop):
    """The 8-point samples of RANSAC iterations start..stop-1 as a read-only
    (K, 8) array: row k equals
    np.random.default_rng(seed ^ (start + k)).choice(n, 8, replace=False).
    Memoized, since the draws depend on the arguments alone.

    NumPy draws that sample by Floyd's algorithm (Lemire bounded draws on
    [0, j] for j = n-8 .. n-1, a value already taken replaced by j), then
    shuffles it (draws on [0, i] for i = 7 .. 1). Here all iterations run
    that as array arithmetic. An iteration NumPy may draw differently is
    redone with NumPy itself: n == 8 or n >= 2**32, an entropy seed ^ i of
    more than one 32-bit word, or a Lemire draw that could be rejected.
    """
    seed = operator.index(seed)
    count = stop - start
    picked = np.empty((count, 8), dtype=np.int64)
    redo = np.ones(count, dtype=bool)
    if 8 < n < 2**32 and 0 <= seed and (seed | (stop - 1)) < 2**32:
        entropy = np.arange(start, stop, dtype=np.uint32) ^ np.uint32(seed)
        bounds = np.array([*range(n - 7, n + 1), *range(8, 1, -1)], dtype=np.uint64)
        m = _pcg_draws(entropy, len(bounds)) * bounds[:, None]
        redo = ((m & _M32) < bounds[:, None]).any(axis=0)
        value = (m >> 32).astype(np.int64)
        for c, j in enumerate(range(n - 8, n)):
            taken = (picked[:, :c] == value[c, :, None]).any(axis=1)
            picked[:, c] = np.where(taken, j, value[c])
        rows = np.arange(count)
        for i, swap in zip(range(7, 0, -1), value[8:]):
            picked[rows, i], picked[rows, swap] = picked[rows, swap], picked[rows, i]
    for k in np.flatnonzero(redo):
        picked[k] = np.random.default_rng(seed ^ (start + int(k))).choice(n, 8, replace=False)
    picked.flags.writeable = False
    return picked


def _ransac(a, b, iterations, inlier_threshold, seed):
    """(F, mask) of the RANSAC winner, refit on its consensus set.

    Iterations are solved with _sample_stack and scored in blocks, one
    stacked call per step. The best candidate has the most inliers; among
    those, the lowest mean inlier Sampson error, and then the earliest
    iteration. The search stops at the first sample that takes all n
    points when _consensus_fit gives on_all for it; otherwise ranking goes
    on in the same pass. The stop is decided per iteration, so it does not
    depend on the block size.
    """
    n = len(a)
    block = max(1, RANSAC_BLOCK_POINTS // n)
    # the sampler has a fixed cost per call, so draw for a whole number of
    # blocks at once, up to RANSAC_BLOCK_POINTS // 8 iterations (one block
    # when a block is larger)
    chunk = block * max(1, RANSAC_BLOCK_POINTS // 8 // block)
    # the first block is ranked in two parts, its first _FIRST_BLOCK
    # iterations alone; the other blocks stay on the grid, each in one draw
    grid = {0, min(_FIRST_BLOCK, block), *range(block, iterations, block)}
    starts = sorted(s for s in grid if s < iterations)
    best = (0, math.inf, None)  # (inliers, mean inlier error, sample rows)
    for start, stop in zip(starts, starts[1:] + [iterations]):
        if start % chunk == 0:
            drawn = _ransac_samples(n, seed, start, min(start + chunk, iterations))
        idx = drawn[start % chunk : start % chunk + stop - start]
        models, ok = _sample_stack(a[idx], b[idx])
        errors, flagged = _sampson_stack(models, a, b)
        masks = (errors < inlier_threshold) & ~flagged
        counts = np.where(ok, masks.sum(axis=1), 0)
        top = int(counts.max())
        if top == n > best[0]:  # the first full consensus
            sample = idx[int(np.argmax(counts))]  # the earliest
            try:
                m, mask, on_all = _consensus_fit(a, b, sample, inlier_threshold)
            except EstimationFailedError:
                on_all = False
            if on_all:
                return m, mask
        if top == 0 or top < best[0]:
            continue
        # every tied row holds exactly `top` inliers, so their errors reshape
        # to (tied, top); each row's mean is the bits of that row's .mean()
        tied = np.flatnonzero(counts == top)
        means = errors[tied][masks[tied]].reshape(len(tied), top).mean(axis=1)
        k = int(np.argmin(means))  # the earliest of the lowest
        if top > best[0] or means[k] < best[1]:
            best = (top, float(means[k]), idx[tied[k]])
    if best[2] is None:
        raise EstimationFailedError("no RANSAC iteration produced a valid model")
    m, mask, _ = _consensus_fit(a, b, best[2], inlier_threshold)
    return m, mask


def _consensus_fit(a, b, sample, inlier_threshold):
    """(F, mask, on_all) of a RANSAC winner's sample.

    The sample is solved again with the SVD solver, and F is refit on the
    consensus set of that model. on_all is True when that model is ok and
    takes all n points, and the refit on all n keeps at least 8: the result
    that every all-inlier winner gives.
    """
    # the sample-stage models only rank: solve the winner with the SVD solver,
    # as a one-sample stack like the blocks the candidates were scored in
    models, ok = _eight_point_stack(a[sample][None], b[sample][None])
    errors, flagged = _sampson_stack(models, a, b)
    mask = (errors[0] < inlier_threshold) & ~flagged[0]
    model = models[0]
    count = int(mask.sum())
    if count < 8:
        raise EstimationFailedError(
            f"best consensus has only {count} inliers (need at least 8)"
        )
    try:
        refit = _eight_point_arrays(a[mask], b[mask])
    except DegenerateConfigurationError:
        return model, mask, False  # consensus set itself degenerate; keep the sample model
    errors, flagged = _sampson_stack(refit, a, b)
    final_mask = (errors < inlier_threshold) & ~flagged
    if int(final_mask.sum()) < 8:
        return model, mask, False  # refit drifted off the consensus; keep the sample mask
    return refit, final_mask, bool(ok[0] and mask.all())


def ransac_fundamental(
    correspondences,
    iterations: int = 2000,
    inlier_threshold: float = 1.0,
    seed: int = 0,
):
    """RANSAC over 8-point minimal samples; returns (FundamentalMatrix, inlier mask).

    Deterministic for a given seed: iteration i draws its sample as
    default_rng(seed ^ i).choice(n, 8, replace=False), so any evaluation
    order gives identical results. Consensus ties are broken by lower mean
    inlier Sampson error, then by the earlier iteration. The winning model
    is refit on its full consensus set.

    Minimal samples are ranked with QR null vectors, and with the SVD where
    R's diagonal spans more than QR_TRUST. The winning sample is then solved
    again with the SVD solver, so the returned F and mask always come from
    the SVD solver.

    The search stops at the first full consensus, a sample that takes all n
    correspondences as inliers, when that sample ends in the refit on all
    points, the result every all-inlier winner gives; otherwise ranking
    continues in the same pass, so no iteration is ranked twice.
    """
    a, b = correspondence_arrays(correspondences)
    n = len(a)
    if n < 8:
        raise ValueError(f"need at least 8 correspondences, got {n}")
    count = _as_type("iterations", iterations, "int")
    if count < 1:
        raise ValueError("iterations must be >= 1")
    if not math.isfinite(inlier_threshold):
        raise ValueError(f"inlier_threshold must be finite, got {inlier_threshold}")

    m, mask = _ransac(a, b, count, inlier_threshold, seed)
    return FundamentalMatrix(m, inlier_count=int(mask.sum()), method="eight_point"), mask


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
