"""Scale-space keypoints, gradient-histogram descriptors, ratio-test matching.

The classic difference-of-Gaussians detector: a Gaussian pyramid with
scales_per_octave + 3 levels per octave, 3x3x3 extrema with iterative
quadratic subpixel refinement, contrast and edge rejection, 36-bin
orientation assignment, and 4x4x8 gradient descriptors over a rotated
16x16 sample window. Matching is Lowe's ratio test with an optional
mutual-consistency filter.

A match set is an (M, 2) integer array of (index_a, index_b) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import Frame, gaussian_blur_array

# descriptor layout: 4x4 spatial cells x 8 orientation bins
DESC_GRID = 4
DESC_BINS = 8
DESC_SIZE = DESC_GRID * DESC_GRID * DESC_BINS
DESC_WINDOW = 16          # samples per side, descriptor frame
DESC_CLIP = 0.2
ORI_BINS = 36
MIN_OCTAVE_DIM = 16


@dataclass(frozen=True)
class FeatureParams:
    """Detector, descriptor, and matcher settings (canonical defaults)."""

    octaves: int = 4
    scales_per_octave: int = 3
    base_sigma: float = 1.6
    contrast_threshold: float = 0.03
    edge_ratio_threshold: float = 10.0
    ratio_threshold: float = 0.8
    mutual: bool = True
    max_keypoints: int = 2000
    max_dim: int | None = None

    def __post_init__(self):
        if self.octaves < 1:
            raise ValueError("octaves must be >= 1")
        if self.scales_per_octave < 3:
            raise ValueError("scales_per_octave must be >= 3")
        if self.base_sigma <= 0:
            raise ValueError("base_sigma must be positive")
        if self.contrast_threshold < 0:
            raise ValueError("contrast_threshold must be >= 0")
        if self.edge_ratio_threshold <= 0:
            raise ValueError("edge_ratio_threshold must be positive")
        if not 0.0 < self.ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must be in (0, 1]")
        if self.max_keypoints < 1:
            raise ValueError("max_keypoints must be >= 1")
        if self.max_dim is not None and self.max_dim < 16:
            raise ValueError("max_dim must be None or >= 16")


@dataclass
class Keypoint:
    """Detected scale-space extremum in original-image pixel coordinates."""

    x: float
    y: float
    scale: float               # absolute sigma of the detection level, px
    orientation: float         # radians in [0, 2pi)
    response: float            # refined DoG contrast magnitude
    octave: int = 0
    level: int = 0
    x_octave: float = 0.0      # subpixel position in octave sampling
    y_octave: float = 0.0
    sigma_local: float = 0.0   # sigma in octave sampling units


@dataclass
class FrameFeatures:
    """Keypoints with their descriptors; rows of `descriptors` align with keypoints."""

    keypoints: list
    descriptors: np.ndarray    # (N, 128) float64, unit L2 rows
    skipped: int = 0


@dataclass
class ScaleSpace:
    gaussians: list            # per octave: list of 2D arrays, S + 3 levels
    dogs: list                 # per octave: list of 2D arrays, S + 2 levels
    octaves: int
    scales_per_octave: int
    base_sigma: float
    width: int                 # original frame size
    height: int

    def sigma_local(self, s) -> float:
        return self.base_sigma * 2.0 ** (s / self.scales_per_octave)

    def sigma_abs(self, o, s) -> float:
        return self.base_sigma * 2.0 ** (o + s / self.scales_per_octave)


def build_scale_space(
    frame: Frame,
    octaves: int = 4,
    scales_per_octave: int = 3,
    base_sigma: float = 1.6,
) -> ScaleSpace:
    """Gaussian pyramid plus DoG levels.

    Octave o level s carries effective blur base_sigma * 2^(o + s/S); each
    new octave starts from the level with doubled sigma, downsampled by 2.
    """
    if octaves < 1:
        raise ValueError("octaves must be >= 1")
    if scales_per_octave < 3:
        raise ValueError("scales_per_octave must be >= 3")
    min_dim = min(frame.width, frame.height)
    need = MIN_OCTAVE_DIM * 2**octaves
    if min_dim < need:
        raise ValueError(
            f"image {frame.width}x{frame.height} is too small for {octaves} octaves "
            f"(needs min dimension >= {need}); use fewer octaves"
        )
    S = scales_per_octave
    sig = [base_sigma * 2.0 ** (s / S) for s in range(S + 3)]
    deltas = [np.sqrt(sig[s] ** 2 - sig[s - 1] ** 2) for s in range(1, S + 3)]

    gaussians = []
    dogs = []
    current = gaussian_blur_array(frame.pixels, base_sigma)
    for _ in range(octaves):
        levels = [current]
        for d in deltas:
            levels.append(gaussian_blur_array(levels[-1], d))
        gaussians.append(levels)
        dogs.append([levels[s + 1] - levels[s] for s in range(S + 2)])
        current = levels[S][::2, ::2]
    return ScaleSpace(
        gaussians, dogs, octaves, S, base_sigma, frame.width, frame.height
    )


# ---------------------------------------------------------------------------
# detection


def _local_extrema(stack: np.ndarray, prefilter: float):
    """Strict 3x3x3 extrema of the middle layers of a (L, H, W) stack."""
    center = stack[1:-1, 1:-1, 1:-1]
    is_max = np.abs(center) > prefilter
    is_min = is_max.copy()
    for ds in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if ds == dy == dx == 0:
                    continue
                neigh = stack[
                    1 + ds : stack.shape[0] - 1 + ds,
                    1 + dy : stack.shape[1] - 1 + dy,
                    1 + dx : stack.shape[2] - 1 + dx,
                ]
                is_max &= center > neigh
                is_min &= center < neigh
                if not (is_max.any() or is_min.any()):
                    return np.empty((0, 3), dtype=np.int64)
    return np.argwhere(is_max | is_min) + 1


def _grad_hessian(stack, s, y, x):
    g = np.array(
        [
            (stack[s + 1, y, x] - stack[s - 1, y, x]) / 2.0,
            (stack[s, y + 1, x] - stack[s, y - 1, x]) / 2.0,
            (stack[s, y, x + 1] - stack[s, y, x - 1]) / 2.0,
        ]
    )
    c = stack[s, y, x]
    dss = stack[s + 1, y, x] + stack[s - 1, y, x] - 2 * c
    dyy = stack[s, y + 1, x] + stack[s, y - 1, x] - 2 * c
    dxx = stack[s, y, x + 1] + stack[s, y, x - 1] - 2 * c
    dsy = (stack[s + 1, y + 1, x] - stack[s + 1, y - 1, x]
           - stack[s - 1, y + 1, x] + stack[s - 1, y - 1, x]) / 4.0
    dsx = (stack[s + 1, y, x + 1] - stack[s + 1, y, x - 1]
           - stack[s - 1, y, x + 1] + stack[s - 1, y, x - 1]) / 4.0
    dyx = (stack[s, y + 1, x + 1] - stack[s, y + 1, x - 1]
           - stack[s, y - 1, x + 1] + stack[s, y - 1, x - 1]) / 4.0
    h = np.array([[dss, dsy, dsx], [dsy, dyy, dyx], [dsx, dyx, dxx]])
    return g, h


def _refine(stack, s, y, x, n_layers, height, width):
    """Iterative quadratic refinement; returns (s, y, x, offset, value) or None."""
    for _ in range(5):
        g, h = _grad_hessian(stack, s, y, x)
        try:
            offset = -np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            return None
        if np.all(np.abs(offset) <= 0.5):
            value = stack[s, y, x] + 0.5 * float(g @ offset)
            return s, y, x, offset, value
        s += int(np.round(offset[0]))
        y += int(np.round(offset[1]))
        x += int(np.round(offset[2]))
        if not (1 <= s < n_layers - 1 and 1 <= y < height - 1 and 1 <= x < width - 1):
            return None
    return None


def _gradients(img):
    """(gx, gy): central differences inside, one-sided at the border."""
    gy = np.empty_like(img)
    gx = np.empty_like(img)
    gy[1:-1] = (img[2:] - img[:-2]) / 2.0
    gy[0] = img[1] - img[0]
    gy[-1] = img[-1] - img[-2]
    gx[:, 1:-1] = (img[:, 2:] - img[:, :-2]) / 2.0
    gx[:, 0] = img[:, 1] - img[:, 0]
    gx[:, -1] = img[:, -1] - img[:, -2]
    return gx, gy


def _orientations(gx, gy, x, y, sigma_local):
    """Peaks of the 36-bin gradient-orientation histogram around (x, y)."""
    height, width = gx.shape
    radius = max(int(np.round(4.5 * sigma_local)), 1)
    cx, cy = int(np.round(x)), int(np.round(y))
    x0, x1 = max(cx - radius, 0), min(cx + radius + 1, width)
    y0, y1 = max(cy - radius, 0), min(cy + radius + 1, height)
    if x1 <= x0 or y1 <= y0:
        return []
    wx = gx[y0:y1, x0:x1]
    wy = gy[y0:y1, x0:x1]
    xs = np.arange(x0, x1, dtype=np.float64) - x
    ys = np.arange(y0, y1, dtype=np.float64) - y
    d2 = ys[:, None] ** 2 + xs[None, :] ** 2
    weight = np.exp(-d2 / (2.0 * (1.5 * sigma_local) ** 2)) * np.hypot(wx, wy)
    mask = d2 <= radius**2
    angles = np.mod(np.arctan2(wy, wx), 2.0 * np.pi)
    bins = np.minimum((angles / (2.0 * np.pi) * ORI_BINS).astype(int), ORI_BINS - 1)
    hist = np.bincount(bins[mask].ravel(), weights=weight[mask].ravel(), minlength=ORI_BINS)
    for _ in range(2):
        hist = (np.roll(hist, 1) + hist + np.roll(hist, -1)) / 3.0
    peak = hist.max()
    if peak <= 0:
        return []
    out = []
    for b in range(ORI_BINS):
        left, right = hist[(b - 1) % ORI_BINS], hist[(b + 1) % ORI_BINS]
        if hist[b] >= 0.8 * peak and hist[b] > left and hist[b] > right:
            denom = left - 2.0 * hist[b] + right
            delta = 0.5 * (left - right) / denom if denom != 0 else 0.0
            theta = (b + 0.5 + delta) * (2.0 * np.pi / ORI_BINS)
            out.append(theta % (2.0 * np.pi))
    return out


def detect_keypoints(
    pyramid: ScaleSpace,
    contrast_threshold: float = 0.03,
    edge_ratio_threshold: float = 10.0,
    max_keypoints: int = 2000,
) -> list:
    """DoG extrema with subpixel refinement, contrast/edge gates, orientations.

    Keypoints are returned in descending-response order, at most
    max_keypoints of them. An empty list is a valid result.
    """
    r = edge_ratio_threshold
    edge_limit = (r + 1.0) ** 2 / r
    grad_cache = {}
    keypoints = []
    for o in range(pyramid.octaves):
        stack = np.stack(pyramid.dogs[o])
        n_layers, height, width = stack.shape
        for s, y, x in _local_extrema(stack, 0.5 * contrast_threshold):
            refined = _refine(stack, int(s), int(y), int(x), n_layers, height, width)
            if refined is None:
                continue
            s0, y0, x0, offset, value = refined
            if abs(value) < contrast_threshold:
                continue
            d = stack[s0]
            dxx = d[y0, x0 + 1] + d[y0, x0 - 1] - 2 * d[y0, x0]
            dyy = d[y0 + 1, x0] + d[y0 - 1, x0] - 2 * d[y0, x0]
            dxy = (d[y0 + 1, x0 + 1] - d[y0 + 1, x0 - 1]
                   - d[y0 - 1, x0 + 1] + d[y0 - 1, x0 - 1]) / 4.0
            det = dxx * dyy - dxy * dxy
            trace = dxx + dyy
            if det <= 0 or trace * trace / det >= edge_limit:
                continue
            x_oct = x0 + offset[2]
            y_oct = y0 + offset[1]
            x_img = x_oct * 2**o
            y_img = y_oct * 2**o
            if not (0 <= x_img < pyramid.width and 0 <= y_img < pyramid.height):
                continue
            sigma_local = pyramid.base_sigma * 2.0 ** (
                (s0 + offset[0]) / pyramid.scales_per_octave
            )
            if (o, s0) not in grad_cache:
                grad_cache[o, s0] = _gradients(pyramid.gaussians[o][s0])
            gx, gy = grad_cache[o, s0]
            for theta in _orientations(gx, gy, x_oct, y_oct, sigma_local):
                keypoints.append(
                    Keypoint(
                        x=float(x_img),
                        y=float(y_img),
                        scale=float(sigma_local * 2**o),
                        orientation=float(theta),
                        response=float(abs(value)),
                        octave=o,
                        level=s0,
                        x_octave=float(x_oct),
                        y_octave=float(y_oct),
                        sigma_local=float(sigma_local),
                    )
                )
    order = np.argsort([-kp.response for kp in keypoints], kind="stable")
    return [keypoints[i] for i in order[:max_keypoints]]


# ---------------------------------------------------------------------------
# descriptors

# precomputed descriptor-frame sample offsets and weights
_DESC_HALF = (DESC_WINDOW - 1) / 2.0
_DESC_U = np.arange(DESC_WINDOW, dtype=np.float64) - _DESC_HALF
_DESC_UU, _DESC_VV = np.meshgrid(_DESC_U, _DESC_U)
_DESC_GAUSS = np.exp(
    -(_DESC_UU**2 + _DESC_VV**2) / (2.0 * (DESC_WINDOW / 2.0) ** 2)
).ravel()
_CELL_R = (_DESC_VV / (DESC_WINDOW / DESC_GRID) + (DESC_GRID - 1) / 2.0).ravel()
_CELL_C = (_DESC_UU / (DESC_WINDOW / DESC_GRID) + (DESC_GRID - 1) / 2.0).ravel()


def _bilinear(img, xs, ys):
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    return (
        img[y0, x0] * (1 - fy) * (1 - fx)
        + img[y0, x0 + 1] * (1 - fy) * fx
        + img[y0 + 1, x0] * fy * (1 - fx)
        + img[y0 + 1, x0 + 1] * fy * fx
    )


# pixels between adjacent descriptor samples, per unit of keypoint sigma;
# the 16-sample window then spans 12 sigma, wide enough to include context
DESC_SAMPLE_SPACING = 0.75


# keypoints described in one batched pass; bounds the (K, 256) and
# (K, ~1600) temporaries however many keypoints share an (octave, level)
DESC_BLOCK_KEYPOINTS = 256


def _spatial_corners():
    """The four spatial corners of each sample's trilinear spread.

    Per corner (dr, dc), in accumulation order: the samples whose corner cell
    lies in the 4x4 grid, their row and column weights, and that cell's first
    histogram bin.
    """
    r0 = np.floor(_CELL_R).astype(int)
    c0 = np.floor(_CELL_C).astype(int)
    fr = _CELL_R - r0
    fc = _CELL_C - c0
    corners = []
    for dr, wr in ((0, 1 - fr), (1, fr)):
        rr = r0 + dr
        for dc, wc in ((0, 1 - fc), (1, fc)):
            cc = c0 + dc
            sel = np.flatnonzero((rr >= 0) & (rr < DESC_GRID) & (cc >= 0) & (cc < DESC_GRID))
            corners.append((sel, wr[sel], wc[sel], (rr[sel] * DESC_GRID + cc[sel]) * DESC_BINS))
    return tuple(corners)


_SPATIAL_CORNERS = _spatial_corners()


def _describe_block(gx, gy, kps):
    """Descriptors of keypoints sharing one gradient image.

    Returns (kept, rows): a mask over `kps` of those whose sample window fits
    the image and whose histogram is not empty, and their (kept.sum(), 128)
    unit descriptor rows. Every bin sums its terms in the order of a
    per-keypoint np.add.at over the eight trilinear corners, and each row is
    normalized by np.linalg.norm of that row, so the rows are bit-identical
    to describing the keypoints one at a time.
    """
    height, width = gx.shape
    theta = np.array([kp.orientation for kp in kps])[:, None]
    spacing = DESC_SAMPLE_SPACING * np.array([kp.sigma_local for kp in kps])[:, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    u = _DESC_UU.ravel() * spacing
    v = _DESC_VV.ravel() * spacing
    sx = np.array([kp.x_octave for kp in kps])[:, None] + cos_t * u - sin_t * v
    sy = np.array([kp.y_octave for kp in kps])[:, None] + sin_t * u + cos_t * v
    inside = (
        (sx.min(axis=1) >= 0) & (sy.min(axis=1) >= 0)
        & (sx.max(axis=1) < width - 1) & (sy.max(axis=1) < height - 1)
    )
    sx, sy, theta = sx[inside], sy[inside], theta[inside]
    gxs = _bilinear(gx, sx, sy)
    gys = _bilinear(gy, sx, sy)
    mag = np.hypot(gxs, gys) * _DESC_GAUSS
    ang = np.mod(np.arctan2(gys, gxs) - theta, 2.0 * np.pi)
    obin = ang / (2.0 * np.pi) * DESC_BINS
    o0 = np.floor(obin).astype(int)
    fo = obin - o0

    # (K, terms) weights and bins, corner-major within each row, so one
    # bincount adds every bin's terms in the per-keypoint order
    weights, bins = [], []
    for sel, wr, wc, cell in _SPATIAL_CORNERS:
        spatial = mag[:, sel] * wr * wc
        for do, wo in ((0, 1 - fo), (1, fo)):
            weights.append(spatial * wo[:, sel])
            bins.append(cell + (o0[:, sel] + do) % DESC_BINS)
    n = len(mag)
    offsets = np.arange(n)[:, None] * DESC_SIZE
    hist = np.bincount(
        (np.concatenate(bins, axis=1) + offsets).ravel(),
        np.concatenate(weights, axis=1).ravel(),
        minlength=n * DESC_SIZE,
    ).reshape(n, DESC_SIZE)

    norms = np.array([np.linalg.norm(h) for h in hist])
    nonzero = norms >= 1e-12
    clipped = np.minimum(hist[nonzero] / norms[nonzero, None], DESC_CLIP)
    clipped /= np.array([np.linalg.norm(c) for c in clipped])[:, None]
    kept = inside.copy()
    kept[inside] = nonzero
    return kept, clipped


def compute_descriptors(pyramid: ScaleSpace, keypoints):
    """Descriptors for keypoints whose sample window fits their octave image.

    Returns FrameFeatures: kept keypoints in input order, their (N, 128)
    descriptor rows, and the count of keypoints skipped because the window
    left the image (or, degenerately, held no gradient).
    """
    by_level = {}
    for i, kp in enumerate(keypoints):
        by_level.setdefault((kp.octave, kp.level), []).append(i)
    kept = np.zeros(len(keypoints), dtype=bool)
    desc = np.empty((len(keypoints), DESC_SIZE))
    for (o, s), members in by_level.items():
        gx, gy = _gradients(pyramid.gaussians[o][s])
        for start in range(0, len(members), DESC_BLOCK_KEYPOINTS):
            block = np.array(members[start : start + DESC_BLOCK_KEYPOINTS])
            ok, rows = _describe_block(gx, gy, [keypoints[i] for i in block])
            kept[block[ok]] = True
            desc[block[ok]] = rows
    kps = [kp for kp, k in zip(keypoints, kept) if k]
    return FrameFeatures(kps, desc[kept], len(keypoints) - len(kps))


# ---------------------------------------------------------------------------
# matching


def match_descriptors(
    desc_a, desc_b, ratio_threshold: float = 0.8, mutual: bool = True
) -> np.ndarray:
    """Lowe ratio matching from a to b.

    Returns an (M, 2) intp array of (index_a, index_b) rows in ascending
    index_a. A query with no second neighbor, or whose two nearest distances
    are both zero, gets ratio 0 (always passes). With mutual=True a match
    must also be b's best partner for that query.
    """
    if not 0.0 < ratio_threshold <= 1.0:
        raise ValueError("ratio_threshold must be in (0, 1]")
    a = np.asarray(desc_a, dtype=np.float64)
    b = np.asarray(desc_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    d2 = np.maximum(
        (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T),
        0.0,
    )
    queries = np.arange(len(a))
    nearest = d2.argmin(axis=1)
    # mutual check first: d2 is masked in place below
    keep = d2.argmin(axis=0)[nearest] == queries if mutual else np.ones(len(a), bool)
    # recompute the winning distances directly: the quadratic expansion
    # loses precision exactly where it matters, near zero
    best = np.linalg.norm(a - b[nearest], axis=1)
    d2[queries, nearest] = np.inf
    second = np.sqrt(d2.min(axis=1))  # inf when b has one row
    ratio = np.divide(best, second, out=np.zeros_like(best), where=second > 0)
    keep &= ratio < ratio_threshold
    return np.column_stack([queries[keep], nearest[keep]])


# ---------------------------------------------------------------------------
# one-call extraction and frame matching


def extract_features(frame: Frame, params: FeatureParams | None = None) -> FrameFeatures:
    """Detect, orient, and describe in one call, honoring params.max_dim."""
    from .image import resize_max_dim

    params = params or FeatureParams()
    scale = 1.0
    work = frame
    if params.max_dim is not None and max(frame.width, frame.height) > params.max_dim:
        work, scale = resize_max_dim(frame, params.max_dim)
    pyramid = build_scale_space(
        work, params.octaves, params.scales_per_octave, params.base_sigma
    )
    kps = detect_keypoints(
        pyramid,
        params.contrast_threshold,
        params.edge_ratio_threshold,
        params.max_keypoints,
    )
    feats = compute_descriptors(pyramid, kps)
    if scale != 1.0:
        # report positions in original-frame pixels
        for kp in feats.keypoints:
            kp.x /= scale
            kp.y /= scale
            kp.scale /= scale
    return feats


def _positions(feats: FrameFeatures) -> np.ndarray:
    return np.array([(kp.x, kp.y) for kp in feats.keypoints], dtype=np.float64).reshape(-1, 2)


def match_frames(feats_a: FrameFeatures, feats_b: FrameFeatures, params: FeatureParams | None = None):
    """Ratio-test matching of two frames' features; returns (points_a, points_b, pairs).

    pairs is the (M, 2) index array of match_descriptors; row k of points_a
    and points_b holds the pixel positions of the keypoints of pairs[k].
    """
    params = params or FeatureParams()
    pairs = match_descriptors(
        feats_a.descriptors, feats_b.descriptors, params.ratio_threshold, params.mutual
    )
    return _positions(feats_a)[pairs[:, 0]], _positions(feats_b)[pairs[:, 1]], pairs
