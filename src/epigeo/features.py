"""Scale-space keypoints, gradient-histogram descriptors, ratio-test matching.

The classic difference-of-Gaussians detector: a Gaussian pyramid with
scales_per_octave + 3 levels per octave, 3x3x3 extrema with iterative
quadratic subpixel refinement, contrast and edge rejection, 36-bin
orientation assignment, and 4x4x8 gradient descriptors over a rotated
16x16 sample window. Matching is Lowe's ratio test with an optional
mutual-consistency filter.

The stages are build_scale_space(frame, params), detect_keypoints(pyramid,
params), compute_descriptors(pyramid, keypoints) and match_descriptors(desc_a,
desc_b, params); extract_features and match_frames chain them. Settings come
only from the FeatureParams record (defined in ``records``), which alone
declares their defaults and checks their ranges; the stages do not check
them again.

Every stage runs as array passes, not per keypoint, and gives the same bits
as a per-keypoint loop would. The extrema search compacts flat candidate
indices after each neighbour comparison. Refinement solves one stacked
(K, 3, 3) Hessian system per round, for at most 5 rounds. The contrast, edge
and bounds gates are array masks. Orientation histograms are gathered per
(octave, level) and window radius, one bincount per block, and their peaks
found with array ops. Descriptors are built per (octave, level) block the
same way. Scalars whose array form can round differently (powers of
sigma) are still computed per keypoint. A ScaleSpace differentiates a
Gaussian level (np.gradient: central differences inside, one-sided at the
border) on first request and keeps the result, so orientation assignment
and description differentiate each level once.

A keypoint set is an (N,) array of KEYPOINT_DTYPE, one row per keypoint,
from detection through descriptors to matching; compute_descriptors rejects
any other form. A match set is an (M, 2) integer array of (index_a, index_b)
rows into two frames' keypoint sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .image import Frame, gaussian_blur_array
from .records import FeatureParams

# descriptor layout: 4x4 spatial cells x 8 orientation bins
DESC_GRID = 4
DESC_BINS = 8
DESC_SIZE = DESC_GRID * DESC_GRID * DESC_BINS
DESC_WINDOW = 16          # samples per side, descriptor frame
DESC_CLIP = 0.2
ORI_BINS = 36
# keypoints whose orientation windows are gathered in one batched pass;
# bounds the (K, window) temporaries however many keypoints share a level
ORI_BLOCK_KEYPOINTS = 512
MIN_OCTAVE_DIM = 16


# one detected scale-space extremum; x, y and scale in original-image pixels
KEYPOINT_DTYPE = np.dtype([
    ("x", np.float64),
    ("y", np.float64),
    ("scale", np.float64),        # absolute sigma of the detection level, px
    ("orientation", np.float64),  # radians in [0, 2pi)
    ("response", np.float64),     # refined DoG contrast magnitude
    ("octave", np.intp),
    ("level", np.intp),
    ("x_octave", np.float64),     # subpixel position in octave sampling
    ("y_octave", np.float64),
    ("sigma_local", np.float64),  # sigma in octave sampling units
])


@dataclass
class FrameFeatures:
    """Described keypoints: row i of `descriptors` belongs to keypoints[i]."""

    keypoints: np.ndarray      # (N,) KEYPOINT_DTYPE
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
    # (octave, level) -> (gx, gy) of the levels differentiated so far
    _gradients: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def sigma_local(self, s) -> float:
        return self.base_sigma * 2.0 ** (s / self.scales_per_octave)

    def sigma_abs(self, o, s) -> float:
        return self.base_sigma * 2.0 ** (o + s / self.scales_per_octave)

    def gradients(self, o, s):
        """(gx, gy) of Gaussian level s of octave o, computed on first request and kept."""
        if (o, s) not in self._gradients:
            gy, gx = np.gradient(self.gaussians[o][s])
            self._gradients[o, s] = gx, gy
        return self._gradients[o, s]


def build_scale_space(frame: Frame, params: FeatureParams) -> ScaleSpace:
    """Gaussian pyramid plus DoG levels, params.octaves octaves deep.

    Octave o level s carries effective blur base_sigma * 2^(o + s/S); each
    new octave starts from the level with doubled sigma, downsampled by 2.
    """
    octaves, S, base_sigma = params.octaves, params.scales_per_octave, params.base_sigma
    min_dim = min(frame.width, frame.height)
    need = MIN_OCTAVE_DIM * 2**octaves
    if min_dim < need:
        raise ValueError(
            f"image {frame.width}x{frame.height} is too small for {octaves} octaves "
            f"(needs min dimension >= {need}); use fewer octaves"
        )
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


# the 26 neighbour offsets (ds, dy, dx), the 4 same-level ones first
_SAME_LEVEL = [(0, 0, -1), (0, 0, 1), (0, -1, 0), (0, 1, 0)]
_NEIGHBOURS = _SAME_LEVEL + [
    (ds, dy, dx) for ds in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
    if (ds, dy, dx) != (0, 0, 0) and (ds, dy, dx) not in _SAME_LEVEL
]


def _local_extrema(stack: np.ndarray, prefilter: float):
    """Strict 3x3x3 extrema of the middle layers of a (L, H, W) stack.

    Returns their (s, y, x) rows in np.argwhere order. The candidates are the
    interior samples above the prefilter, kept as flat indices; each of the
    26 neighbour comparisons drops the candidates it rules out, the 4
    same-level neighbours first because they rule out the most.
    """
    height, width = stack.shape[1:]
    candidate = np.zeros(stack.shape, dtype=bool)
    candidate[1:-1, 1:-1, 1:-1] = np.abs(stack[1:-1, 1:-1, 1:-1]) > prefilter
    idx = np.flatnonzero(candidate)
    flat = stack.ravel()
    value = flat[idx]
    is_max = np.ones(len(idx), dtype=bool)
    is_min = is_max.copy()
    for ds, dy, dx in _NEIGHBOURS:
        neigh = flat[idx + (ds * height + dy) * width + dx]
        is_max &= value > neigh
        is_min &= value < neigh
        keep = np.flatnonzero(is_max | is_min)
        idx, value, is_max, is_min = idx[keep], value[keep], is_max[keep], is_min[keep]
    return np.column_stack(np.unravel_index(idx, stack.shape))


def _grad_hessian(flat, idx, height, width):
    """DoG gradients (K, 3) and Hessians (K, 3, 3), in (s, y, x) order, at
    flat indices idx of a (L, height, width) stack."""

    def at(ds, dy, dx):
        return flat[idx + (ds * height + dy) * width + dx]

    c = at(0, 0, 0)
    g = np.column_stack([
        (at(1, 0, 0) - at(-1, 0, 0)) / 2.0,
        (at(0, 1, 0) - at(0, -1, 0)) / 2.0,
        (at(0, 0, 1) - at(0, 0, -1)) / 2.0,
    ])
    dss = at(1, 0, 0) + at(-1, 0, 0) - 2 * c
    dyy = at(0, 1, 0) + at(0, -1, 0) - 2 * c
    dxx = at(0, 0, 1) + at(0, 0, -1) - 2 * c
    dsy = (at(1, 1, 0) - at(1, -1, 0) - at(-1, 1, 0) + at(-1, -1, 0)) / 4.0
    dsx = (at(1, 0, 1) - at(1, 0, -1) - at(-1, 0, 1) + at(-1, 0, -1)) / 4.0
    dyx = (at(0, 1, 1) - at(0, 1, -1) - at(0, -1, 1) + at(0, -1, -1)) / 4.0
    h = np.column_stack([dss, dsy, dsx, dsy, dyy, dyx, dsx, dyx, dxx]).reshape(-1, 3, 3)
    return g, h


def _solve_offsets(h, g):
    """(offsets, solved): -solve(h[k], g[k]) per row, and which rows have a
    nonsingular Hessian. LinAlgError covers a whole stacked solve, so a
    stack holding a singular Hessian is solved again row by row; LAPACK
    gives each row the same result either way."""
    try:
        return -np.linalg.solve(h, g[:, :, None])[:, :, 0], np.ones(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        offsets = np.zeros_like(g)
        solved = np.ones(len(g), dtype=bool)
        for k in range(len(g)):
            try:
                offsets[k] = -np.linalg.solve(h[k], g[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return offsets, solved


def _refine(stack, extrema):
    """Iterative quadratic refinement of (K, 3) extrema, at most 5 rounds.

    Each round solves every unsettled extremum at once. One whose offset is
    within half a sample on every axis settles; the others move by their
    rounded offset, and are dropped when that leaves the interior or when
    their Hessian is singular. Returns, per settled extremum: its row in
    `extrema`, its final (s, y, x), offset, refined DoG value and Hessian.
    """
    n_layers, height, width = stack.shape
    flat = stack.ravel()
    interior = np.array([n_layers, height, width]) - 1
    row, pos = np.arange(len(extrema)), extrema
    settled_parts = [(row[:0], pos[:0], np.empty((0, 3)), np.empty(0), np.empty((0, 3, 3)))]
    for _ in range(5):
        if not len(row):
            break
        idx = (pos[:, 0] * height + pos[:, 1]) * width + pos[:, 2]
        g, h = _grad_hessian(flat, idx, height, width)
        offset, solved = _solve_offsets(h, g)
        settled = solved & np.all(np.abs(offset) <= 0.5, axis=1)
        # row by row g @ offset: a (1, 3) @ (3, 1) matmul is that dot product
        gain = (g[settled, None, :] @ offset[settled, :, None]).reshape(-1)
        settled_parts.append((row[settled], pos[settled], offset[settled],
                              flat[idx[settled]] + 0.5 * gain, h[settled]))
        moved = pos + np.round(offset)
        go_on = solved & ~settled & np.all((moved >= 1) & (moved < interior), axis=1)
        row, pos = row[go_on], moved[go_on].astype(np.intp)
    return [np.concatenate(part) for part in zip(*settled_parts)]


def _orientations(gx, gy, x, y, sigma_local):
    """Peaks of the 36-bin gradient-orientation histograms of keypoints at
    octave positions (x, y) and scales sigma_local on one gradient image.

    Returns (keypoint, theta) arrays, one entry per peak, in keypoint order
    and ascending bin within a keypoint. A keypoint's window is the disc of
    radius round(4.5 sigma) around its nearest sample. Keypoints are gathered
    per radius, in blocks of at most ORI_BLOCK_KEYPOINTS, and one bincount
    adds each bin's terms in the window's row-major order, as a per-keypoint
    histogram would.
    """
    height, width = gx.shape
    radius = np.maximum(np.round(4.5 * sigma_local).astype(np.intp), 1)
    cx, cy = np.round(x).astype(np.intp), np.round(y).astype(np.intp)
    # per keypoint in scalar arithmetic, which the array power can differ from
    spread = np.array([2.0 * (1.5 * s) ** 2 for s in sigma_local])
    hist = np.zeros((len(x), ORI_BINS))
    for r in np.unique(radius):
        same_radius = np.flatnonzero(radius == r)
        for start in range(0, len(same_radius), ORI_BLOCK_KEYPOINTS):
            group = same_radius[start : start + ORI_BLOCK_KEYPOINTS]
            ys = cy[group, None] + np.arange(-r, r + 1)
            xs = cx[group, None] + np.arange(-r, r + 1)
            dy2 = (ys - y[group, None]) ** 2
            dx2 = (xs - x[group, None]) ** 2
            d2 = dy2[:, :, None] + dx2[:, None, :]
            window = (((ys >= 0) & (ys < height))[:, :, None]
                      & ((xs >= 0) & (xs < width))[:, None, :] & (d2 <= r * r))
            k, i, j = np.nonzero(window)
            at = ys[k, i] * width + xs[k, j]
            wx, wy = gx.ravel()[at], gy.ravel()[at]
            weight = np.exp(-d2[k, i, j] / spread[group[k]]) * np.hypot(wx, wy)
            angles = np.mod(np.arctan2(wy, wx), 2.0 * np.pi)
            bins = np.minimum((angles / (2.0 * np.pi) * ORI_BINS).astype(int), ORI_BINS - 1)
            hist[group] = np.bincount(
                k * ORI_BINS + bins, weights=weight, minlength=len(group) * ORI_BINS
            ).reshape(-1, ORI_BINS)
    for _ in range(2):
        hist = (np.roll(hist, 1, axis=1) + hist + np.roll(hist, -1, axis=1)) / 3.0
    left, right = np.roll(hist, 1, axis=1), np.roll(hist, -1, axis=1)
    peak = hist.max(axis=1, keepdims=True)
    keypoint, b = np.nonzero((peak > 0) & (hist >= 0.8 * peak) & (hist > left) & (hist > right))
    left, mid, right = left[keypoint, b], hist[keypoint, b], right[keypoint, b]
    denom = left - 2.0 * mid + right
    delta = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom != 0)
    theta = (b + 0.5 + delta) * (2.0 * np.pi / ORI_BINS)
    return keypoint, np.mod(theta, 2.0 * np.pi)


def detect_keypoints(pyramid: ScaleSpace, params: FeatureParams) -> np.ndarray:
    """DoG extrema with subpixel refinement, contrast/edge gates, orientations.

    Reads params.contrast_threshold, edge_ratio_threshold and max_keypoints.
    Returns an (N,) KEYPOINT_DTYPE array in stable descending-response order,
    at most max_keypoints rows; before that sort, rows run in extremum order
    (by octave, then np.argwhere order) and by ascending orientation bin
    within an extremum. An empty array is a valid result. Orientations read
    pyramid.gradients, so the levels holding keypoints stay differentiated
    for compute_descriptors.
    """
    r = params.edge_ratio_threshold
    edge_limit = (r + 1.0) ** 2 / r
    found = []
    for o in range(pyramid.octaves):
        stack = np.stack(pyramid.dogs[o])
        # the extrema stay a temporary: bound to a name, they live through the
        # orientation pass, which raised png_cli's peak RSS by about 5 MB
        row, pos, offset, value, h = _refine(
            stack, _local_extrema(stack, 0.5 * params.contrast_threshold))
        # edge gate: the principal curvature ratio of the spatial 2x2 Hessian
        dxx, dyy, dxy = h[:, 2, 2], h[:, 1, 1], h[:, 1, 2]
        det = dxx * dyy - dxy * dxy
        trace = dxx + dyy
        keep = (np.abs(value) >= params.contrast_threshold) & (det > 0)
        keep[keep] = trace[keep] * trace[keep] / det[keep] < edge_limit
        x_oct = pos[:, 2] + offset[:, 2]
        y_oct = pos[:, 1] + offset[:, 1]
        x_img = x_oct * 2**o
        y_img = y_oct * 2**o
        keep &= (0 <= x_img) & (x_img < pyramid.width) & (0 <= y_img) & (y_img < pyramid.height)
        keep = np.flatnonzero(keep)
        # per keypoint in scalar arithmetic, which the array power can differ from
        sigma_local = np.zeros(len(pos))
        sigma_local[keep] = [pyramid.sigma_local(s) for s in pos[keep, 0] + offset[keep, 0]]
        peaks, thetas = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for s in np.unique(pos[keep, 0]):
            members = keep[pos[keep, 0] == s]
            gx, gy = pyramid.gradients(o, int(s))
            k, theta = _orientations(
                gx, gy, x_oct[members], y_oct[members], sigma_local[members])
            peaks.append(members[k])
            thetas.append(theta)
        # back from level order to extremum order
        peaks = np.concatenate(peaks)
        order = np.argsort(row[peaks], kind="stable")
        k, theta = peaks[order], np.concatenate(thetas)[order]
        rows = np.empty(len(k), dtype=KEYPOINT_DTYPE)
        rows["x"], rows["y"], rows["scale"] = x_img[k], y_img[k], sigma_local[k] * 2**o
        rows["orientation"], rows["response"] = theta, np.abs(value[k])
        rows["octave"], rows["level"] = o, pos[k, 0]
        rows["x_octave"], rows["y_octave"], rows["sigma_local"] = x_oct[k], y_oct[k], sigma_local[k]
        found.append(rows)
    rows = np.concatenate(found)
    return rows[np.argsort(-rows["response"], kind="stable")[:params.max_keypoints]]


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


def _bilinear_taps(xs, ys, width):
    """Flat indices of the four neighbours of each sample (xs, ys) in an
    image `width` wide, with the row and column weights of each."""
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = xs - x0
    fy = ys - y0
    at = y0 * width + x0
    return ((at, 1 - fy, 1 - fx), (at + 1, 1 - fy, fx),
            (at + width, fy, 1 - fx), (at + width + 1, fy, fx))


def _bilinear(img, taps):
    """img bilinearly sampled at the points of _bilinear_taps, each term
    weighted row first, then column."""
    flat = img.ravel()
    (a, wa, va), (b, wb, vb), (c, wc, vc), (d, wd, vd) = taps
    return flat[a] * wa * va + flat[b] * wb * vb + flat[c] * wc * vc + flat[d] * wd * vd


# pixels between adjacent descriptor samples, per unit of keypoint sigma;
# the 16-sample window then spans 12 sigma, wide enough to include context
DESC_SAMPLE_SPACING = 0.75


# keypoints described in one batched pass; bounds the (K, 256) sample and
# (K, 14, 14) corner temporaries however many keypoints share an (octave, level)
DESC_BLOCK_KEYPOINTS = 256


def _spatial_corners():
    """The four spatial corners of each sample's trilinear spread.

    Per corner (dr, dc), in accumulation order: the rows and the columns of
    the 16x16 sample grid whose corner cell lies in the 4x4 grid (a
    rectangle, as two slices), their row and column weights, and each
    sample's first histogram bin of that cell.
    """
    cell_r = _CELL_R.reshape(DESC_WINDOW, DESC_WINDOW)[:, 0]
    cell_c = _CELL_C.reshape(DESC_WINDOW, DESC_WINDOW)[0]
    r0 = np.floor(cell_r).astype(int)
    c0 = np.floor(cell_c).astype(int)
    fr = cell_r - r0
    fc = cell_c - c0

    def within(cells):
        inside = np.flatnonzero((cells >= 0) & (cells < DESC_GRID))
        return slice(inside[0], inside[-1] + 1)

    corners = []
    for dr, wr in ((0, 1 - fr), (1, fr)):
        rows = within(r0 + dr)
        for dc, wc in ((0, 1 - fc), (1, fc)):
            cols = within(c0 + dc)
            cell = ((r0[rows, None] + dr) * DESC_GRID + c0[None, cols] + dc) * DESC_BINS
            corners.append((rows, cols, wr[rows, None], wc[None, cols], cell))
    return tuple(corners)


_SPATIAL_CORNERS = _spatial_corners()


def _describe_block(gx, gy, kps):
    """Descriptors of keypoints (a KEYPOINT_DTYPE array) sharing one gradient image.

    Returns (kept, rows): a mask over `kps` of those whose sample window fits
    the image and whose histogram is not empty, and their (kept.sum(), 128)
    unit descriptor rows. Every bin sums its terms in the order of a
    per-keypoint np.add.at over the eight trilinear corners, and each row is
    normalized by its np.linalg.norm, so the rows are bit-identical to
    describing the keypoints one at a time.
    """
    height, width = gx.shape
    theta = kps["orientation"][:, None]
    spacing = DESC_SAMPLE_SPACING * kps["sigma_local"][:, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    u = _DESC_UU.ravel() * spacing
    v = _DESC_VV.ravel() * spacing
    sx = kps["x_octave"][:, None] + cos_t * u - sin_t * v
    sy = kps["y_octave"][:, None] + sin_t * u + cos_t * v
    inside = (
        (sx.min(axis=1) >= 0) & (sy.min(axis=1) >= 0)
        & (sx.max(axis=1) < width - 1) & (sy.max(axis=1) < height - 1)
    )
    sx, sy, theta = sx[inside], sy[inside], theta[inside]
    taps = _bilinear_taps(sx, sy, width)
    gxs = _bilinear(gx, taps)
    gys = _bilinear(gy, taps)
    mag = np.hypot(gxs, gys) * _DESC_GAUSS
    ang = np.mod(np.arctan2(gys, gxs) - theta, 2.0 * np.pi)
    n = len(gxs)
    grid = (n, DESC_WINDOW, DESC_WINDOW)
    obin = (ang / (2.0 * np.pi) * DESC_BINS).reshape(grid)
    o0 = np.floor(obin).astype(int)
    fo = obin - o0
    orientation_corners = ((o0 % DESC_BINS, 1 - fo), ((o0 + 1) % DESC_BINS, fo))
    mag = mag.reshape(grid)

    # one np.add.at per trilinear corner, in order, each over its rectangle of
    # samples in row-major order: every bin sums its terms in the per-keypoint order
    hist = np.zeros(n * DESC_SIZE)
    row_start = np.arange(n)[:, None, None] * DESC_SIZE
    for rows, cols, wr, wc, cell in _SPATIAL_CORNERS:
        spatial = mag[:, rows, cols] * wr * wc
        for obins, wo in orientation_corners:
            bins = (row_start + cell + obins[:, rows, cols]).ravel()  # 1-d: add.at's fast path
            np.add.at(hist, bins, (spatial * wo[:, rows, cols]).ravel())
    hist = hist.reshape(n, DESC_SIZE)

    norms = _row_norms(hist)
    nonzero = norms >= 1e-12
    clipped = np.minimum(hist[nonzero] / norms[nonzero, None], DESC_CLIP)
    clipped /= _row_norms(clipped)[:, None]
    kept = inside.copy()
    kept[inside] = nonzero
    return kept, clipped


def _row_norms(m):
    """np.linalg.norm of each row of m, bit for bit: the same row dot product."""
    return np.sqrt(m[:, None, :] @ m[:, :, None]).reshape(-1)


def compute_descriptors(pyramid: ScaleSpace, keypoints: np.ndarray) -> FrameFeatures:
    """Descriptors for keypoints whose sample window fits their octave image.

    `keypoints` must be an (N,) KEYPOINT_DTYPE array; anything else is a
    TypeError, and an octave or level the pyramid lacks is a ValueError.
    Returns FrameFeatures: kept keypoints in input order, their (N, 128)
    descriptor rows, and the count of keypoints skipped because the window
    left the image (or, degenerately, held no gradient). Gradients come from
    pyramid.gradients: a level detect_keypoints differentiated is not
    differentiated again.
    """
    if not (isinstance(keypoints, np.ndarray) and keypoints.dtype == KEYPOINT_DTYPE
            and keypoints.ndim == 1):
        raise TypeError("keypoints must be a 1-D KEYPOINT_DTYPE array")
    octave, level = keypoints["octave"], keypoints["level"]
    if np.any((octave < 0) | (octave >= pyramid.octaves) | (level < 0)
              | (level >= len(pyramid.gaussians[0]))):
        raise ValueError("keypoint octave or level lies outside the pyramid")
    kept = np.zeros(len(keypoints), dtype=bool)
    desc = np.empty((len(keypoints), DESC_SIZE))
    for o, s in np.unique(np.column_stack([octave, level]), axis=0).tolist():
        gx, gy = pyramid.gradients(o, s)
        members = np.flatnonzero((octave == o) & (level == s))
        for start in range(0, len(members), DESC_BLOCK_KEYPOINTS):
            block = members[start : start + DESC_BLOCK_KEYPOINTS]
            ok, rows = _describe_block(gx, gy, keypoints[block])
            kept[block[ok]] = True
            desc[block[ok]] = rows
    return FrameFeatures(keypoints[kept], desc[kept], len(keypoints) - int(kept.sum()))


# ---------------------------------------------------------------------------
# matching


def match_descriptors(desc_a, desc_b, params: FeatureParams) -> np.ndarray:
    """Lowe ratio matching from a to b at params.ratio_threshold.

    Returns an (M, 2) intp array of (index_a, index_b) rows in ascending
    index_a. A query with no second neighbor, or whose two nearest distances
    are both zero, gets ratio 0 (always passes). With params.mutual a match
    must also be b's best partner for that query.
    """
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
    keep = d2.argmin(axis=0)[nearest] == queries if params.mutual else np.ones(len(a), bool)
    # recompute the winning distances directly: the quadratic expansion
    # loses precision exactly where it matters, near zero
    best = np.linalg.norm(a - b[nearest], axis=1)
    d2[queries, nearest] = np.inf
    second = np.sqrt(d2.min(axis=1))  # inf when b has one row
    ratio = np.divide(best, second, out=np.zeros_like(best), where=second > 0)
    keep &= ratio < params.ratio_threshold
    return np.column_stack([queries[keep], nearest[keep]])


# ---------------------------------------------------------------------------
# one-call extraction and frame matching


def extract_features(frame: Frame, params: FeatureParams | None = None) -> FrameFeatures:
    """Detect, orient, and describe in one call, honoring params.max_dim.

    Each Gaussian level is differentiated once, by the pyramid, for both
    orientations and descriptors.
    """
    from .image import resize_max_dim

    params = params or FeatureParams()
    scale = 1.0
    work = frame
    if params.max_dim is not None and max(frame.width, frame.height) > params.max_dim:
        work, scale = resize_max_dim(frame, params.max_dim)
    pyramid = build_scale_space(work, params)
    kps = detect_keypoints(pyramid, params)
    # description reads no DoG level: free them before its temporaries, which
    # outweigh the gradients the pyramid keeps
    pyramid.dogs.clear()
    feats = compute_descriptors(pyramid, kps)
    if scale != 1.0:
        # report positions in original-frame pixels
        for name in ("x", "y", "scale"):
            feats.keypoints[name] /= scale
    return feats


def match_frames(feats_a: FrameFeatures, feats_b: FrameFeatures, params: FeatureParams | None = None):
    """Ratio-test matching of two frames' features; returns (points_a, points_b, pairs).

    pairs is the (M, 2) index array of match_descriptors; row k of points_a
    and points_b holds the pixel positions (x, y) of the keypoints of pairs[k].
    """
    params = params or FeatureParams()
    pairs = match_descriptors(feats_a.descriptors, feats_b.descriptors, params)
    a = feats_a.keypoints[pairs[:, 0]]
    b = feats_b.keypoints[pairs[:, 1]]
    return np.column_stack([a["x"], a["y"]]), np.column_stack([b["x"], b["y"]]), pairs
