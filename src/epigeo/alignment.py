"""Preference alignment objective for rectified-flow video models.

Implements the Flow-DPO loss: pairs of (winner, loser) latent clips are noised
along straight-line interpolations, and the objective rewards the trained
velocity field for beating a frozen reference on winners more than on losers.
A temporal-variation penalty keeps the one-step clean-sample reconstruction
from collapsing to static output.

Everything here is small and exact on purpose: clips are plain (frames, dims)
arrays, the demonstrator model is linear in its inputs, gradients are written
out analytically, and a finite-difference checker verifies them.  Margin, loss
and gradient come from one forward pass over an item, validated once.  The
clean-sample convention lives in _clean_sample and the temporal variance in
_temporal_variance, and every caller reads them there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import (
    DEFAULT_BETA,
    DEFAULT_CLEAN_MODE,
    DEFAULT_CLIP_DIMS,
    DEFAULT_CLIP_FRAMES,
    DEFAULT_LAMBDA,
    DEFAULT_LEARNING_RATE,
    DEFAULT_PENALTY_BRANCH,
    DEFAULT_STEPS,
    check_objective_settings,
)

DIVERGENCE_LIMIT = 1e6


def as_clip(data) -> np.ndarray:
    """Validate a latent clip: finite (frames, dims) float array, T >= 2."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"clip must be 2-d (frames, dims), got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 1:
        raise ValueError(f"clip needs >= 2 frames and >= 1 dim, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("clip contains non-finite entries")
    return arr


@dataclass(frozen=True)
class DpoBatchItem:
    """One preference example: winner/loser clean clips, noise draws, time."""

    x0_w: np.ndarray
    x0_l: np.ndarray
    eps_w: np.ndarray
    eps_l: np.ndarray
    t: float

    def __post_init__(self):
        for name in ("x0_w", "x0_l", "eps_w", "eps_l"):
            object.__setattr__(self, name, as_clip(getattr(self, name)))
        shapes = {self.x0_w.shape, self.x0_l.shape, self.eps_w.shape, self.eps_l.shape}
        if len(shapes) != 1:
            raise ValueError(f"all clips must share one shape, got {shapes}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {self.t}")


@dataclass
class LinearVelocityModel:
    """Velocity field linear in the latent and in time: v = x W^T + t b + c.

    Small enough that every gradient below can be checked by hand, yet
    expressive enough for the training demonstrator to move.
    """

    w: np.ndarray  # (D, D)
    b: np.ndarray  # (D,)
    c: np.ndarray  # (D,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        d = self.w.shape[0]
        if self.w.shape != (d, d) or self.b.shape != (d,) or self.c.shape != (d,):
            raise ValueError("expected w (d, d), b (d,), c (d,)")
        for name, arr in (("w", self.w), ("b", self.b), ("c", self.c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.w.size + self.b.size + self.c.size

    @property
    def parameters(self) -> np.ndarray:
        return np.concatenate([self.w.ravel(), self.b, self.c])

    @classmethod
    def zeros(cls, dim: int) -> "LinearVelocityModel":
        return cls(np.zeros((dim, dim)), np.zeros(dim), np.zeros(dim))

    @classmethod
    def from_parameters(cls, params, dim: int) -> "LinearVelocityModel":
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (dim * dim + 2 * dim,):
            raise ValueError(f"expected {dim * dim + 2 * dim} parameters, got {params.shape}")
        w = params[: dim * dim].reshape(dim, dim)
        b = params[dim * dim : dim * dim + dim]
        c = params[dim * dim + dim :]
        return cls(w.copy(), b.copy(), c.copy())

    def evaluate(self, x_t, t: float) -> np.ndarray:
        x_t = np.asarray(x_t, dtype=np.float64)
        return x_t @ self.w.T + t * self.b + self.c


def beta_schedule(t: float, beta: float) -> float:
    """Preference strength over time: beta * (1 - t^2), zero at pure noise."""
    check_objective_settings(beta=beta)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return beta * (1.0 - t * t)


def interpolate(x0, eps, t: float) -> np.ndarray:
    """Straight-line noising: (1-t) x0 + t eps."""
    x0, eps = as_clip(x0), as_clip(eps)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    return _interpolate(x0, eps, t)


def _interpolate(x0, eps, t):
    """interpolate on validated clips; _forward reads the same rule."""
    return (1.0 - t) * x0 + t * eps


def target_velocity(x0, eps) -> np.ndarray:
    """Regression target along the interpolation path: eps - x0."""
    x0, eps = as_clip(x0), as_clip(eps)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    return _target_velocity(x0, eps)


def _target_velocity(x0, eps):
    """target_velocity on validated clips; _forward reads the same rule."""
    return eps - x0


def predict_clean(x_t, t: float, v, mode: str = DEFAULT_CLEAN_MODE) -> np.ndarray:
    """One-step clean-sample reconstruction from a noisy clip and a velocity.

    self_consistent: x_t - t v, which inverts interpolate() exactly for the
    target velocity eps - x0.  reverse_time: x_t + (1-t) v, exact under the
    opposite time convention (x_t = t x0 + (1-t) eps with v = x0 - eps).
    """
    check_objective_settings(clean_mode=mode)
    x_t = np.asarray(x_t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x_t.shape != v.shape:
        raise ValueError(f"shape mismatch: {x_t.shape} vs {v.shape}")
    return _clean_sample(x_t, t, v, mode)[0]


def _clean_sample(x_t, t, v, mode):
    """predict_clean's x_t + slope v, and its slope d x0_hat / d v: -t or 1 - t."""
    slope = -t if mode == "self_consistent" else 1.0 - t
    return x_t + slope * v, slope


def _squared_error(target, predicted, term: str) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # reported by name below
        err = float(np.sum((target - predicted) ** 2))
    if not np.isfinite(err):
        raise FloatingPointError(f"non-finite squared-error term {term}")
    return err


def _forward(item: DpoBatchItem, model_theta, model_ref, beta: float):
    """One pass over both branches: ([(x_t, v, theta prediction)] winner
    first, beta_t, margin z).  DpoBatchItem has validated the clips."""
    t = item.t
    branches, excess = [], []
    for x0, eps, tag in ((item.x0_w, item.eps_w, "w"), (item.x0_l, item.eps_l, "l")):
        x_t = _interpolate(x0, eps, t)
        v = _target_velocity(x0, eps)
        pred = model_theta.evaluate(x_t, t)
        e_theta = _squared_error(v, pred, f"e_theta_{tag}")
        excess.append(e_theta - _squared_error(v, model_ref.evaluate(x_t, t), f"e_ref_{tag}"))
        branches.append((x_t, v, pred))
    bt = beta_schedule(t, beta)
    z = -(bt / 2.0) * (excess[0] - excess[1])
    if not np.isfinite(z):
        raise FloatingPointError("non-finite preference margin")
    return branches, bt, z


def reward_margin(item: DpoBatchItem, model_theta, model_ref, beta: float = DEFAULT_BETA) -> float:
    """Inner preference term: how much better theta fits the winner than the
    loser, relative to the reference, scaled by -beta_t/2.

    Positive means theta prefers the winner; the loss drives this up.
    """
    return _forward(item, model_theta, model_ref, beta)[2]


def flow_dpo_loss(item: DpoBatchItem, model_theta, model_ref, beta: float = DEFAULT_BETA) -> float:
    """-log sigmoid of the preference margin, via the stable softplus form."""
    z = reward_margin(item, model_theta, model_ref, beta)
    return float(np.logaddexp(0.0, -z))


def temporal_penalty(x0_hat, lam: float = DEFAULT_LAMBDA) -> float:
    """-lam times the mean (over dims) population variance across frames.

    Always <= 0; minimizing a total loss that includes it rewards motion.
    """
    check_objective_settings(lam=lam)
    return float(-lam * _temporal_variance(as_clip(x0_hat))[1])


def _temporal_variance(clip):
    """The clip centred on its frame mean, and its mean per-dim variance (divisor T)."""
    centered = clip - clip.mean(axis=0)
    return centered, np.mean(centered**2, axis=0).mean()


def _neg_sigmoid_neg(z: float) -> float:
    """-sigmoid(-z) without overflow for large |z|."""
    if z >= 0:
        ez = np.exp(-z)
        return -ez / (1.0 + ez)
    return -1.0 / (1.0 + np.exp(z))


def _model_gradient_from_residual(residual, x_t, t):
    """Gradient of sum_i r[i] . v(x_t[i]) wrt the linear model parameters."""
    gw = residual.T @ x_t
    gb = t * residual.sum(axis=0)
    gc = residual.sum(axis=0)
    return np.concatenate([gw.ravel(), gb, gc])


def _loss_and_gradient(item, model_theta, model_ref, beta, lam, penalty_branch, clean_mode):
    """total_loss and its analytic gradient wrt theta's flat parameters."""
    check_objective_settings(beta, lam, clean_mode, penalty_branch)
    t = item.t
    branches, bt, z = _forward(item, model_theta, model_ref, beta)
    loss = float(np.logaddexp(0.0, -z))

    # d e / d params through the residual -2 (target - prediction)
    grad_e_w, grad_e_l = (_model_gradient_from_residual(-2.0 * (v - pred), x_t, t)
                          for x_t, v, pred in branches)
    dz_dparams = -(bt / 2.0) * (grad_e_w - grad_e_l)
    grad = _neg_sigmoid_neg(z) * dz_dparams  # d softplus(-z) / dz, chained

    if lam > 0:
        penalized = branches if penalty_branch == "both" else branches[:1]
        pen = 0.0
        for x_t, _, pred in penalized:
            x0_hat, slope = _clean_sample(x_t, t, pred, clean_mode)
            centered, variance = _temporal_variance(x0_hat)
            pen += float(-lam * variance)
            dpen_dhat = -lam * 2.0 * centered / centered.size
            grad = grad + _model_gradient_from_residual(slope * dpen_dhat, x_t, t) / len(penalized)
        loss = loss + pen / len(penalized)
    return loss, grad


def total_loss(
    item: DpoBatchItem,
    model_theta,
    model_ref,
    beta: float = DEFAULT_BETA,
    lam: float = DEFAULT_LAMBDA,
    penalty_branch: str = DEFAULT_PENALTY_BRANCH,
    clean_mode: str = DEFAULT_CLEAN_MODE,
) -> float:
    """Preference loss plus the temporal penalty on reconstructed clean clips.

    The penalty applies to the clean sample predicted by theta on the winner
    branch (default) or averaged over both branches.
    """
    return _loss_and_gradient(item, model_theta, model_ref, beta, lam, penalty_branch, clean_mode)[0]


def total_loss_gradient(
    item: DpoBatchItem,
    model_theta: LinearVelocityModel,
    model_ref,
    beta: float = DEFAULT_BETA,
    lam: float = DEFAULT_LAMBDA,
    penalty_branch: str = DEFAULT_PENALTY_BRANCH,
    clean_mode: str = DEFAULT_CLEAN_MODE,
) -> np.ndarray:
    """Analytic gradient of total_loss wrt model_theta's flat parameters."""
    return _loss_and_gradient(item, model_theta, model_ref, beta, lam, penalty_branch, clean_mode)[1]


def grad_check(loss_fn, grad, params, h: float = 1e-5) -> float:
    """Max relative error between a gradient and central finite differences.

    ``grad`` may be the analytic gradient vector or a callable params -> vector.
    Relative error uses denominator max(|finite difference|, 1e-8) per
    coordinate.
    """
    params = np.asarray(params, dtype=np.float64)
    analytic = np.asarray(grad(params) if callable(grad) else grad, dtype=np.float64)
    if analytic.shape != params.shape:
        raise ValueError("gradient and parameters must have the same shape")
    fd = np.empty_like(params)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = h
        hi = loss_fn(params + step)
        lo = loss_fn(params - step)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise FloatingPointError(f"non-finite loss at coordinate {i}")
        fd[i] = (hi - lo) / (2.0 * h)
    denom = np.maximum(np.abs(fd), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))


def mean_reward_margin(items, model_theta, model_ref, beta: float = DEFAULT_BETA) -> float:
    return float(np.mean([reward_margin(it, model_theta, model_ref, beta) for it in items]))


def mean_winner_variance(items, model_theta, clean_mode: str = DEFAULT_CLEAN_MODE) -> float:
    """Mean temporal variance of the winner-branch clean reconstruction."""
    vals = []
    for item in items:
        x_t = interpolate(item.x0_w, item.eps_w, item.t)
        x0_hat = predict_clean(x_t, item.t, model_theta.evaluate(x_t, item.t), clean_mode)
        vals.append(_temporal_variance(x0_hat)[1])
    return float(np.mean(vals))


def toy_train(
    items,
    model_ref: LinearVelocityModel,
    steps: int = DEFAULT_STEPS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    beta: float = DEFAULT_BETA,
    lam: float = DEFAULT_LAMBDA,
    penalty_branch: str = DEFAULT_PENALTY_BRANCH,
    clean_mode: str = DEFAULT_CLEAN_MODE,
):
    """Full-batch gradient descent on the mean total loss.

    The trained model starts as a copy of the frozen reference, so the initial
    mean preference margin is exactly zero and any improvement is attributable
    to training.  Returns (model, trace) where trace[k] is the mean loss
    before step k and trace[-1] is the final loss (length steps + 1).
    """
    items = list(items)
    if not items:
        raise ValueError("need at least one training item")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    params = model_ref.parameters
    dim = model_ref.dim
    objective = (beta, lam, penalty_branch, clean_mode)
    trace = []

    def batch_loss_and_grad(p):
        m = LinearVelocityModel.from_parameters(p, dim)
        loss = 0.0
        grad = np.zeros_like(p)
        for item in items:  # fixed-order summation keeps results bit-stable
            item_loss, item_grad = _loss_and_gradient(item, m, model_ref, *objective)
            loss += item_loss
            grad += item_grad
        return loss / len(items), grad / len(items)

    for _ in range(steps):
        loss, grad = batch_loss_and_grad(params)
        trace.append(loss)
        if loss > DIVERGENCE_LIMIT:
            head = ", ".join(f"{v:.4g}" for v in trace[:5])
            raise RuntimeError(f"training diverged (loss {loss:.4g}; trace starts [{head}])")
        params = params - learning_rate * grad
    final_loss, _ = batch_loss_and_grad(params)
    trace.append(final_loss)
    return LinearVelocityModel.from_parameters(params, dim), trace


def synthetic_preference_items(
    n_items: int = 8,
    frames: int = DEFAULT_CLIP_FRAMES,
    dims: int = DEFAULT_CLIP_DIMS,
    seed: int = 0,
    motion: float = 1.0,
    corruption: float = 1.5,
):
    """Toy preference data: winners move coherently, losers add erratic noise.

    Winner clips follow smooth per-dimension sinusoids with amplitude
    ``motion``; losers are the same clips corrupted by independent per-frame
    noise of scale ``corruption``.  Noise draws are independent per item with
    one shared t per pair, kept away from the endpoints where the preference
    weight vanishes.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    rng = np.random.default_rng(seed)
    frame_axis = np.arange(frames)[:, None]
    items = []
    for _ in range(n_items):
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(1, dims))
        freq = rng.uniform(0.3, 0.8, size=(1, dims))
        x0_w = motion * np.sin(freq * frame_axis + phase)
        x0_l = x0_w + corruption * rng.normal(size=(frames, dims))
        items.append(
            DpoBatchItem(
                x0_w=x0_w,
                x0_l=x0_l,
                eps_w=rng.normal(size=(frames, dims)),
                eps_l=rng.normal(size=(frames, dims)),
                t=float(rng.uniform(0.1, 0.9)),
            )
        )
    return items
