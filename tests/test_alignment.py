"""Tests for the preference-alignment numerical core."""

import numpy as np
import pytest

from epigeo.alignment import (
    DpoBatchItem,
    LinearVelocityModel,
    as_clip,
    beta_schedule,
    flow_dpo_loss,
    grad_check,
    interpolate,
    mean_reward_margin,
    mean_winner_variance,
    predict_clean,
    reward_margin,
    synthetic_preference_items,
    target_velocity,
    temporal_penalty,
    total_loss,
    total_loss_gradient,
    toy_train,
)

LOG2 = float(np.log(2.0))


def hand_item():
    # tiny instance whose every term is checkable by hand
    return DpoBatchItem(
        x0_w=[[0.0], [0.0]],
        x0_l=[[1.0], [1.0]],
        eps_w=[[1.0], [0.0]],
        eps_l=[[1.0], [0.0]],
        t=0.5,
    )


def const_model(dim, value):
    return LinearVelocityModel(np.zeros((dim, dim)), np.zeros(dim), np.full(dim, value))


def random_models(dim, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    mk = lambda: LinearVelocityModel(
        scale * rng.normal(size=(dim, dim)),
        scale * rng.normal(size=dim),
        scale * rng.normal(size=dim),
    )
    return mk(), mk()


# ----------------------------------------------------------------- clip types

def test_as_clip_validation():
    with pytest.raises(ValueError):
        as_clip([1.0, 2.0])  # 1-d
    with pytest.raises(ValueError):
        as_clip([[1.0]])  # single frame
    with pytest.raises(ValueError):
        as_clip([[np.nan], [0.0]])


def test_batch_item_validation():
    ok = np.zeros((3, 2))
    with pytest.raises(ValueError):
        DpoBatchItem(ok, np.zeros((4, 2)), ok, ok, 0.5)
    with pytest.raises(ValueError):
        DpoBatchItem(ok, ok, ok, ok, 1.5)
    with pytest.raises(ValueError):
        DpoBatchItem(ok, ok, ok, ok, -0.1)


def test_linear_model_roundtrip_and_validation():
    rng = np.random.default_rng(3)
    m = LinearVelocityModel(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3))
    again = LinearVelocityModel.from_parameters(m.parameters, 3)
    assert np.array_equal(again.w, m.w)
    assert np.array_equal(again.b, m.b)
    assert np.array_equal(again.c, m.c)
    assert m.n_parameters == 15
    with pytest.raises(ValueError):
        LinearVelocityModel(np.zeros((2, 3)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        LinearVelocityModel(np.full((2, 2), np.inf), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        LinearVelocityModel.from_parameters(np.zeros(7), 2)


def test_linear_model_evaluate_by_hand():
    m = LinearVelocityModel([[2.0, 0.0], [1.0, 1.0]], [0.5, 0.0], [0.0, 3.0])
    x = np.array([[1.0, 2.0], [0.0, 1.0]])
    got = m.evaluate(x, 0.5)
    # row 0: W @ (1,2) = (2,3); + t*b = (0.25,0); + c = (0,3)
    assert np.allclose(got, [[2.25, 6.0], [0.25, 4.0]])


# ------------------------------------------------------------------- schedule

def test_beta_schedule_values():
    assert beta_schedule(1.0, 3.7) == 0.0
    assert beta_schedule(0.0, 2.0) == 2.0
    assert beta_schedule(0.5, 1.0) == 0.75


def test_beta_schedule_validation():
    with pytest.raises(ValueError):
        beta_schedule(0.5, 0.0)
    with pytest.raises(ValueError):
        beta_schedule(1.2, 1.0)


# -------------------------------------------------------------- interpolation

def test_interpolate_endpoints():
    rng = np.random.default_rng(0)
    x0, eps = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    assert np.array_equal(interpolate(x0, eps, 0.0), x0)
    assert np.array_equal(interpolate(x0, eps, 1.0), eps)


def test_interpolate_fixed_point():
    x0 = np.random.default_rng(1).normal(size=(3, 2))
    for t in np.linspace(0, 1, 7):
        assert np.allclose(interpolate(x0, x0, t), x0, atol=1e-15)


def test_interpolate_shape_mismatch():
    with pytest.raises(ValueError):
        interpolate(np.zeros((3, 2)), np.zeros((2, 3)), 0.5)


def test_target_velocity_basics():
    rng = np.random.default_rng(2)
    x0, eps = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    assert np.allclose(target_velocity(x0, x0), 0.0)
    assert np.array_equal(target_velocity(np.zeros((4, 2)), eps), eps)


def test_target_velocity_is_time_derivative_of_interpolation():
    rng = np.random.default_rng(4)
    x0, eps = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    v = target_velocity(x0, eps)
    h = 1e-6
    for t in (0.2, 0.5, 0.8):
        fd = (interpolate(x0, eps, t + h) - interpolate(x0, eps, t - h)) / (2 * h)
        assert np.max(np.abs(fd - v)) < 1e-8


# ---------------------------------------------------------------- clean sample

def test_predict_clean_inverts_interpolation():
    rng = np.random.default_rng(5)
    x0, eps = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    v = target_velocity(x0, eps)
    for t in np.linspace(0.0, 1.0, 11):
        x_t = interpolate(x0, eps, t)
        assert np.allclose(predict_clean(x_t, t, v), x0, atol=1e-12)


def test_predict_clean_t_zero_is_input():
    x_t = np.random.default_rng(6).normal(size=(3, 2))
    assert np.array_equal(predict_clean(x_t, 0.0, np.ones_like(x_t)), x_t)


def test_reverse_time_mode_matches_opposite_convention():
    rng = np.random.default_rng(7)
    x0, eps = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    for t in np.linspace(0.0, 1.0, 11):
        x_t_rev = t * x0 + (1.0 - t) * eps
        v_rev = x0 - eps
        assert np.allclose(predict_clean(x_t_rev, t, v_rev, "reverse_time"), x0, atol=1e-12)


def test_predict_clean_rejects_unknown_mode():
    with pytest.raises(ValueError):
        predict_clean(np.zeros((2, 1)), 0.5, np.zeros((2, 1)), "whatever")


# ---------------------------------------------------------------- loss values

def test_equal_models_give_log_two():
    item = hand_item()
    ref = const_model(1, 0.3)
    assert abs(flow_dpo_loss(item, ref, ref, 1.0) - LOG2) < 1e-12


def test_pure_noise_time_gives_log_two():
    item = hand_item()
    item1 = DpoBatchItem(item.x0_w, item.x0_l, item.eps_w, item.eps_l, t=1.0)
    theta, ref = const_model(1, 0.0), const_model(1, 0.5)
    assert abs(flow_dpo_loss(item1, theta, ref, 1.0) - LOG2) < 1e-12


def test_hand_fixture_term_by_term():
    # winner target (1,0), loser target (0,-1); theta==0 gives errors 1 and 1;
    # ref==0.5 gives 0.5 and 2.5; beta_t = 0.75; margin = -0.375*(0.5+1.5)
    item = hand_item()
    theta, ref = const_model(1, 0.0), const_model(1, 0.5)
    z = reward_margin(item, theta, ref, 1.0)
    assert z == -0.75
    loss = flow_dpo_loss(item, theta, ref, 1.0)
    assert loss == pytest.approx(1.1368710061148999, rel=1e-12)
    assert loss == pytest.approx(np.logaddexp(0.0, 0.75), rel=1e-15)


def test_loss_always_positive():
    for seed in range(10):
        items = synthetic_preference_items(2, 4, 3, seed=seed)
        theta, ref = random_models(3, seed)
        for item in items:
            assert flow_dpo_loss(item, theta, ref, 1.0) > 0.0


def test_winner_loser_swap_convexity():
    worst = 0.0
    for seed in range(25):
        item = synthetic_preference_items(1, 4, 3, seed=seed)[0]
        theta, ref = random_models(3, 100 + seed)
        swapped = DpoBatchItem(item.x0_l, item.x0_w, item.eps_l, item.eps_w, item.t)
        a = flow_dpo_loss(item, theta, ref, 1.0)
        b = flow_dpo_loss(swapped, theta, ref, 1.0)
        assert a + b >= 2 * LOG2 - 1e-12
        worst = max(worst, 2 * LOG2 - (a + b))
    assert worst <= 1e-12


def test_non_finite_prediction_names_term():
    class Broken:
        def evaluate(self, x_t, t):
            return np.full_like(np.asarray(x_t), np.inf)

    item = hand_item()
    with pytest.raises(FloatingPointError, match="e_theta_w"):
        flow_dpo_loss(item, Broken(), const_model(1, 0.0), 1.0)


# -------------------------------------------------------------------- penalty

def test_temporal_penalty_values():
    assert temporal_penalty([[1.0, 5.0], [1.0, 5.0], [1.0, 5.0]], 0.5) == 0.0
    assert temporal_penalty([[0.0], [2.0]], 0.0) == 0.0
    assert temporal_penalty([[0.0], [2.0]], 0.001) == -0.001


def test_temporal_penalty_shift_invariance():
    rng = np.random.default_rng(8)
    clip = rng.normal(size=(5, 3))
    shifted = clip + np.array([10.0, -3.0, 0.25])
    assert temporal_penalty(shifted, 0.01) == pytest.approx(
        temporal_penalty(clip, 0.01), rel=1e-12
    )


def test_temporal_penalty_validation():
    with pytest.raises(ValueError):
        temporal_penalty([[1.0]], 0.001)
    with pytest.raises(ValueError):
        temporal_penalty([[0.0], [1.0]], -0.001)


# ----------------------------------------------------------------- total loss

def test_total_loss_reduces_to_dpo_without_penalty():
    item = hand_item()
    theta, ref = const_model(1, 0.0), const_model(1, 0.5)
    assert total_loss(item, theta, ref, 1.0, 0.0) == flow_dpo_loss(item, theta, ref, 1.0)


def test_total_loss_constant_prediction_is_log_two():
    # constant winner clip and noise make x_t temporally constant, so the
    # zero-velocity reconstruction has no variance
    item = DpoBatchItem(
        x0_w=np.ones((3, 1)),
        x0_l=[[0.0], [1.0], [2.0]],
        eps_w=np.full((3, 1), 2.0),
        eps_l=np.zeros((3, 1)),
        t=0.4,
    )
    ref = const_model(1, 0.0)
    assert abs(total_loss(item, ref, ref, 1.0, 0.001) - LOG2) < 1e-12


def test_total_loss_composes_both_oracles():
    # x_t of the winner branch is ((0),(2)): variance 1, so penalty -0.001
    item = DpoBatchItem(
        x0_w=[[0.0], [2.0]],
        x0_l=[[1.0], [1.0]],
        eps_w=[[0.0], [2.0]],
        eps_l=[[1.0], [0.0]],
        t=0.5,
    )
    ref = const_model(1, 0.0)
    got = total_loss(item, ref, ref, 1.0, 0.001)
    assert got == pytest.approx(LOG2 - 0.001, rel=1e-12)


def test_total_loss_validates_modes():
    item = hand_item()
    theta, ref = const_model(1, 0.0), const_model(1, 0.5)
    with pytest.raises(ValueError):
        total_loss(item, theta, ref, penalty_branch="loser")
    with pytest.raises(ValueError):
        total_loss(item, theta, ref, clean_mode="bad")


# ------------------------------------------------------------------ gradients

def test_grad_check_quadratic_sanity():
    p = np.array([0.3, -1.2, 2.0])
    err = grad_check(lambda q: float(q @ q), 2.0 * p, p)
    assert err < 1e-6


def test_grad_check_detects_large_step_truncation():
    p = np.array([1.0, 2.0])
    f = lambda q: float(np.sum(q**3))
    small = grad_check(f, 3.0 * p**2, p, h=1e-5)
    large = grad_check(f, 3.0 * p**2, p, h=1.0)
    assert small < 1e-8
    assert large > 1e3 * small


def test_grad_check_validation():
    with pytest.raises(ValueError):
        grad_check(lambda q: 0.0, np.zeros(3), np.zeros(2))
    with pytest.raises(FloatingPointError):
        grad_check(lambda q: float("nan"), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("penalty_branch", ["winner", "both"])
@pytest.mark.parametrize("clean_mode", ["self_consistent", "reverse_time"])
def test_analytic_gradient_matches_finite_differences(penalty_branch, clean_mode):
    dim = 3
    item = synthetic_preference_items(1, 5, dim, seed=11)[0]
    theta, ref = random_models(dim, 42)

    def loss_fn(p):
        m = LinearVelocityModel.from_parameters(p, dim)
        return total_loss(item, m, ref, 1.0, 0.01, penalty_branch, clean_mode)

    g = total_loss_gradient(item, theta, ref, 1.0, 0.01, penalty_branch, clean_mode)
    assert grad_check(loss_fn, g, theta.parameters) < 1e-6


# ------------------------------------------------------------------- training

def test_toy_train_improves_margin_and_keeps_motion():
    items = synthetic_preference_items(8, 6, 4, seed=0)
    ref = LinearVelocityModel.zeros(4)
    margin0 = mean_reward_margin(items, ref, ref)
    var0 = mean_winner_variance(items, ref)
    model, trace = toy_train(items, ref, steps=100, learning_rate=1e-3)
    assert margin0 == 0.0
    assert mean_reward_margin(items, model, ref) > margin0
    assert mean_winner_variance(items, model) > 0.5 * var0
    assert len(trace) == 101
    assert all(trace[k + 1] <= trace[k] + 1e-9 for k in range(len(trace) - 1))
    assert trace[-1] < trace[0]


def test_toy_train_zero_rate_constant_trace():
    items = synthetic_preference_items(3, 4, 2, seed=1)
    ref = LinearVelocityModel.zeros(2)
    _, trace = toy_train(items, ref, steps=5, learning_rate=0.0)
    assert len(set(trace)) == 1


def test_toy_train_deterministic():
    items = synthetic_preference_items(4, 4, 3, seed=2)
    ref = LinearVelocityModel.zeros(3)
    m1, t1 = toy_train(items, ref, steps=20, learning_rate=1e-3)
    m2, t2 = toy_train(items, ref, steps=20, learning_rate=1e-3)
    assert t1 == t2
    assert np.array_equal(m1.parameters, m2.parameters)


def test_toy_train_divergence_raises():
    items = synthetic_preference_items(4, 6, 4, seed=0)
    ref = LinearVelocityModel.zeros(4)
    with pytest.raises(RuntimeError, match="diverged"):
        toy_train(items, ref, steps=40, learning_rate=1e4)


def test_toy_train_validation():
    ref = LinearVelocityModel.zeros(2)
    with pytest.raises(ValueError):
        toy_train([], ref)


def test_synthetic_items_deterministic_and_bounded():
    a = synthetic_preference_items(5, 6, 3, seed=9)
    b = synthetic_preference_items(5, 6, 3, seed=9)
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.x0_w, ib.x0_w)
        assert np.array_equal(ia.eps_l, ib.eps_l)
        assert ia.t == ib.t
        assert 0.1 <= ia.t <= 0.9
        assert ia.x0_w.shape == (6, 3)
