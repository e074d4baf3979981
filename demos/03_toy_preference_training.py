"""
Preference training on flow-matching velocities
===============================================

The alignment objective compares how much better a trainable velocity model
fits winner clips than loser clips, relative to a frozen reference.  This
demo checks the identities that pin the objective down, then trains the toy
linear model and watches the implicit reward margin open up while the
temporal-variance penalty keeps predictions from going static.
"""

import numpy as np

from epigeo.alignment import (
    LinearVelocityModel,
    beta_schedule,
    flow_dpo_loss,
    mean_reward_margin,
    mean_winner_variance,
    synthetic_preference_items,
    toy_train,
)

# ---------------------------------------------------------------------------
# Synthetic preference data: winners are smooth sinusoidal clips, losers are
# the same clips plus noise.  Each item also carries the noise sample and a
# random interpolation time t.

items = synthetic_preference_items(n_items=8, frames=6, dims=4, seed=0)
print(f"{len(items)} preference items, clip shape {items[0].x0_w.shape}")

# ---------------------------------------------------------------------------
# Sanity identities.  With theta == ref nothing is preferred, so the loss
# sits exactly at log 2.  At t = 1 the time weight beta * (1 - t^2) vanishes
# and the loss is log 2 no matter what the models say.

ref = LinearVelocityModel.zeros(4)
print("loss at theta == ref:", flow_dpo_loss(items[0], ref, ref), "(log 2 =", float(np.log(2)), ")")
print("time weight at t in {0, 0.5, 1}:",
      [beta_schedule(t, 1.0) for t in (0.0, 0.5, 1.0)])

# ---------------------------------------------------------------------------
# Train.  Full-batch gradient descent on the preference loss plus the
# temporal-variance penalty (weight 0.001) applied to the winner branch.

model, trace = toy_train(items, ref, steps=200, learning_rate=1e-3)
print(f"loss {trace[0]:.4f} -> {trace[-1]:.4f} over {len(trace) - 1} steps")

margin_before = mean_reward_margin(items, ref, ref)
margin_after = mean_reward_margin(items, model, ref)
print(f"implicit reward margin {margin_before:.4f} -> {margin_after:.4f}")

# The penalty exists to stop a cheap local optimum: predicting frozen clips.
# Temporal variance of the reconstructed winners should stay high.
var_before = mean_winner_variance(items, ref)
var_after = mean_winner_variance(items, model)
print(f"winner clip temporal variance {var_before:.4f} -> {var_after:.4f} "
      f"({100.0 * var_after / var_before:.0f}% retained)")
