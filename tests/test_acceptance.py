"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
numbers (visible with -s, or in captured output on failure) and enforces the
stated tolerance and runtime budget.
"""

import json
import time

import numpy as np
import pytest

from conftest import K_DEFAULT, make_rig, project_box, rotation_y
from epigeo.alignment import (
    DpoBatchItem,
    LinearVelocityModel,
    flow_dpo_loss,
    grad_check,
    mean_reward_margin,
    mean_winner_variance,
    synthetic_preference_items,
    total_loss,
    total_loss_gradient,
    toy_train,
)
from epigeo.cli import main as cli_main
from epigeo.dataset import GenerationGroup, build_pairs
from epigeo.epipolar import (
    CameraMatrix,
    as_homogeneous,
    eight_point,
    fundamental_from_cameras,
    ransac_fundamental,
    sampson_errors,
    symmetric_epipolar_errors,
)
from epigeo.features import FeatureParams
from epigeo.scoring import (
    STATUS_OK,
    ScoringParams,
    VideoScore,
    frame_pairs,
    score_video,
    score_video_from_correspondences,
)
from epigeo.synth import TrajectorySpec, camera_trajectory, generate_scene, project_scene, render_video

LOG2 = float(np.log(2.0))


def verdict(n, ok, detail):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def random_rig(seed):
    """Modest random rotation + offset so box points stay in front of both cameras."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(-0.4, 0.4)
    center = rng.uniform([-1.5, -0.8, -0.8], [1.5, 0.8, 0.8])
    cam_a = CameraMatrix(K_DEFAULT, np.eye(3), np.zeros(3))
    r = rotation_y(angle)
    cam_b = CameraMatrix(K_DEFAULT, r, -r @ center)
    return cam_a, cam_b


def residual_max(f, xa, xb):
    ha = as_homogeneous(xa)
    hb = as_homogeneous(xb)
    return float(np.abs(np.einsum("ij,ij->i", hb, ha @ np.asarray(f.m if hasattr(f, "m") else f).T)).max())


def test_criterion_01_constraint_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        cam_a, cam_b = random_rig(seed)
        xa, xb, _ = project_box(cam_a, cam_b, 500, seed=seed)
        f = fundamental_from_cameras(cam_a, cam_b)
        assert abs(np.linalg.norm(f.m) - 1.0) < 1e-12
        worst = max(worst, residual_max(f, xa, xb))
    dt = time.monotonic() - t0
    verdict(1, worst < 1e-10 and dt < 5.0,
            f"camera-derived F: max |x'^T F x| = {worst:.3e} over 50 rigs x 500 pts "
            f"(< 1e-10), {dt:.2f}s (< 5s)")


def test_criterion_02_eight_point_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        cam_a, cam_b = random_rig(seed)
        xa, xb, _ = project_box(cam_a, cam_b, 20, seed=seed + 500)
        oracle = fundamental_from_cameras(cam_a, cam_b).m
        est = eight_point((xa, xb)).m
        align = min(np.linalg.norm(est - oracle), np.linalg.norm(est + oracle))
        worst = max(worst, float(align))
    dt = time.monotonic() - t0
    verdict(2, worst < 1e-8 and dt < 5.0,
            f"noiseless eight-point: max Frobenius alignment error = {worst:.3e} "
            f"over 50 seeds (< 1e-8), {dt:.2f}s (< 5s)")


def test_criterion_03_ransac_robustness():
    t0 = time.monotonic()
    cam_a, cam_b = make_rig()
    good_seeds = 0
    worst_recall, worst_false = 1.0, 0
    for seed in range(50):
        xa, xb, _ = project_box(cam_a, cam_b, 70, seed=seed)
        rng = np.random.default_rng(seed)
        out_a = rng.uniform([0.0, 0.0], [640.0, 480.0], size=(30, 2))
        out_b = rng.uniform([0.0, 0.0], [640.0, 480.0], size=(30, 2))
        a = np.vstack([xa, out_a])
        b = np.vstack([xb, out_b])
        _, mask = ransac_fundamental(
            (a, b), iterations=2000, inlier_threshold=1.0, seed=seed)
        recall = float(mask[:70].mean())
        false = int(mask[70:].sum())
        if recall >= 0.95 and false <= 2:
            good_seeds += 1
        worst_recall = min(worst_recall, recall)
        worst_false = max(worst_false, false)
    dt = time.monotonic() - t0
    verdict(3, good_seeds >= 48 and dt < 30.0,
            f"70 inliers + 30 outliers, thr 1.0 px^2, 2000 iters: {good_seeds}/50 seeds "
            f"hit >=95% recall & <=2 false (worst recall {worst_recall:.3f}, "
            f"worst false {worst_false}), {dt:.1f}s (< 30s)")


def test_criterion_04_residual_formulas():
    f = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])

    def one_row(errors, x, xp):
        # a single correspondence is a one-row set
        return float(errors(f, np.array([x]), np.array([xp]))[0][0])

    # numerator (x'^T F x)^2 = 1, denominator (Fx)_1^2+(Fx)_2^2+(F^T x')_1^2+(F^T x')_2^2 = 2
    s1 = one_row(sampson_errors, [0.0, 0.0], [0.0, 1.0])
    # numerator (-2)^2 = 4, denominator 1 + 1 = 2
    s2 = one_row(sampson_errors, [2.0, 3.0], [4.0, 5.0])
    # x' exactly on the line Fx: numerator 0
    s3 = one_row(sampson_errors, [0.0, 0.0], [5.0, 0.0])
    # squared line distances 1 + 1
    e1 = one_row(symmetric_epipolar_errors, [1.0, 0.0], [0.0, 1.0])
    # 4/1 + 4/1
    e2 = one_row(symmetric_epipolar_errors, [2.0, 3.0], [4.0, 5.0])
    exact = (
        abs(s1 - 0.5) <= 1e-12 * 0.5
        and abs(s2 - 2.0) <= 1e-12 * 2.0
        and s3 == 0.0
        and abs(e1 - 2.0) <= 1e-12 * 2.0
        and abs(e2 - 8.0) <= 1e-12 * 8.0
    )

    cam_a, cam_b = make_rig()
    fm = fundamental_from_cameras(cam_a, cam_b)
    rng = np.random.default_rng(17)
    xa = rng.uniform(0.0, 640.0, size=(1000, 2))
    xb = rng.uniform(0.0, 480.0, size=(1000, 2))
    s_vals, s_flag = sampson_errors(fm, xa, xb)
    e_vals, e_flag = symmetric_epipolar_errors(fm, xa, xb)
    valid = ~(s_flag | e_flag)
    dominated = bool(valid.all() and np.all(e_vals >= s_vals - 1e-12))

    verdict(4, exact and dominated,
            f"hand fixtures (0.5, 2.0, 0.0 / 2.0, 8.0) within 1e-12 rel: {exact}; "
            f"symmetric >= first-order error on 1000 random cases: {dominated}")


CORR_PARAMS = ScoringParams(
    gaps=(2, 4),
    stride=4,
    min_matches=30,
    ransac_iterations=200,
    inlier_threshold=50.0,
)
SIGMAS = (0.0, 0.5, 1.0, 2.0, 4.0)


def jitter_group_errors(trial):
    """One 5-video group: same scene, increasing jitter, shared pair layout."""
    scene = generate_scene(120, extent=2.5, seed=1000 + trial)
    diag = float(np.hypot(640.0, 480.0))
    errors = []
    for sigma in SIGMAS:
        spec = TrajectorySpec(kind="orbit", n_frames=8, jitter_sigma=sigma)
        cams = camera_trajectory(spec)
        pairs = frame_pairs(8, CORR_PARAMS.gaps, CORR_PARAMS.stride)
        proj = project_scene(scene, cams, spec, pairs=pairs)
        vs = score_video_from_correspondences(
            proj.pairs, CORR_PARAMS, video_id=f"sigma{sigma}",
            seed=1000 + trial, diagonal=diag)
        errors.append(vs.consistency_error)
    return errors


def test_criterion_05_monotone_ranking():
    t0 = time.monotonic()
    exact = 0
    for trial in range(100):
        errors = jitter_group_errors(trial)
        if all(e is not None for e in errors) and all(
                errors[k] < errors[k + 1] for k in range(len(errors) - 1)):
            exact += 1
    dt = time.monotonic() - t0
    verdict(5, exact >= 95 and dt < 120.0,
            f"jitter sigma {{0,0.5,1,2,4}} ranked in exact order on {exact}/100 "
            f"trials (>= 95), {dt:.1f}s (< 2min)")


def fuzz_score(rng, flagged_rate=0.15):
    near_static = bool(rng.random() < flagged_rate)
    insufficient = bool(rng.random() < flagged_rate)
    unscored = insufficient or bool(rng.random() < 0.05)
    if unscored:
        error = score = None
        insufficient = True
    else:
        error = float(rng.uniform(0.0, 3.0))
        score = 1.0 / (1.0 + error)
    return error, score, near_static, insufficient


def fuzz_groups(n_groups, seed):
    rng = np.random.default_rng(seed)
    groups = []
    for g in range(n_groups):
        members = []
        for k in range(int(rng.integers(2, 7))):
            vid = f"g{g}v{k}"
            error, score, near_static, insufficient = fuzz_score(rng)
            members.append((vid, VideoScore(
                video_id=vid,
                consistency_error=error,
                consistency_score=score,
                motion_level=float(rng.uniform(0.0, 0.89)) if not near_static else 0.95,
                n_valid_pairs=0 if score is None else 6,
                near_static=near_static,
                insufficient_texture=insufficient,
                config_hash="fuzz",
            )))
        groups.append(GenerationGroup(f"g{g}", tuple(members)))
    return groups


def test_criterion_06_pair_filter_soundness():
    groups = fuzz_groups(1000, seed=7)
    by_prompt = {g.prompt_id: dict(g.members) for g in groups}
    tau, eps = 0.05, 0.5

    pairs = build_pairs(groups, tau=tau, epsilon=eps, max_pairs_per_group=2)
    sound = len(pairs) > 0
    for p in pairs:
        scores = by_prompt[p.prompt_id]
        w, l = scores[p.winner_id], scores[p.loser_id]
        sound &= (
            p.score_gap > tau
            and p.winner_score > eps
            and p.winner_score == w.consistency_score
            and p.loser_score == l.consistency_score
            and not (w.near_static or w.insufficient_texture)
            and not (l.near_static or l.insufficient_texture)
        )

    counts = [
        len(build_pairs(groups, tau=t, epsilon=eps, max_pairs_per_group=2))
        for t in (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8)
    ]
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))

    verdict(6, sound and monotone,
            f"{len(pairs)} emitted pairs re-validate (gap > tau, winner > eps, "
            f"unflagged): {sound}; counts over rising tau {counts} non-increasing: {monotone}")


def random_item(rng, frames, dims):
    return DpoBatchItem(
        x0_w=rng.normal(size=(frames, dims)),
        x0_l=rng.normal(size=(frames, dims)),
        eps_w=rng.normal(size=(frames, dims)),
        eps_l=rng.normal(size=(frames, dims)),
        t=float(rng.uniform(0.05, 0.95)),
    )


def random_model(rng, dims, scale=0.3):
    return LinearVelocityModel(
        rng.normal(scale=scale, size=(dims, dims)),
        rng.normal(scale=scale, size=dims),
        rng.normal(scale=scale, size=dims),
    )


def test_criterion_07_preference_loss_identities():
    rng = np.random.default_rng(2024)
    worst_ref = worst_t1 = 0.0
    worst_swap = np.inf
    for _ in range(200):
        frames = int(rng.integers(2, 7))
        dims = int(rng.integers(1, 5))
        item = random_item(rng, frames, dims)
        theta = random_model(rng, dims)
        ref = random_model(rng, dims)
        beta = float(rng.uniform(0.3, 3.0))

        worst_ref = max(worst_ref, abs(flow_dpo_loss(item, theta, theta, beta) - LOG2))

        at_one = DpoBatchItem(item.x0_w, item.x0_l, item.eps_w, item.eps_l, 1.0)
        worst_t1 = max(worst_t1, abs(flow_dpo_loss(at_one, theta, ref, beta) - LOG2))

        swapped = DpoBatchItem(item.x0_l, item.x0_w, item.eps_l, item.eps_w, item.t)
        total = flow_dpo_loss(item, theta, ref, beta) + flow_dpo_loss(swapped, theta, ref, beta)
        worst_swap = min(worst_swap, total - 2.0 * LOG2)

    verdict(7, worst_ref <= 1e-12 and worst_t1 <= 1e-12 and worst_swap >= -1e-12,
            f"theta=ref: |loss - log 2| <= {worst_ref:.2e}; t=1: <= {worst_t1:.2e} "
            f"(both <= 1e-12); swap sum - 2 log 2 >= {worst_swap:.2e} on 200 instances")


def test_criterion_08_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(88)
    modes = [("winner", "self_consistent"), ("winner", "reverse_time"),
             ("both", "self_consistent"), ("both", "reverse_time")]
    worst = 0.0
    for k in range(50):
        dims = int(rng.integers(2, 13))      # dims^2 + 2*dims <= 168 parameters
        frames = int(rng.integers(2, 7))
        item = random_item(rng, frames, dims)
        ref = random_model(rng, dims)
        theta = random_model(rng, dims)
        beta = float(rng.uniform(0.5, 2.0))
        branch, mode = modes[k % 4]

        def loss_fn(params, _d=dims, _i=item, _r=ref, _b=beta, _br=branch, _m=mode):
            model = LinearVelocityModel.from_parameters(params, _d)
            return total_loss(_i, model, _r, beta=_b, lam=0.001,
                              penalty_branch=_br, clean_mode=_m)

        analytic = total_loss_gradient(item, theta, ref, beta=beta, lam=0.001,
                                       penalty_branch=branch, clean_mode=mode)
        err = grad_check(loss_fn, analytic, theta.parameters)
        worst = max(worst, err)
    dt = time.monotonic() - t0
    verdict(8, worst <= 1e-5 and dt < 30.0,
            f"analytic vs central differences: max relative error {worst:.2e} over "
            f"50 instances (<= 1e-5), {dt:.1f}s (< 30s)")


def test_criterion_09_toy_alignment_effect():
    t0 = time.monotonic()
    items = synthetic_preference_items(seed=0)
    ref = LinearVelocityModel.zeros(items[0].x0_w.shape[1])
    margin0 = mean_reward_margin(items, ref, ref, beta=1.0)
    var0 = mean_winner_variance(items, ref)

    model, trace = toy_train(items, ref, steps=200, learning_rate=1e-3, seed=0)
    margin1 = mean_reward_margin(items, model, ref, beta=1.0)
    var1 = mean_winner_variance(items, model)
    dt = time.monotonic() - t0

    verdict(9, margin1 > margin0 and var1 > 0.5 * var0 and dt < 60.0,
            f"200 steps @ lr 1e-3: reward margin {margin0:.3f} -> {margin1:.3f} "
            f"(strictly up), winner clip variance ratio {var1 / var0:.2f} (> 0.5), "
            f"loss {trace[0]:.4f} -> {trace[-1]:.4f}, {dt:.1f}s (< 1min)")


PIXEL_PARAMS = ScoringParams(
    gaps=(1, 2),
    stride=1,
    min_matches=30,
    ransac_iterations=500,
    inlier_threshold=25.0,
    feature_params=FeatureParams(octaves=3, ratio_threshold=0.85),
)


def dot_video(seed, sigma):
    # slow orbit (288-frame circle, 8 rendered) keeps neighbours matchable
    scene = generate_scene(120, extent=2.5, seed=seed)
    spec = TrajectorySpec(kind="orbit", n_frames=288, focal=300.0,
                          width=256, height=256, jitter_sigma=sigma)
    cams = camera_trajectory(spec)
    proj = project_scene(scene, cams, spec, pairs=[])
    return render_video(proj, spec, dot_sigma=3.0, intensity_seed=seed,
                        texture_amplitude=0.02, frame_indices=range(8))


def test_criterion_10_end_to_end_pixels():
    t0 = time.monotonic()
    good = 0
    details = []
    for seed in range(10):
        clean = score_video(dot_video(seed, 0.0), PIXEL_PARAMS,
                            video_id=f"clean{seed}", seed=seed)
        shaky = score_video(dot_video(seed, 2.0), PIXEL_PARAMS,
                            video_id=f"shaky{seed}", seed=seed)
        ok_frac = min(
            clean.n_valid_pairs / len(clean.pair_scores),
            shaky.n_valid_pairs / len(shaky.pair_scores),
        )
        ordered = (clean.consistency_error is not None
                   and shaky.consistency_error is not None
                   and clean.consistency_error < shaky.consistency_error)
        if ok_frac >= 0.9 and ordered:
            good += 1
        details.append(f"{ok_frac:.2f}/{'<' if ordered else '!<'}")
    dt = time.monotonic() - t0
    verdict(10, good == 10 and dt < 180.0,
            f"rendered orbit videos: ok-pair fraction >= 0.9 and clean < sigma=2 "
            f"jitter on {good}/10 seeds [{' '.join(details)}], {dt:.1f}s (< 3min)")


def test_criterion_11_subcommand_determinism(tmp_path):
    synth_common = ["--kind", "dolly", "--frames", "5", "--points", "90",
                    "--width", "160", "--height", "160", "--focal", "240"]
    score_flags = ["--gaps", "1", "--stride", "1", "--ransac-iterations", "200",
                   "--inlier-threshold", "25", "--octaves", "3",
                   "--ratio-threshold", "0.85", "--min-matches", "16", "--seed", "5"]

    outputs = {"a": {}, "b": {}}
    for run in ("a", "b"):
        root = tmp_path / run
        assert cli_main(["synth", "--out", str(root / "clean"), "--seed", "21"]
                        + synth_common) == 0
        assert cli_main(["synth", "--out", str(root / "shaky"), "--seed", "21",
                         "--jitter", "1.0"] + synth_common) == 0
        manifest = {"videos": [{"id": "clean", "dir": "clean/frames"},
                               {"id": "shaky", "dir": "shaky/frames"}]}
        (root / "manifest.json").write_text(json.dumps(manifest))
        (root / "groups.json").write_text(json.dumps(
            {"groups": [{"prompt_id": "p0", "video_ids": ["clean", "shaky"]}]}))

        assert cli_main(["score", str(root / "manifest.json"), "--output",
                         str(root / "scores.jsonl"), "--per-pair"] + score_flags) == 0
        assert cli_main(["rank", "--scores", str(root / "scores.jsonl"),
                         "--groups", str(root / "groups.json"),
                         "--output", str(root / "ranking.jsonl")]) == 0
        assert cli_main(["pairs", "--scores", str(root / "scores.jsonl"),
                         "--groups", str(root / "groups.json"), "--tau", "1e-9",
                         "--output", str(root / "pairs.jsonl")]) == 0
        assert cli_main(["dpo-demo", "--pairs", str(root / "pairs.jsonl"),
                         "--out", str(root / "demo"), "--steps", "50"]) == 0
        assert cli_main(["ssim", str(root / "clean" / "frames" / "frame_000.pgm"),
                         str(root / "clean" / "frames" / "frame_001.pgm"),
                         "--output", str(root / "ssim.json")]) == 0

        outputs[run] = {
            "synth scene": (root / "clean" / "scene.json").read_bytes(),
            "synth corr": (root / "clean" / "correspondences.jsonl").read_bytes(),
            "synth frame": (root / "clean" / "frames" / "frame_002.pgm").read_bytes(),
            "score": (root / "scores.jsonl").read_bytes(),
            "rank": (root / "ranking.jsonl").read_bytes(),
            "pairs": (root / "pairs.jsonl").read_bytes(),
            "dpo trace": (root / "demo" / "loss_trace.csv").read_bytes(),
            "dpo params": (root / "demo" / "final_params.json").read_bytes(),
            "ssim": (root / "ssim.json").read_bytes(),
        }

    mismatched = [k for k in outputs["a"] if outputs["a"][k] != outputs["b"][k]]
    verdict(11, not mismatched,
            f"rerun of synth/score/rank/pairs/dpo-demo/ssim byte-identical across "
            f"{len(outputs['a'])} artifacts" + (f"; mismatched: {mismatched}" if mismatched else ""))
