"""Tests for group ranking and preference-pair filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigeo.dataset import (
    SKIP_TOO_FEW_UNFLAGGED,
    GenerationGroup,
    GroupSkipped,
    PreferencePair,
    build_pairs,
    rank_group,
)
from epigeo.scoring import VideoScore


def vs(video_id, score=None, near_static=False, insufficient=False, config_hash="cfg"):
    """VideoScore with consistency_score as close to `score` as floats allow."""
    if score is None:
        return VideoScore(video_id, None, None, 0.5, 0, near_static, True, config_hash)
    error = (1.0 - score) / score
    return VideoScore(
        video_id, error, 1.0 / (1.0 + error), 0.5, 3, near_static, insufficient, config_hash
    )


def group(prompt_id, *scores):
    return GenerationGroup(prompt_id, tuple((s.video_id, s) for s in scores))


# ---------------------------------------------------------------------- types

def test_group_requires_two_members():
    with pytest.raises(ValueError):
        group("p", vs("a", 0.5))


def test_group_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        group("p", vs("a", 0.5), vs("a", 0.6))


def test_group_rejects_id_mismatch():
    with pytest.raises(ValueError):
        GenerationGroup("p", (("x", vs("a", 0.5)), ("b", vs("b", 0.6))))


def test_group_rejects_mixed_config_hashes():
    with pytest.raises(ValueError):
        group("p", vs("a", 0.5, config_hash="one"), vs("b", 0.6, config_hash="two"))


def test_preference_pair_invariants():
    with pytest.raises(ValueError):
        PreferencePair("p", "w", "l", 0.8, 0.4, 0.3)  # gap mismatch
    with pytest.raises(ValueError):
        PreferencePair("p", "w", "l", 0.4, 0.4, 0.0)
    with pytest.raises(ValueError):
        PreferencePair("p", "w", "l", 1.2, 0.4, 0.8)


# -------------------------------------------------------------------- ranking

def test_rank_descending_by_score():
    g = group("p", vs("a", 0.9), vs("b", 0.5), vs("c", 0.7))
    assert [m[0] for m in rank_group(g)] == ["a", "c", "b"]


def test_rank_ties_break_by_video_id():
    g = group("p", vs("b", 0.5), vs("a", 0.5))
    assert [m[0] for m in rank_group(g)] == ["a", "b"]


def test_rank_skips_group_with_flagged_member():
    g = group("p", vs("a", 0.9, near_static=True), vs("b", 0.5))
    with pytest.raises(GroupSkipped) as exc:
        rank_group(g)
    assert exc.value.reason == SKIP_TOO_FEW_UNFLAGGED
    assert exc.value.prompt_id == "p"


def test_rank_excludes_flagged_members():
    g = group("p", vs("a", 0.9, insufficient=True), vs("b", 0.5), vs("c", 0.7))
    assert [m[0] for m in rank_group(g)] == ["c", "b"]


def test_rank_excludes_unscored_members():
    g = group("p", vs("a"), vs("b", 0.5), vs("c", 0.7))
    assert [m[0] for m in rank_group(g)] == ["c", "b"]


# ---------------------------------------------------------------- build_pairs

def test_best_vs_worst_pair_emitted():
    g = group("p", vs("a", 0.80), vs("b", 0.72), vs("c", 0.40))
    pairs = build_pairs([g], tau=0.05, epsilon=0.5)
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.winner_id, p.loser_id) == ("a", "c")
    assert p.winner_score == pytest.approx(0.80, abs=1e-12)
    assert p.loser_score == pytest.approx(0.40, abs=1e-12)
    assert p.score_gap == p.winner_score - p.loser_score


def test_small_gap_filtered():
    g = group("p", vs("a", 0.52), vs("b", 0.50))
    assert build_pairs([g], tau=0.05, epsilon=0.5) == []


def test_weak_winner_filtered():
    g = group("p", vs("a", 0.45), vs("b", 0.10))
    assert build_pairs([g], tau=0.05, epsilon=0.5) == []


def test_boundary_gap_excluded():
    a, b = vs("a", 0.60), vs("b", 0.55)
    exact_gap = a.consistency_score - b.consistency_score
    assert build_pairs([group("p", a, b)], tau=exact_gap, epsilon=0.5) == []


def test_boundary_winner_excluded():
    a, b = vs("a", 0.60), vs("b", 0.40)
    assert build_pairs([group("p", a, b)], tau=0.05, epsilon=a.consistency_score) == []


def test_max_pairs_budget():
    g = group("p", vs("a", 0.95), vs("b", 0.80), vs("c", 0.65), vs("d", 0.30))
    one = build_pairs([g], tau=0.05, epsilon=0.5, max_pairs_per_group=1)
    assert [(p.winner_id, p.loser_id) for p in one] == [("a", "d")]
    three = build_pairs([g], tau=0.05, epsilon=0.5, max_pairs_per_group=3)
    assert len(three) == 3
    assert (three[0].winner_id, three[0].loser_id) == ("a", "d")  # widest gap first
    gaps = [p.score_gap for p in three]
    assert gaps == sorted(gaps, reverse=True)


def test_budget_one_takes_the_first_tied_loser_by_id():
    # b and c tie for worst: every budget takes its losers in id order
    g = group("p", vs("a", 0.909), vs("b", 0.5), vs("c", 0.5))
    one = build_pairs([g], tau=0.0, max_pairs_per_group=1)
    assert [(p.winner_id, p.loser_id) for p in one] == [("a", "b")]
    two = build_pairs([g], tau=0.0, max_pairs_per_group=2)
    assert [(p.winner_id, p.loser_id) for p in two] == [("a", "b"), ("a", "c")]


def test_flagged_members_never_enter_pairs():
    g = group("p", vs("a", 0.95, near_static=True), vs("b", 0.80), vs("c", 0.30))
    pairs = build_pairs([g], tau=0.05, epsilon=0.5)
    assert [(p.winner_id, p.loser_id) for p in pairs] == [("b", "c")]


def test_skipped_groups_reported():
    skips = []
    g1 = group("p1", vs("a", 0.9, near_static=True), vs("b", 0.5))
    g2 = group("p2", vs("c", 0.9), vs("d", 0.5))
    pairs = build_pairs([g1, g2], on_skip=lambda pid, why: skips.append((pid, why)))
    assert skips == [("p1", SKIP_TOO_FEW_UNFLAGGED)]
    assert len(pairs) == 1 and pairs[0].prompt_id == "p2"


def test_mixed_hashes_across_groups_rejected():
    g1 = group("p1", vs("a", 0.9, config_hash="one"), vs("b", 0.5, config_hash="one"))
    g2 = group("p2", vs("c", 0.9, config_hash="two"), vs("d", 0.5, config_hash="two"))
    with pytest.raises(ValueError):
        build_pairs([g1, g2])


def test_threshold_validation():
    g = group("p", vs("a", 0.9), vs("b", 0.5))
    with pytest.raises(ValueError):
        build_pairs([g], tau=-0.1)
    with pytest.raises(ValueError):
        build_pairs([g], epsilon=0.0)
    with pytest.raises(ValueError):
        build_pairs([g], epsilon=1.0)
    with pytest.raises(ValueError):
        build_pairs([g], max_pairs_per_group=0)


def fuzz_groups(n_groups, seed):
    rng = np.random.default_rng(seed)
    groups = []
    for k in range(n_groups):
        members = []
        for m in range(rng.integers(2, 6)):
            score = float(rng.uniform(0.05, 0.99))
            members.append(
                vs(
                    f"g{k}v{m}",
                    score,
                    near_static=bool(rng.random() < 0.15),
                    insufficient=bool(rng.random() < 0.15),
                )
            )
        groups.append(group(f"g{k}", *members))
    return groups


def test_every_emitted_pair_revalidates():
    groups = fuzz_groups(120, seed=1)
    by_id = {vid: s for g in groups for vid, s in g.members}
    tau, eps = 0.07, 0.45
    for p in build_pairs(groups, tau=tau, epsilon=eps, max_pairs_per_group=2):
        assert p.score_gap > tau
        assert p.winner_score > eps
        assert p.score_gap == p.winner_score - p.loser_score
        for vid in (p.winner_id, p.loser_id):
            s = by_id[vid]
            assert not s.near_static and not s.insufficient_texture


def test_raising_tau_never_adds_pairs():
    groups = fuzz_groups(80, seed=2)
    counts = [
        len(build_pairs(groups, tau=t, epsilon=0.3))
        for t in (0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8)
    ]
    assert counts == sorted(counts, reverse=True)


def test_build_pairs_deterministic():
    groups = fuzz_groups(40, seed=3)
    assert build_pairs(groups, max_pairs_per_group=2) == build_pairs(
        groups, max_pairs_per_group=2
    )


# a few fixed scores make exact ties (equal scores, equal gaps) common
member_strategy = st.tuples(
    st.one_of(st.sampled_from([0.3, 0.6, 0.6000001, 0.9]), st.floats(0.01, 1.0), st.none()),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(
    members=st.lists(member_strategy, min_size=2, max_size=7),
    data=st.data(),
    tau=st.sampled_from([0.0, 0.05, 0.3]),
    epsilon=st.sampled_from([0.2, 0.5]),
)
def test_ranking_ignores_member_order(members, data, tau, epsilon):
    scores = [
        vs(f"v{k}", score, near_static=static and score is not None,
           insufficient=few and score is not None)
        for k, (score, static, few) in enumerate(members)
    ]
    shuffled = data.draw(st.permutations(scores))
    g, h = group("p", *scores), group("p", *shuffled)
    try:
        ranked = rank_group(g)
    except GroupSkipped as skip:
        with pytest.raises(GroupSkipped) as other:
            rank_group(h)
        assert other.value.reason == skip.reason
    else:
        assert rank_group(h) == ranked
    for budget in (1, 2, 30):
        kwargs = dict(tau=tau, epsilon=epsilon, max_pairs_per_group=budget)
        assert build_pairs([h], **kwargs) == build_pairs([g], **kwargs)


@settings(max_examples=150, deadline=None)
@given(
    # few distinct scores, so most groups hold tied scores and tied gaps
    scores=st.lists(st.sampled_from([0.3, 0.5, 0.6, 0.6000001, 0.9]), min_size=2, max_size=7),
    tau=st.sampled_from([0.0, 0.05, 0.3]),
    epsilon=st.sampled_from([0.2, 0.5]),
)
def test_pairs_at_a_budget_prefix_those_at_every_larger_budget(scores, tau, epsilon):
    g = group("p", *(vs(f"v{k}", score) for k, score in enumerate(scores)))
    # 7 members give at most 21 candidates, so budget 22 emits every pair
    by_budget = [build_pairs([g], tau=tau, epsilon=epsilon, max_pairs_per_group=k)
                 for k in range(1, 23)]
    for budget, (pairs, more) in enumerate(zip(by_budget, by_budget[1:]), start=1):
        assert len(pairs) == min(budget, len(by_budget[-1]))
        assert more[: len(pairs)] == pairs
