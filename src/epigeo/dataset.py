"""Groupwise ranking and preference-pair construction.

Several videos generated from one prompt are ranked by consistency score, and
(winner, loser) pairs are emitted only when the winner is clearly better: the
score gap must exceed tau and the winner's own score must exceed epsilon.
Flagged videos (``VideoScore.flagged``) are neither ranked nor paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .records import DEFAULT_EPSILON, DEFAULT_MAX_PAIRS_PER_GROUP, DEFAULT_TAU, check_pair_settings

SKIP_TOO_FEW_UNFLAGGED = "too_few_unflagged"


class GroupSkipped(Exception):
    """A group cannot be ranked; carries a machine-readable reason code."""

    def __init__(self, prompt_id, reason):
        super().__init__(f"group {prompt_id!r} skipped: {reason}")
        self.prompt_id = prompt_id
        self.reason = reason


@dataclass(frozen=True)
class GenerationGroup:
    """All scored generations for one prompt."""

    prompt_id: str
    members: tuple

    def __post_init__(self):
        members = tuple((str(vid), score) for vid, score in self.members)
        object.__setattr__(self, "members", members)
        if len(members) < 2:
            raise ValueError("a group needs at least 2 members")
        ids = [vid for vid, _ in members]
        if len(set(ids)) != len(ids):
            raise ValueError("video ids within a group must be distinct")
        for vid, score in members:
            if vid != str(score.video_id):
                raise ValueError(f"member id {vid!r} does not match its score's video_id")
        hashes = {score.config_hash for _, score in members}
        if len(hashes) > 1:
            raise ValueError("all members of a group must share one config hash")

    @property
    def config_hash(self):
        return self.members[0][1].config_hash


@dataclass(frozen=True)
class PreferencePair:
    """One (winner, loser) training pair from a prompt group."""

    prompt_id: str
    winner_id: str
    loser_id: str
    winner_score: float
    loser_score: float
    score_gap: float

    def __post_init__(self):
        if not 0.0 < self.winner_score <= 1.0 or not 0.0 < self.loser_score <= 1.0:
            raise ValueError("scores must lie in (0, 1]")
        if self.score_gap != self.winner_score - self.loser_score:
            raise ValueError("score_gap must equal winner_score - loser_score")
        if self.score_gap <= 0.0:
            raise ValueError("score_gap must be positive")


def rank_group(group: GenerationGroup):
    """Unflagged members ordered best-first.

    Order is descending consistency score; exact ties fall back to video id,
    so the ranking is deterministic.  Fewer than 2 unflagged members raises
    :class:`GroupSkipped`.
    """
    unflagged = [(vid, s) for vid, s in group.members if not s.flagged]
    if len(unflagged) < 2:
        raise GroupSkipped(group.prompt_id, SKIP_TOO_FEW_UNFLAGGED)
    return sorted(unflagged, key=lambda m: (-m[1].consistency_score, m[0]))


def build_pairs(
    groups,
    tau=DEFAULT_TAU,
    epsilon=DEFAULT_EPSILON,
    max_pairs_per_group=DEFAULT_MAX_PAIRS_PER_GROUP,
    on_skip=None,
):
    """Preference pairs from scored groups.

    A group's candidates are its ranked (winner, loser) pairs, widest score
    gap first, ties by winner id, then loser id.  Its pairs are the first
    ``max_pairs_per_group`` candidates whose gap exceeds ``tau`` and whose
    winner's score exceeds ``epsilon``, so the pairs at one budget are a
    prefix of those at any larger one.  Unrankable groups are skipped;
    ``on_skip(prompt_id, reason)`` is called for each if provided.
    """
    check_pair_settings(tau, epsilon, max_pairs_per_group)
    groups = list(groups)
    hashes = {g.config_hash for g in groups}
    if len(hashes) > 1:
        raise ValueError("groups were scored under different config hashes")

    pairs = []
    for group in groups:
        try:
            ranked = [(vid, s.consistency_score) for vid, s in rank_group(group)]
        except GroupSkipped as skip:
            if on_skip is not None:
                on_skip(skip.prompt_id, skip.reason)
            continue
        candidates = sorted(combinations(ranked, 2), key=lambda c: (-(c[0][1] - c[1][1]), c[0][0], c[1][0]))
        qualifying = (
            PreferencePair(group.prompt_id, win_id, lose_id, win, lose, win - lose)
            for (win_id, win), (lose_id, lose) in candidates
            if win - lose > tau and win > epsilon
        )
        pairs.extend(islice(qualifying, max_pairs_per_group))
    return pairs
