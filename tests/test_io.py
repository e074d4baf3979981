"""Tests for the JSONL records of result dataclasses."""

import pickle
from dataclasses import asdict, replace

import pytest

from epigeo.dataset import PreferencePair
from epigeo.records import (
    from_record,
    read_jsonl,
    video_score_from_record,
    video_score_to_record,
    write_jsonl,
)
from epigeo.scoring import PairScore, VideoScore

# every float is exact in binary, so the pinned lines depend on no BLAS build
PAIRS = (
    PairScore(0, 1, 40, 32, 0.5, 0.25, "ok"),
    PairScore(1, 2, 9, 0, None, None, "too_few_matches"),
)
SCORE = VideoScore("v0", 1.0, 0.5, 0.125, 1, False, False, "0123456789abcdef", PAIRS)
PAIR = PreferencePair("p0", "v0", "v1", 0.75, 0.5, 0.25)

PINNED = [
    '{"config_hash":"0123456789abcdef","consistency_error":1.0,"consistency_score":0.5,'
    '"insufficient_texture":false,"motion_level":0.125,"n_valid_pairs":1,"near_static":false,'
    '"pair_scores":[{"frame_i":0,"frame_j":1,"mean_inlier_sampson":0.5,'
    '"median_inlier_sampson":0.25,"n_inliers":32,"n_matches":40,"status":"ok"},'
    '{"frame_i":1,"frame_j":2,"mean_inlier_sampson":null,"median_inlier_sampson":null,'
    '"n_inliers":0,"n_matches":9,"status":"too_few_matches"}],"video_id":"v0"}',
    '{"config_hash":"0123456789abcdef","consistency_error":1.0,"consistency_score":0.5,'
    '"insufficient_texture":false,"motion_level":0.125,"n_valid_pairs":1,"near_static":false,'
    '"video_id":"v0"}',
]


def _round_trip(tmp_path, record):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [record], {"record": "test"})
    header, records = read_jsonl(path)
    assert header == {"record": "test"}
    assert len(records) == 1
    return records[0]


@pytest.mark.parametrize("per_pair", [True, False])
def test_video_score_round_trip(tmp_path, per_pair):
    rec = _round_trip(tmp_path, video_score_to_record(SCORE, per_pair=per_pair))
    expected = SCORE if per_pair else replace(SCORE, pair_scores=())
    assert video_score_from_record(rec) == expected


def test_preference_pair_round_trip(tmp_path):
    rec = _round_trip(tmp_path, asdict(PAIR))
    assert from_record(PreferencePair, rec) == PAIR


def test_unknown_keys_are_ignored():
    rec = {**video_score_to_record(SCORE), "comment": "extra"}
    assert video_score_from_record(rec) == replace(SCORE, pair_scores=())
    assert from_record(PreferencePair, {**asdict(PAIR), "note": 1}) == PAIR


def test_optional_fields_may_be_absent():
    rec = video_score_to_record(SCORE)
    del rec["config_hash"]
    assert video_score_from_record(rec) == replace(SCORE, config_hash=None, pair_scores=())


@pytest.mark.parametrize("key", ["video_id", "consistency_error", "near_static"])
def test_missing_required_key_is_named(key):
    rec = video_score_to_record(SCORE, per_pair=True)
    del rec[key]
    with pytest.raises(KeyError) as exc:
        video_score_from_record(rec)
    assert exc.value.args == (key,)


def test_missing_pair_score_key_is_named():
    rec = video_score_to_record(SCORE, per_pair=True)
    del rec["pair_scores"][1]["status"]
    with pytest.raises(KeyError) as exc:
        video_score_from_record(rec)
    assert exc.value.args == ("status",)


@pytest.mark.parametrize("rec", [["video_id"], "video_id", 3, None])
def test_non_object_record_is_a_type_error(rec):
    with pytest.raises(TypeError):
        video_score_from_record(rec)


def test_record_lines_are_pinned(tmp_path):
    path = tmp_path / "scores.jsonl"
    write_jsonl(path, [video_score_to_record(SCORE, per_pair=True), video_score_to_record(SCORE)])
    assert path.read_bytes() == "".join(line + "\n" for line in PINNED).encode("utf-8")


def test_video_score_survives_pickling():
    # score's worker processes return their VideoScores pickled
    assert pickle.loads(pickle.dumps(SCORE)) == SCORE
