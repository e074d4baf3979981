"""Span recording for the traced run, from outside the library.

The tracer replaces public functions at the names their callers look up
(for instance ``epigeo.scoring.ransac_fundamental``, which ``scoring`` calls,
rather than ``epigeo.epipolar.ransac_fundamental``) with wrappers that record
a span: name, start, end, parent span and a few counts. Spans stay in memory
until the run ends. Per-layer metrics are computed from the spans, and a
coverage check verifies the spans against the results scoring returned.

A wrapped name that no longer exists makes its layer unmeasured: the layer's
metrics are reported as null, never as zero.
"""

from __future__ import annotations

import inspect
import json
import os
import struct
import time
from contextlib import contextmanager

import epigeo.cli
import epigeo.dataset
import epigeo.epipolar
import epigeo.features
import epigeo.image
import epigeo.io
import epigeo.scoring

PAIR_STATUSES = ("ok", "too_few_matches", "estimation_failed", "degenerate")


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, attrs]
        self._stack = []
        self._patches = []
        self.unmeasured = {}  # layer -> reasons its spans cannot be trusted

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name, {})
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr, name, annotate=None):
        """Plan a wrapper for module.attr; `install` puts it in place.

        annotate(attrs, bound_arguments, result, error) adds counts to the
        span after the call returns or raises; it runs outside the span.
        """
        layer = name.split(".")[0]
        where = f"{module.__name__}.{attr}"
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.unmeasured.setdefault(layer, set()).add(f"{where} not found")
            return
        signature = inspect.signature(orig)
        tracer = self

        def note(idx, args, kwargs, result, error):
            if annotate is None:
                return
            try:
                annotate(tracer.spans[idx][4], _bind(signature, args, kwargs), result, error)
            except (KeyError, TypeError, AttributeError, IndexError) as exc:
                # the function's arguments or result changed shape
                tracer.unmeasured.setdefault(layer, set()).add(f"{where}: {exc!r}")

        def wrapper(*args, **kwargs):
            idx = tracer._open(name, {})
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer.spans[idx][4]["error"] = type(exc).__name__
                note(idx, args, kwargs, None, exc)
                raise
            tracer._close(idx)
            note(idx, args, kwargs, result, None)
            return result

        self._patches.append((module, attr, orig, wrapper))

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, orig, _ in self._patches:
            setattr(module, attr, orig)

    def write(self, path, header):
        """Write the spans as JSONL: a header line, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for k, (name, start, end, parent, attrs) in enumerate(self.spans):
                counts = {
                    key: value for key, value in attrs.items()
                    if isinstance(value, (int, float, str))
                }
                fh.write(json.dumps(
                    {"id": k, "name": name, "parent": parent, "start": start,
                     "end": end, **counts},
                    sort_keys=True,
                ) + "\n")


def _bind(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# ------------------------------------------------------------- annotations

def _png_raw_bytes(data):
    """Decoded sample bytes of a PNG (from IHDR); encoded size otherwise."""
    if data[:8] == b"\x89PNG\r\n\x1a\n" and len(data) >= 29:
        width, height, depth, color = struct.unpack(">IIBB", data[16:26])
        channels = 3 if color == 2 else 1
        return width * height * channels * depth // 8
    return len(data)


def _note_decode(attrs, a, result, error):
    attrs["raw_bytes"] = _png_raw_bytes(a["data"])


def _note_file_bytes(attrs, a, result, error):
    attrs["bytes"] = os.path.getsize(a["path"]) if error is None else 0


def _note_detect(attrs, a, result, error):
    attrs["keypoints"] = len(result) if error is None else 0


def _note_describe(attrs, a, result, error):
    attrs["attempted"] = len(a["keypoints"])
    attrs["kept"] = len(result.keypoints) if error is None else 0


def _note_match(attrs, a, result, error):
    attrs["matches"] = len(result[2]) if error is None else 0


def _note_ransac(attrs, a, result, error):
    attrs["n"] = len(a["correspondences"][0])
    attrs["iterations"] = int(a["iterations"])
    attrs["inliers"] = int(result[1].sum()) if error is None else 0


def _note_result(attrs, a, result, error):
    attrs["result"] = result


def _note_pairs(attrs, a, result, error):
    attrs["pairs"] = len(result) if error is None else 0


def _note_train(attrs, a, result, error):
    attrs["steps"] = int(a["steps"])


# (module, attribute, span name, annotation); span names start with a layer
WRAPS = (
    (epigeo.io, "decode_frame", "image.decode", _note_decode),
    (epigeo.image, "resize_max_dim", "image.resize", None),
    (epigeo.image, "ssim", "image.ssim", None),
    (epigeo.scoring, "extract_features", "features.extract", None),
    (epigeo.features, "build_scale_space", "features.pyramid", None),
    (epigeo.features, "detect_keypoints", "features.detect", _note_detect),
    (epigeo.features, "compute_descriptors", "features.describe", _note_describe),
    (epigeo.scoring, "match_frames", "features.match", _note_match),
    (epigeo.scoring, "ransac_fundamental", "epipolar.ransac", _note_ransac),
    (epigeo.epipolar, "sampson_errors", "epipolar.sampson", None),
    (epigeo.scoring, "sampson_errors", "epipolar.sampson", None),
    (epigeo.scoring, "score_video", "scoring.video", _note_result),
    (epigeo.cli, "score_video", "scoring.video", _note_result),
    (epigeo.scoring, "score_video_from_correspondences", "scoring.video", _note_result),
    (epigeo.scoring, "score_pair", "scoring.pair", _note_result),
    (epigeo.dataset, "rank_group", "dataset.rank", None),
    (epigeo.cli, "rank_group", "dataset.rank", None),
    (epigeo.dataset, "build_pairs", "dataset.build_pairs", _note_pairs),
    (epigeo.cli, "build_pairs", "dataset.build_pairs", _note_pairs),
    (epigeo.io, "load_frame", "io.load_frame", _note_file_bytes),
    (epigeo.cli, "read_jsonl", "io.read_jsonl", _note_file_bytes),
    (epigeo.cli, "write_jsonl", "io.write_jsonl", _note_file_bytes),
    (epigeo.cli, "toy_train", "alignment.train", _note_train),
)


def library_tracer() -> Tracer:
    tracer = Tracer()
    for module, attr, name, annotate in WRAPS:
        tracer.wrap(module, attr, name, annotate)
    return tracer


# ----------------------------------------------------------------- analysis

def _children(spans):
    kids = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(k)
    return kids


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    kids = _children(spans)
    return [
        (span[2] - span[1]) - sum(spans[c][2] - spans[c][1] for c in kids[k])
        for k, span in enumerate(spans)
    ]


def check_coverage(spans, min_matches, unmeasured=()):
    """Problems found in the spans; an empty list means the check passed.

    - every child lies inside its parent and siblings do not overlap, so
      self time plus child time equals each parent's duration;
    - per pair, traced matches, RANSAC calls, inliers and failures agree
      with the PairScore that scoring returned (skipped while the features,
      epipolar or scoring layer is unmeasured).
    """
    problems = []
    kids = _children(spans)
    for k, (name, start, end, _, _) in enumerate(spans):
        if end is None:
            problems.append(f"span {k} ({name}) never closed")
            continue
        last = start
        covered = 0.0
        for c in kids[k]:
            c_start, c_end = spans[c][1], spans[c][2]
            if c_start < last or c_end is None or c_end > end:
                problems.append(f"span {c} ({spans[c][0]}) escapes or overlaps within span {k} ({name})")
            last = c_end if c_end is not None else last
            covered += (c_end or c_start) - c_start
        if covered > (end - start) + 1e-9:
            problems.append(f"children of span {k} ({name}) cover more than its duration")

    def descendants(k, prefix):
        out = []
        for c in kids[k]:
            if spans[c][0] == prefix:
                out.append(c)
            else:
                out.extend(descendants(c, prefix))
        return out

    if {"features", "epipolar", "scoring"} & set(unmeasured):
        return problems
    for k, (name, _, _, _, attrs) in enumerate(spans):
        if name != "scoring.video" or "result" not in attrs:
            continue
        vs = attrs["result"]
        pair_spans = descendants(k, "scoring.pair")
        if pair_spans:
            if len(pair_spans) != len(vs.pair_scores):
                problems.append(f"{vs.video_id}: {len(pair_spans)} pair spans, "
                                f"{len(vs.pair_scores)} PairScores")
                continue
            for ps, p in zip(pair_spans, vs.pair_scores):
                if spans[ps][4].get("result") != p:
                    problems.append(f"{vs.video_id} ({p.frame_i},{p.frame_j}): "
                                    "pair span result differs from the video's PairScore")
                traced = sum(spans[m][4]["matches"] for m in descendants(ps, "features.match"))
                if traced != p.n_matches:
                    problems.append(f"{vs.video_id} ({p.frame_i},{p.frame_j}): traced "
                                    f"{traced} matches, PairScore has {p.n_matches}")
                problems += _check_ransac(vs.video_id, p, descendants(ps, "epipolar.ransac"),
                                          spans, min_matches)
        else:
            ransac = descendants(k, "epipolar.ransac")
            estimated = [p for p in vs.pair_scores if p.n_matches >= min_matches]
            if len(ransac) != len(estimated):
                problems.append(f"{vs.video_id}: {len(ransac)} RANSAC calls for "
                                f"{len(estimated)} estimable pairs")
                continue
            for r, p in zip(ransac, estimated):
                if spans[r][4]["n"] != p.n_matches:
                    problems.append(f"{vs.video_id} ({p.frame_i},{p.frame_j}): traced "
                                    f"{spans[r][4]['n']} matches, PairScore has {p.n_matches}")
                problems += _check_ransac(vs.video_id, p, [r], spans, min_matches)
    return problems


def _check_ransac(video_id, p, ransac, spans, min_matches):
    where = f"{video_id} ({p.frame_i},{p.frame_j})"
    expected = 1 if p.n_matches >= min_matches else 0
    if len(ransac) != expected:
        return [f"{where}: {len(ransac)} RANSAC calls, expected {expected}"]
    if not ransac:
        return [] if p.status == "too_few_matches" else [
            f"{where}: no RANSAC call but status {p.status}"]
    attrs = spans[ransac[0]][4]
    if "error" in attrs:
        if p.status != "estimation_failed" or p.n_inliers != 0:
            return [f"{where}: RANSAC raised but status {p.status}, {p.n_inliers} inliers"]
        return []
    if attrs["inliers"] != p.n_inliers:
        return [f"{where}: traced {attrs['inliers']} inliers, PairScore has {p.n_inliers}"]
    return []


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, unmeasured):
    """Per-layer self times and counts over all recorded spans.

    A layer whose work never happened on a workload reports zero time and
    zero counts; a layer that could not be wrapped reports null.
    """
    selfs = self_times(spans)
    tot, own, count = {}, {}, {}
    attr_sum = {}
    for k, (name, start, end, parent, attrs) in enumerate(spans):
        tot[name] = tot.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + selfs[k]
        count[name] = count.get(name, 0) + 1
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value

    def t(name):
        return tot.get(name, 0.0)

    def n(name, key=None):
        return count.get(name, 0) if key is None else attr_sum.get((name, key), 0)

    videos = [attrs["result"] for name, _, _, _, attrs in spans
              if name == "scoring.video" and "result" in attrs]
    pair_scores = [p for vs in videos for p in vs.pair_scores]
    ransac_failed = sum(1 for name, _, _, _, attrs in spans
                        if name == "epipolar.ransac" and "error" in attrs)
    skipped = sum(
        1 for name, _, _, parent, attrs in spans
        if name == "dataset.rank" and attrs.get("error") == "GroupSkipped"
        and parent >= 0 and spans[parent][0] == "dataset.build_pairs"
    )
    cli_self = sum(own.get(f"cli.{step}", 0.0) for step in ("score", "rank", "pairs", "dpo_demo"))

    metrics = {
        "image": {
            "image.decode_s": t("image.decode"),
            "image.decode_frames": n("image.decode"),
            "image.decode_mb_per_s": _ratio(n("image.decode", "raw_bytes") / 1e6, t("image.decode")),
            "image.resize_s": t("image.resize"),
            "image.ssim_s": t("image.ssim"),
            "image.ssim_calls": n("image.ssim"),
        },
        "features": {
            "features.pyramid_s": t("features.pyramid"),
            "features.detect_s": t("features.detect"),
            "features.describe_s": t("features.describe"),
            "features.match_s": t("features.match"),
            "features.keypoints": n("features.detect", "keypoints"),
            "features.describe_yield": _ratio(n("features.describe", "kept"),
                                              n("features.describe", "attempted")),
            "features.matches": n("features.match", "matches"),
        },
        "epipolar": {
            "epipolar.ransac_s": t("epipolar.ransac"),
            "epipolar.ransac_calls": n("epipolar.ransac"),
            "epipolar.ransac_iterations": n("epipolar.ransac", "iterations"),
            "epipolar.us_per_iteration": 1e6 * _ratio(t("epipolar.ransac"),
                                                      n("epipolar.ransac", "iterations")),
            "epipolar.inlier_ratio": _ratio(n("epipolar.ransac", "inliers"),
                                            n("epipolar.ransac", "n")),
            "epipolar.sampson_s": t("epipolar.sampson"),
            "epipolar.failed_pairs": ransac_failed,
        },
        "scoring": {
            "scoring.self_s": own.get("scoring.video", 0.0) + own.get("scoring.pair", 0.0),
            "scoring.pairs": len(pair_scores),
            **{
                f"scoring.pair_status.{s}": sum(1 for p in pair_scores if p.status == s)
                for s in PAIR_STATUSES
            },
            "scoring.flagged_videos": sum(
                1 for vs in videos if vs.near_static or vs.insufficient_texture
            ),
        },
        "dataset": {
            "dataset.rank_s": t("dataset.rank"),
            "dataset.build_pairs_s": own.get("dataset.build_pairs", 0.0),
            "dataset.pairs_emitted": n("dataset.build_pairs", "pairs"),
            "dataset.groups_skipped": skipped,
        },
        "io": {
            "io.read_s": own.get("io.load_frame", 0.0) + t("io.read_jsonl"),
            "io.bytes_read": n("io.load_frame", "bytes") + n("io.read_jsonl", "bytes"),
            "io.write_s": t("io.write_jsonl"),
            "io.bytes_written": n("io.write_jsonl", "bytes"),
        },
        "alignment": {
            "alignment.train_s": t("alignment.train"),
            "alignment.steps": n("alignment.train", "steps"),
            "alignment.s_per_step": _ratio(t("alignment.train"), n("alignment.train", "steps")),
        },
        "cli": {
            "cli.score_s": t("cli.score"),
            "cli.rank_s": t("cli.rank"),
            "cli.pairs_s": t("cli.pairs"),
            "cli.dpo_demo_s": t("cli.dpo_demo"),
            "cli.self_s": cli_self,
        },
    }
    flat = {}
    for layer, values in metrics.items():
        for key, value in values.items():
            flat[key] = None if layer in unmeasured else value
    return flat
