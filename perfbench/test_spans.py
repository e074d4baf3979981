"""The tracer's coverage check and its unmeasured-layer rule.

Run from the repository root: python3 -m pytest perfbench/test_spans.py
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def traced_ladder_group():
    tracer = spans.library_tracer()
    inputs = workloads.ladder_inputs(0)
    tracer.install()
    try:
        with tracer.span("bench.unit"):
            res = workloads.run_memory_unit("ladder", 0, inputs)
    finally:
        tracer.uninstall()
    return tracer, res


def test_ladder_spans_cover_scoring_results():
    tracer, res = traced_ladder_group()
    assert res.failed == 0
    assert spans.check_coverage(tracer.spans, workloads.CORR_PARAMS.min_matches) == []
    metrics = spans.layer_metrics(tracer.spans, tracer.unmeasured)
    assert metrics["scoring.pairs"] == 15
    assert metrics["epipolar.ransac_calls"] == 15
    assert metrics["epipolar.ransac_iterations"] == 15 * 200
    assert metrics["image.decode_frames"] == 0  # measured: no decode on this path
    assert metrics["dataset.pairs_emitted"] == len(res.pairs)


def test_self_time_plus_children_is_duration():
    tracer, _ = traced_ladder_group()
    kids = {}
    for k, span in enumerate(tracer.spans):
        kids.setdefault(span[3], []).append(k)
    for k, (self_s, span) in enumerate(zip(spans.self_times(tracer.spans), tracer.spans)):
        children = sum(tracer.spans[c][2] - tracer.spans[c][1] for c in kids.get(k, []))
        assert self_s >= 0
        assert abs(self_s + children - (span[2] - span[1])) < 1e-9


def test_tampered_count_is_reported():
    tracer, _ = traced_ladder_group()
    ransac = next(s for s in tracer.spans if s[0] == "epipolar.ransac")
    ransac[4]["inliers"] += 1
    problems = spans.check_coverage(tracer.spans, workloads.CORR_PARAMS.min_matches)
    assert any("inliers" in p for p in problems)


def test_missing_name_makes_layer_unmeasured():
    tracer = spans.Tracer()
    tracer.wrap(types.ModuleType("gone"), "decode_frame", "image.decode")
    assert "image" in tracer.unmeasured
    metrics = spans.layer_metrics([], tracer.unmeasured)
    assert metrics["image.decode_s"] is None
    assert metrics["features.detect_s"] == 0.0


def test_changed_signature_makes_layer_unmeasured():
    module = types.ModuleType("lib")
    module.ransac_fundamental = lambda pts: (None, None)  # no `iterations` argument
    tracer = spans.Tracer()
    tracer.wrap(module, "ransac_fundamental", "epipolar.ransac", spans._note_ransac)
    tracer.install()
    module.ransac_fundamental(([1, 2], [3, 4]))
    tracer.uninstall()
    assert "epipolar" in tracer.unmeasured
    assert spans.layer_metrics(tracer.spans, tracer.unmeasured)["epipolar.ransac_s"] is None
