"""epigeo benchmark: seeded workloads, end-to-end metrics, and a traced run.

Run from the repository root (nothing is installed; the library is imported
from src/):

    python3 perfbench/run.py --workload ladder --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 3      # every workload, one table

Workloads (BENCHMARK.json lists the measured ones and why each was chosen):

    ladder   criterion-5 jitter ladders, score_video_from_correspondences ->
             rank_group -> build_pairs
    png_cli  640x480 RGB PNG videos on disk, `epigeo score|rank|pairs|dpo-demo`
    dots256  criterion-10 dot videos, score_video -> rank_group -> build_pairs;
             not in BENCHMARK.json: its layers are all measured on png_cli,
             and the time budget of the measured runs goes to longer runs of
             the other two

The seed draws a pool of groups (the videos of one prompt) from the
workload's catalog. A run scores the whole pool once, then repeats pool
groups while that brings the measured time closer to --seconds. Input
generation is never timed. Quality
metrics cover the first pass, so they do not depend on speed; timings cover
every group run. Every group's outputs are compared with the results stored
for the seed commit in perfbench/reference/; any difference makes the run
incorrect and is printed on stderr.

Seed 99991 is held out: it draws catalog entries no other seed reaches.
Use it to confirm a claimed gain on inputs not seen while the change was
made.

End-to-end metrics (--trace 0):

    setup_s            median wall time of a fresh interpreter importing
                       epigeo and building the CLI parser
    videos_per_s       videos scored / wall time of every group's whole chain
    video_s_p50, _p90  per-video time: score_video for dots256 and ladder;
                       the group's chain time / its videos for png_cli. Both
                       are printed with their sample count; p90 has ten
                       samples beyond it only on ladder (100 videos a run)
    peak_rss_mb        peak resident memory of the process
    rank_accuracy      share of groups ranked in ground-truth jitter order
    ok_pair_frac       share of frame pairs whose status is `ok`
    result_match_frac  share of stored reference values reproduced (floats
                       within 1e-9 relative); 1 unless outputs changed
    success_frac       1 - failed operations / attempted operations

failed_frac and result_rel_dev (the largest relative deviation from the
reference) are printed as text; the metrics above carry them without the
zero that a bounded metric cannot have.

--trace 1 runs the first half of the pool (rounded up) twice per group,
untraced then traced, and prints the per-layer metrics over the traced
groups plus trace_overhead (traced wall time over untraced, minus 1). The
spans are written to .perfbench_work/trace-<workload>-seed<seed>.jsonl.

--make-reference runs every catalog entry once and rewrites the stored
reference; run it only on a commit whose outputs are known to be right.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fixed before NumPy loads: one BLAS thread, and the library's own thread
# option unset, so runs measure the single-threaded program.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("dots256", "ladder", "png_cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or `all` to run each in its own process "
                             "and print one table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="run every catalog entry and rewrite the stored reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "epigeo", "__init__.py")):
        print(f"error: the epigeo sources are missing ({SRC}/epigeo); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_ENV)
    os.environ.pop("EPIGEO_THREADS", None)
    sys.path.insert(0, SRC)

    import harness  # imports NumPy and epigeo, so only after the settings above

    return harness.run(args)


def run_all(args) -> int:
    """Run every workload in its own process; print their metrics as one table."""
    rows = []
    correct = True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        for metric, value in result["metrics"].items():
            rows.append((name, metric, value["value"], value["unit"]))
    print(f"\n{'workload':9s} {'metric':38s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:9s} {metric:38s} {shown:>14s} {unit}")
    print(f"all outputs correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
