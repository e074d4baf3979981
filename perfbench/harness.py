"""Measurement loop, metrics and the result line (imported by run.py)."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import spans
import workloads
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE_DIR = os.path.join(HERE, "reference")

# set-up is timed in three batches (start, middle and end of the run) so that
# the median spans the run rather than one moment of the machine's load
SETUP_PER_BATCH = 3
SETUP_CODE = "import epigeo.cli; epigeo.cli.build_parser()"


def metric_specs():
    """(end_to_end, per_layer) lists of (name, unit) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def machine():
    """The facts a timing depends on, recorded with every result."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "EPIGEO_THREADS")},
    }


def measure_setup(times, repeats):
    """Time `repeats` fresh interpreters importing epigeo and building the CLI parser.

    Bytecode caching is left on, so after the first run the import reads
    cached bytecode, as an installed package does.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)


# ---------------------------------------------------------------------- units

class UnitRunner:
    """Prepares a group's inputs (untimed) and runs its chain (timed)."""

    def __init__(self, workload):
        self.workload = workload
        self.unit_dir = os.path.join(WORK, f"{workload}-{os.getpid()}")

    def prepare(self, entry):
        if self.workload == "dots256":
            return workloads.dots256_inputs(entry)
        if self.workload == "ladder":
            return workloads.ladder_inputs(entry)
        return workloads.png_cli_inputs(entry, self.unit_dir)

    def run(self, entry, inputs, tracer=None):
        if tracer is not None:
            tracer.install()
        try:
            if self.workload == "png_cli":
                span = tracer.span if tracer is not None else None
                return workloads.run_cli_unit(entry, self.unit_dir, inputs, span)
            if tracer is None:
                return workloads.run_memory_unit(self.workload, entry, inputs)
            with tracer.span("bench.unit"):
                return workloads.run_memory_unit(self.workload, entry, inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def close(self):
        shutil.rmtree(self.unit_dir, ignore_errors=True)


def load_reference(workload):
    """Stored outputs by catalog entry; without the file, every group mismatches."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        print(f"perfbench: no stored reference at {path}", file=sys.stderr)
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


class Tally:
    """Counts and reference comparisons over the groups of one run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.compared = 0
        self.matched = 0
        self.max_dev = 0.0
        self.problems = []

    def add(self, entry, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems += res.errors
        want = self.reference.get(str(entry))
        if want is None:
            self.compared += 1
            self.problems.append(f"entry {entry}: no stored reference")
            return
        n, ok, dev, mismatches = workloads.compare(res.outputs(), want)
        self.compared += n
        self.matched += ok
        self.max_dev = max(self.max_dev, dev)
        self.problems += [f"entry {entry}: {m}" for m in mismatches]


def quality(first_pass):
    """rank_accuracy and ok_pair_frac over one pass of the pool."""
    in_order = sum(1 for res in first_pass if res.ranking == res.gt_order)
    statuses = [s for res in first_pass for v in res.videos.values() for s in v["statuses"]]
    return (
        in_order / len(first_pass),
        sum(1 for s in statuses if s == "ok") / max(len(statuses), 1),
    )


def reference_accuracy(tally, pool):
    stored = [tally.reference.get(str(entry), {}).get("ranked_in_order") for entry in pool]
    return sum(1 for ok in stored if ok) / len(pool)


# ------------------------------------------------------------------------ run

def run(args) -> int:
    end_to_end, per_layer = metric_specs()
    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    runner = UnitRunner(args.workload)
    try:
        if args.make_reference:
            return make_reference(wl, runner)
        info = machine()
        pool = wl.pool_entries(args.seed)
        print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds:g} pool={pool}")
        print("machine " + json.dumps(info, sort_keys=True))
        tally = Tally(load_reference(wl.name))
        if args.trace:
            values = traced_run(args, wl, pool, runner, tally)
            specs = per_layer
        else:
            values = untraced_run(args, pool, runner, tally)
            specs = end_to_end
    finally:
        runner.close()

    for problem in tally.problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    correct = not tally.problems
    if not correct:
        print(f"perfbench: {len(tally.problems)} problem(s); the run is NOT correct",
              file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def untraced_run(args, pool, runner, tally):
    measure_setup([], 1)  # compiles bytecode caches; not counted
    setup_times = []
    measure_setup(setup_times, SETUP_PER_BATCH)
    results = []
    measured = 0.0
    k = 0
    # after one pass, add a group only while that brings the measured time
    # closer to --seconds
    while k < len(pool) or measured + 0.5 * measured / k < args.seconds:
        entry = pool[k % len(pool)]
        res = runner.run(entry, runner.prepare(entry))
        tally.add(entry, res)
        results.append(res)
        measured += res.wall_s
        k += 1
        if k == (len(pool) + 1) // 2:
            measure_setup(setup_times, SETUP_PER_BATCH)
    measure_setup(setup_times, SETUP_PER_BATCH)
    setup_s = statistics.median(setup_times)

    # if every video failed, the whole measured time stands in as the one sample
    video_s = [t for res in results for t in res.video_s] or [measured]
    videos = sum(res.videos_ok for res in results)
    rank_accuracy, ok_pair_frac = quality(results[: len(pool)])
    values = {
        "setup_s": setup_s,
        "videos_per_s": videos / measured,
        "video_s_p50": float(np.percentile(video_s, 50)),
        "video_s_p90": float(np.percentile(video_s, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rank_accuracy": rank_accuracy,
        "ok_pair_frac": ok_pair_frac,
        "result_match_frac": tally.matched / tally.compared,
        "success_frac": 1.0 - tally.failed / tally.attempted,
    }
    failed_frac = tally.failed / tally.attempted
    print(f"  groups={len(results)} videos={videos} measured_s={measured:.3f} "
          f"(passes of the pool: {len(results) / len(pool):.2f})")
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "video_s_p50": f"n={len(video_s)}",
        "video_s_p90": f"n={len(video_s)}" + ("" if len(video_s) >= 100 else
                                              ", fewer than 10 samples beyond p90"),
        "rank_accuracy": f"{len(pool)} groups; stored reference {reference_accuracy(tally, pool):.6g}",
        "result_match_frac": f"{tally.matched}/{tally.compared} reference values",
        "success_frac": f"{tally.attempted - tally.failed}/{tally.attempted} operations",
    }
    for name, value in values.items():
        print(f"  {name:18s} {value:.6g} {notes.get(name, '')}")
    print(f"  {'failed_frac':18s} {failed_frac:.6g}")
    print(f"  {'result_rel_dev':18s} {tally.max_dev:.6g} (largest relative deviation "
          f"from the stored reference)")
    return values


def traced_run(args, wl, pool, runner, tally):
    tracer = spans.library_tracer()
    plain_s = traced_s = 0.0
    traced_pool = pool[: (len(pool) + 1) // 2]
    for entry in traced_pool:
        inputs = runner.prepare(entry)
        plain = runner.run(entry, inputs)
        traced = runner.run(entry, inputs, tracer)
        tally.add(entry, plain)
        tally.add(entry, traced)
        plain_s += plain.wall_s
        traced_s += traced.wall_s

    problems = spans.check_coverage(tracer.spans, wl.params.min_matches, tracer.unmeasured)
    tally.problems += [f"trace coverage: {p}" for p in problems]
    for layer, reasons in sorted(tracer.unmeasured.items()):
        print(f"  layer {layer} unmeasured: {'; '.join(sorted(reasons))}", file=sys.stderr)
    values = spans.layer_metrics(tracer.spans, tracer.unmeasured)
    values["trace_overhead"] = traced_s / plain_s - 1.0

    path = os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.jsonl")
    tracer.write(path, {"workload": wl.name, "seed": args.seed, "pool": traced_pool,
                        "machine": machine()})
    print(f"  traced groups={traced_pool} spans={len(tracer.spans)} untraced_s={plain_s:.3f} "
          f"traced_s={traced_s:.3f} coverage={'ok' if not problems else 'FAILED'} "
          f"spans written to {os.path.relpath(path, ROOT)}")
    for name, value in values.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown}")
    return values


def make_reference(wl, runner) -> int:
    """Run every catalog entry once and store its outputs as the reference."""
    entries = {}
    for entry in wl.all_entries():
        res = runner.run(entry, runner.prepare(entry))
        if res.failed:
            print("\n".join(res.errors), file=sys.stderr)
            return 1
        out = res.outputs()
        out["ranked_in_order"] = res.ranking == res.gt_order
        entries[str(entry)] = out
        print(f"{wl.name} entry {entry}: {res.wall_s:.2f}s ranking={res.ranking}", flush=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{wl.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0
