#!/usr/bin/env python3
"""relpres benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search-deep --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26

Run from the root of a relpres checkout; the library is imported from its
``src`` directory.  One process, library defaults (``workers=1``), no
threads.  A workload is one pass of jobs, repeated until ``--seconds`` of
job time are measured.  Each job is timed on its own and its time scaled to
a reference machine speed (clock.py); its answers are checked after the
clock stops, and the run exits 1 if any check fails.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics, or with ``--trace 1`` the per-layer
metrics).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("search-deep", "search-wide", "algebra", "reduce")
SETUPS = 9          # set-ups per run; setup_s is their median
MIN_PASSES = 3      # passes per run at least, so each job has a median time
LAYERS = ("groups", "words", "presentation", "diagram", "moves", "conjugacy",
          "search", "cli")

# per-layer busy time: metric -> the span names it sums
SPAN_METRICS = {
    "search.enumerate_s": ("search.enumerate_diagrams",),
    "search.audit_s": ("search.curvature_audit",),
    "diagram.canonical_s": ("diagram.Diagram.canonical_form",),
    "diagram.validate_s": ("diagram.validate_howie", "diagram.is_degenerate_digon"),
    "diagram.construct_s": ("diagram.Diagram.from_dict",),
    "diagram.curvature_s": ("diagram.Diagram.curvature",),
    "presentation.rewrite_s": ("presentation.initial_rewrite",),
    "presentation.minimize_s": ("presentation.minimize",),
    "presentation.verify_s": ("presentation.verify_conditions",),
    "presentation.back_substitute_s": ("presentation.back_substitute",),
    "words.parse_s": ("words.parse_word", "words.parse_h_word"),
    "words.cyclic_equal_s": ("words.cyclic_equal", "words.TWord.pow"),
    "groups.build_s": ("groups.GroupTable", "groups.GroupTable.from_dict"),
    "conjugacy.reduce_s": ("conjugacy.reduce_conjugator",),
    "conjugacy.center_s": ("conjugacy.center_certificate",),
    "conjugacy.oracle_s": ("conjugacy.malnormality_oracle",),
    "cli.main_s": ("cli.main",),
    "moves.reduce_s": ("moves.reduce_to_chain",),
    "moves.replay_s": ("moves.replay_trace",),
}
COUNTS = ("search.leaves", "search.multisets", "search.survivors",
          "conjugacy.oracle_checked", "cli.commands", "moves.applied")
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s", "job_s.p90": "s",
         "failed_ratio": "ratio", "peak_rss_mb": "MB",
         "search.leaves_per_s": "1/s", "search.survivor_ratio": "ratio",
         "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}
END_TO_END = ("setup_s", "jobs_per_s", "job_s.p50", "job_s.p90", "peak_rss_mb")


def unit(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def setup(workload: str, seed: int, work: str):
    """Import the library and the job code afresh, generate the inputs and
    write the files the CLI jobs read.  Returns (jobs module, job specs of
    one pass, digest)."""
    import gen
    import jobs
    specs, files = gen.generate(workload, seed)
    for name, doc in files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    return jobs, specs, gen.digest(specs, files)


def forget_imports() -> None:
    for name in [m for m in sys.modules
                 if m in ("gen", "jobs") or m == "relpres" or m.startswith("relpres.")]:
        del sys.modules[name]


def run_one(jobs, tr, spec, work, job_id):
    """Time one job; return (seconds, outcome or None, problems)."""
    fn, check = jobs.KINDS[spec["kind"]]
    t0 = time.perf_counter()
    try:
        with tr.job(job_id, spec["kind"]):
            out = fn(tr, spec, work)
    except Exception as exc:  # a failed job is counted and reported, not fatal
        return time.perf_counter() - t0, None, [f"{spec['kind']} job raised "
                                                f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    try:
        problems = check(out)
    except Exception as exc:
        problems = [f"{spec['kind']} check raised {type(exc).__name__}: {exc}"]
    return elapsed, out, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: str):
    from clock import Timeline, scaled_call
    from tracer import Tracer

    setups, raw_setups, digests = [], [], set()
    for _ in range(SETUPS):
        forget_imports()
        took, raw, (jobs, specs, digest) = scaled_call(setup, workload, seed, work)
        setups.append(took)
        raw_setups.append(raw)
        digests.add(digest)
    problems = [] if len(digests) == 1 else ["input generation is not deterministic"]
    print(f"[{workload}] seed {seed}: a pass of {len(specs)} jobs, inputs digest {digest}")

    count_names = COUNTS + tuple(f"moves.applied.{k}" for k in jobs.MOVE_KINDS)
    exact_names = [c for c in count_names if c != "cli.commands"]
    off, tr = Tracer(False), Tracer(trace)
    times = [[] for _ in specs]          # per job of the pass, its scaled time per pass
    raw_times = [[] for _ in specs]      # the same, as the clock read them
    exact = [None] * len(specs)          # per job, its exact counts in the first pass
    counts, first = dict.fromkeys(count_names, 0), {}
    traced_wall = untraced_wall = busy = 0.0
    failed = passes = i = 0
    # whole passes, until the measured time reaches --seconds
    while busy < seconds or passes < MIN_PASSES:
        gc.collect()
        timeline = Timeline()
        outcomes = []
        for j, spec in enumerate(specs):
            # with tracing on, each job also runs untraced, before or after
            # the traced run in turn; the difference is the tracing overhead
            if trace and i % 2:
                plain = run_one(jobs, off, spec, work, i)[0]
            timeline.before_job()
            elapsed, out, bad = run_one(jobs, tr, spec, work, i)
            timeline.add(elapsed)
            if trace:
                if not i % 2:
                    plain = run_one(jobs, off, spec, work, i)[0]
                traced_wall += elapsed
                untraced_wall += plain
                busy += plain
            busy += elapsed
            outcomes.append((out, bad, elapsed))
            i += 1
        for j, (spec, took, (out, bad, measured)) in enumerate(zip(specs, timeline.scaled(),
                                                                    outcomes)):
            times[j].append(took)
            raw_times[j].append(measured)
            if out is not None:
                for name, value in out.counts.items():
                    counts[name] += value
                first.setdefault(spec["kind"], out)
                mine = {k: v for k, v in out.counts.items() if k in exact_names}
                if exact[j] is None:
                    exact[j] = mine
                elif mine != exact[j]:
                    bad = bad + [f"{spec['kind']} job {j}: exact counts differ between passes"]
            if bad:
                failed += 1
                problems.extend(b for b in bad if b not in problems)
        passes += 1

    for kind, out in first.items():  # untimed
        if kind in ("deep-s0", "deep-s1", "wide"):
            problems.extend(jobs.check_brute_force(out))

    metrics = timing(times)
    metrics.update(setup_s=statistics.median(setups), failed_ratio=failed / (passes * len(specs)),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    raw = dict(timing(raw_times), setup_s=statistics.median(raw_setups))
    layer = {}
    if trace:
        self_times = tr.self_times()
        for name, spans in SPAN_METRICS.items():
            layer[name] = sum(self_times.get(s, 0.0) for s in spans)
        layer.update(counts)
        layer["search.leaves_per_s"] = (counts["search.leaves"] / layer["search.enumerate_s"]
                                        if layer["search.enumerate_s"] else 0.0)
        layer["search.survivor_ratio"] = (counts["search.survivors"] / counts["search.leaves"]
                                          if counts["search.leaves"] else 0.0)
        for mod in LAYERS:
            layer[f"{mod}.self_s"] = sum(v for k, v in self_times.items()
                                         if k.split(".")[0] == mod)
        layer["bench.self_s"] = sum(v for k, v in self_times.items() if k.startswith("job."))
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        layer["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
        tr.dump(path, {"workload": workload, "seed": seed, "self_seconds": self_times,
                       "metrics": layer})
        print(f"[{workload}] {len(tr.spans)} spans written to {os.path.relpath(path, ROOT)}")

    beyond = sum(statistics.median(ts) > metrics["job_s.p90"] for ts in times)
    print(f"[{workload}] {passes} passes of {len(specs)} jobs, {failed} failed, "
          f"{busy:.2f} s measured; {beyond} jobs beyond p90")
    for name, value in list(metrics.items()) + sorted(layer.items()):
        print(f"[{workload}] {name} = {value:.6g} {unit(name)}")
    for name, value in raw.items():
        print(f"[{workload}] unscaled {name} = {value:.6g} {unit(name)}")
    if not trace:
        for name in count_names:
            print(f"[{workload}] {name} = {counts[name]} count")
    for problem in problems:
        print(f"[{workload}] WRONG: {problem}")
    chosen = layer if trace else {k: metrics[k] for k in END_TO_END}
    return not problems, passes * len(specs), failed, chosen


def timing(times: list[list[float]]) -> dict:
    """Throughput and job-time percentiles from each job's median time over
    the passes; a percentile is the nearest-rank one of those medians."""
    medians = sorted(statistics.median(ts) for ts in times)
    return {
        "jobs_per_s": len(medians) / sum(medians),
        "job_s.p50": medians[math.ceil(0.5 * len(medians)) - 1],
        "job_s.p90": medians[math.ceil(0.9 * len(medians)) - 1],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "relpres", "__init__.py")):
        print(f"relpres sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH]

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            ok, n, bad, values = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), work)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = "" if len(names) == 1 else name + "/"
            metrics.update({prefix + k: {"value": v, "unit": unit(k)}
                            for k, v in values.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
