"""Benchmark of the ``precom`` CLI: time to a verdict on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload confluence --seed 7 --seconds 25 --trace 0

Each job of the seeded list runs ``precom`` in a fresh interpreter, one job
at a time (a closed loop with one client), with ``--json``; its answer is
checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced pass that follows an untraced pass of the same list.  The
line before it records the run's provenance and the details the metrics
leave out.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pinned.json")
DEFAULT_SEED = 1
RUN_LIMIT_S = 170.0      # no job may still run this long after the start
TRACE_SLOWDOWN = 4.0     # allowance for the traced pass in job time limits
# Typical time from spawning a bare interpreter to its first line on the
# reference box (2-core x86-64 VM).  Timings are reported at this speed.
REF_START_S = 0.040


@dataclass
class Result:
    job: workloads.Job
    code: Optional[int] = None
    wall_s: float = 0.0
    setup_s: Optional[float] = None
    start_s: Optional[float] = None
    verdict_s: Optional[float] = None
    peak_mb: float = 0.0
    report: Optional[dict] = None
    ambiguities: Optional[int] = None
    spans: Optional[dict] = None
    problems: tuple = ()


def run_job(job, src, workdir, out, trace, limit) -> Result:
    """Spawn one job, wait for it (killing it after ``limit`` seconds) and
    read back what it recorded."""
    res = Result(job)
    argv = [sys.executable, os.path.join(HERE, "job.py"), src, out,
            "1" if trace else "0", "--"] + job.argv + ["--json"]
    with open(out + ".out", "wb") as stdout, open(out + ".err", "wb") as stderr:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, stdout=stdout, stderr=stderr)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(limit, 0.0))
        if not ready:
            proc.kill()
        _, status = os.waitpid(proc.pid, 0)
    finally:
        os.close(pidfd)
    res.wall_s = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    res.code = proc.returncode
    if not ready:
        res.problems = ("over its time limit of %.0f s" % limit,)
        return res
    try:
        with open(out + ".json") as fh:
            rec = json.load(fh)
        res.setup_s = rec["import_done"] - t_spawn
        res.start_s = rec["started"] - t_spawn
        res.verdict_s = rec["verdict_s"]
        res.ambiguities = rec["ambiguities"]
        res.peak_mb = rec["peak_kb"] / 1024.0
    except (OSError, ValueError, KeyError):
        pass
    try:
        with open(out + ".out") as fh:
            res.report = json.load(fh)
    except (OSError, ValueError):
        pass
    if trace and os.path.exists(out + ".spans"):
        res.spans = spans.load_spans(out + ".spans")
    return res


def run_list(jobs, src, workdir, trace, t_start):
    """Run the jobs in order, one line per job on stderr; returns (results,
    wall seconds of the list)."""
    results = []
    t0 = time.monotonic()
    for i, job in enumerate(jobs):
        limit = max(15.0, 10.0 * job.nominal_s) * (TRACE_SLOWDOWN if trace else 1.0)
        limit = min(limit, RUN_LIMIT_S - (time.monotonic() - t_start))
        if limit < 1.0:
            results.append(Result(job, problems=("not started: run time limit reached",)))
            continue
        res = run_job(job, src, workdir, os.path.join(workdir, "job%d" % i), trace, limit)
        print("%-28s wall %6.3f  verdict %s  setup %s  peak %5.1f MB"
              % (job.id, res.wall_s, _fmt(res.verdict_s), _fmt(res.setup_s), res.peak_mb),
              file=sys.stderr)
        results.append(res)
    return results, time.monotonic() - t0


def _fmt(x):
    return "  -   " if x is None else "%6.3f" % x


def tail(values: list) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, nearest-rank; the maximum when there are fewer than
    eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    q = (100 * (n - 10)) // n
    return q, xs[math.ceil(q * n / 100) - 1]


def judge(results, pins) -> None:
    for res in results:
        if res.problems:
            continue
        problems = workloads.check(res.job, res.code, res.report, res.ambiguities)
        pinned = pins.get(workloads.digest(res.job))
        if pinned is not None and res.report is not None \
                and workloads.answer(res.report) != pinned["answer"]:
            problems.append("answer differs from the one pinned for %s" % pinned["job"])
        res.problems = tuple(problems)


def provenance(root: str) -> dict:
    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=root, capture_output=True,
                               text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "precom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status),
            "source_sha256": digest.hexdigest(), "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "load1_start": os.getloadavg()[0]}


def end_to_end(results, batch_s) -> tuple[dict, dict]:
    """The end-to-end metrics, with their times scaled to the reference
    machine speed, and the details: the raw times and the scale factor.

    The factor is REF_START_S over the run's median bare interpreter start
    (spawn to the first line of job.py).  That start does not touch
    ``precom``, so no change to the program moves it; it moves with the
    speed of the shared machine, which drifts by a third between runs a
    few minutes apart and shifts every time of a run together."""
    verdicts = [r.verdict_s for r in results if r.verdict_s is not None]
    setups = [r.setup_s for r in results if r.setup_s is not None]
    starts = [r.start_s for r in results if r.start_s is not None]
    if not verdicts or not setups or not starts:
        raise SystemExit("no job produced a timing")
    q, tail_s = tail(verdicts)
    raw = {"verdict_s_p50": statistics.median(verdicts), "verdict_s_tail": tail_s,
           "batch_s": batch_s, "setup_s": statistics.median(setups)}
    scale = REF_START_S / statistics.median(starts)
    metrics = {name: {"value": value * scale, "unit": "s"} for name, value in raw.items()}
    metrics["peak_rss_mb"] = {"value": max(r.peak_mb for r in results), "unit": "MB"}
    return metrics, {"verdict_s_tail": {"percentile": q, "n": len(verdicts)},
                     "raw_s": raw, "speed_scale": scale}


# Layer metrics that must read 0 (the workload bypasses the layer) or more
# than 0 (it exercises the layer; a 0 means a wrapper was missed).
BYPASS = {
    "confluence": {"zero": ("shuffle.zinbiel_product.calls", "compoly.com_reduce.calls",
                            "rewrite.complete.added"),
                   "positive": ("magma.node.calls", "rewrite.ambiguities",
                                "rewrite.normal_form.calls", "rewrite.irreducible.s")},
    "completion": {"zero": ("shuffle.zinbiel_product.calls", "compoly.com_reduce.calls"),
                   "positive": ("rewrite.complete.added", "rewrite.interreduce.s",
                                "rewrite.normal_form.calls", "envelope.s")},
    "perm-tensor": {"zero": ("rewrite.calls", "magma.node.calls"),
                    "positive": ("shuffle.zinbiel_product.calls",
                                 "shuffle.perm_tensor_check.s")},
    "embedding": {"zero": ("rewrite.calls", "magma.node.calls"),
                  "positive": ("compoly.com_reduce.calls", "compoly.pairs_processed",
                               "embed.series_product.calls",
                               "embed.standard_filtration.s")},
}


def per_layer(workload, traced, batch_s, traced_batch_s) -> tuple[dict, list]:
    table = spans.layer_metrics(*spans.merge([r.spans for r in traced if r.spans]))
    table["trace_overhead"] = (traced_batch_s / batch_s, "ratio")
    rule = BYPASS[workload]
    broken = ["%s is %r, predicted 0" % (k, table[k][0])
              for k in rule["zero"] if table[k][0] != 0]
    broken += ["%s is 0, predicted more than 0" % k
               for k in rule["positive"] if table[k][0] <= 0]
    return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}, broken


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="nominal length of the job list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="store this run's answers in pinned.json (default seed only)")
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "precom", "cli.py")):
        print("error: no src/precom/cli.py under %s; run from a checkout's root" % root,
              file=sys.stderr)
        return 2
    if args.write_pins and args.seed != DEFAULT_SEED:
        print("error: answers are pinned for seed %d only" % DEFAULT_SEED, file=sys.stderr)
        return 2
    with open(PINS) as fh:
        pins = json.load(fh)

    info = provenance(root)
    jobs = workloads.plan(args.workload, args.seed, args.seconds)
    scratch = os.path.join(root, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        for job in jobs:
            for name, text in job.files.items():
                with open(os.path.join(workdir, name), "w") as fh:
                    fh.write(text)
        # Compile the package's bytecode once, as an installed package has it.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                        " import precom", src], check=True, timeout=60)
        results, batch_s = run_list(jobs, src, workdir, False, t_start)
        traced, traced_batch_s = [], None
        if args.trace:
            traced, traced_batch_s = run_list(jobs, src, workdir, True, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    every = results + traced
    judge(every, pins)
    failed = [r for r in every if r.problems]
    if args.trace:
        metrics, broken = per_layer(args.workload, traced, batch_s, traced_batch_s)
        extra = {"bypass_violations": broken}
    else:
        metrics, extra = end_to_end(results, batch_s)
        broken = []
    info["load1_end"] = os.getloadavg()[0]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "jobs": len(jobs),
              "fail_share": len(failed) / len(every), **extra,
              "failures": [{"job": r.job.id, "argv": r.job.argv, "problems": r.problems}
                           for r in failed],
              "provenance": info}
    print(json.dumps(detail))
    correct = not failed and not broken
    print(json.dumps({"correct": correct, "attempted": len(every), "failed": len(failed),
                      "metrics": metrics}))

    if args.write_pins and correct:
        for r in results:
            pins[workloads.digest(r.job)] = {"job": "%s seed %d %s" % (
                args.workload, args.seed, r.job.id), "answer": workloads.answer(r.report)}
        with open(PINS, "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
