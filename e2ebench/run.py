#!/usr/bin/env python3
"""Whole-run benchmark of the `xmpsim run` CLI.

Builds xmpsim from the checkout's sources into .bench_build/ (a Release
copy, and a gprof-instrumented `-pg` copy for traced runs), then runs one
scenario of workloads.py again and again for --seconds and prints its
metrics. Every number comes from the run's own machine-readable outputs
(--json, --metrics, --trace-csv), the child's rusage or a gprof profile;
stdout of xmpsim is never read.

  python3 e2ebench/run.py --workload perm_k8_shards1 --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --workload all           # every workload in turn
  python3 e2ebench/run.py --record-references      # rewrite references.json

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
from workloads import REFERENCE_SEED, SETUP_DURATION, WORKLOADS, command_line  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# name: (source directory, target, binary inside the build tree, configure flags)
BUILDS = {
    "release": (ROOT, "xmpsim", "apps/xmpsim", ["-DCMAKE_BUILD_TYPE=Release"]),
    "gprof": (ROOT, "xmpsim", "apps/xmpsim", ["-DCMAKE_BUILD_TYPE=Release",
                                              "-DCMAKE_CXX_FLAGS=-pg",
                                              "-DCMAKE_EXE_LINKER_FLAGS=-pg"]),
    "launcher": (HERE / "launcher", "rusage_exec", "rusage_exec", []),
}
# Every timed child runs under this launcher (see launcher/rusage_exec.c).
LAUNCHER = BUILD / "launcher" / "rusage_exec"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 60
# A run measures at least this many repetitions, even past --seconds.
MIN_REPS = 3
# Set-up measurements interleaved after each repetition.
SETUPS_PER_REP = 3
# Repetition i of a run with --seed n simulates seed n * SEED_STRIDE + i.
SEED_STRIDE = 1000

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pkts_per_s": "1/s",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_pkt": "events/pkt",
    "sim.heap_depth_p50": "events",
    "sim.heap_depth_max": "events",
    "sim.sift_down_calls": "count",
    "sim.self_share": "share",
    "sim.callback_share": "share",
    "net.pkts_tx": "count",
    "net.ecn_marks": "count",
    "net.queue_depth_mean": "pkts",
    "net.dequeue_calls": "count",
    "net.self_share": "share",
    "route.forwarded": "count",
    "route.select_up_port_calls": "count",
    "route.self_share": "share",
    "transport.retransmissions": "count",
    "transport.timeouts": "count",
    "transport.arm_rto_calls": "count",
    "transport.self_share": "share",
    "mptcp.gain_refresh_calls": "count",
    "mptcp.self_share": "share",
    "workload.flows": "count",
    "workload.fct_completed": "count",
    "workload.fct_censored": "count",
    "workload.self_share": "share",
    "shard.epochs": "count",
    "shard.barriers": "count",
    "shard.handoff_packets": "count",
    "shard.micro_steps": "count",
    "shard.replays": "count",
    "shard.busy_cores": "cores",
    "ckpt.written": "count",
    "ckpt.bytes": "B",
    "ckpt.self_share": "share",
    "hybrid.ticks": "count",
    "hybrid.promotions": "count",
    "model.self_share": "share",
    "obs.self_share": "share",
    "topo.self_share": "share",
    "gprof.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(variant):
    """Configure and build one entry of BUILDS; returns the binary's path."""
    src, target, binary, flags = BUILDS[variant]
    if not (src / "CMakeLists.txt").is_file():
        raise BenchError(f"{src} holds no CMakeLists.txt: not a source checkout")
    bdir = BUILD / variant
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = min(4, os.cpu_count() or 1)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(src), "-B", str(bdir), *flags])
    steps.append(["cmake", "--build", str(bdir), "--target", target, f"-j{jobs}"])
    # The compiler's scratch files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    with open(BUILD / f"build-{variant}.log", "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"{variant} build: {e}") from e
            if rc != 0:
                raise BenchError(f"{variant} build failed (see {out.name})")
    exe = bdir / binary
    if not exe.is_file():
        raise BenchError(f"{variant} build produced no {exe}")
    return exe


@dataclass
class Run:
    """One finished `xmpsim run` and its output check."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    summary: dict = None
    problems: list = field(default_factory=list)

    @property
    def pkts_per_s(self):
        return self.summary["drops"]["offered"] / self.wall_s


def spawn(exe, argv, cwd):
    """Run exe to completion under the rusage launcher; returns wall
    seconds, CPU seconds and peak RSS (MB) of exe alone, and its status."""
    report = cwd / "rusage.txt"
    report.unlink(missing_ok=True)
    t0 = time.perf_counter()
    with open(cwd / "stderr.txt", "w") as err:
        proc = subprocess.Popen([str(LAUNCHER), str(report), str(exe), *argv], cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
    # A blocking wait keeps the wall time exact; the timer enforces the limit.
    # SIGTERM makes the launcher kill and reap the child before it exits.
    timer = threading.Timer(RUN_TIMEOUT_S, proc.terminate)
    timer.start()
    try:
        proc.wait()
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.terminate()
            proc.wait()
    wall = time.perf_counter() - t0
    try:
        user, sys_, maxrss_kb = report.read_text().split()
    except (OSError, ValueError):
        return wall, math.nan, math.nan, proc.returncode or 1
    return wall, float(user) + float(sys_), int(maxrss_kb) / 1024.0, proc.returncode


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def one_run(exe, w, seed, work, reference, setup=False, extra=()):
    """One checked repetition of workload `w` in directory `work`."""
    ckpt = fresh_dir(work / "ckpt")
    summary_path = work / "summary.json"
    summary_path.unlink(missing_ok=True)
    argv = w.argv(seed, ckpt_dir=ckpt)
    if setup:
        argv = [SETUP_DURATION if a.startswith("--duration=") else a for a in argv]
    argv += ["--json=summary.json", *extra]
    wall, cpu, rss, rc = spawn(exe, argv, work)
    run = Run(wall, cpu, rss, check.read_json(summary_path))
    run.problems = check.check_run(rc, run.summary, reference)
    if run.problems:
        log(f"{w.name}: FAILED check: {'; '.join(run.problems)}")
    return run


def reference_run(exe, w, work):
    """One untimed run on the reference seed, checked against the
    observables recorded in references.json."""
    refs = check.load_references()
    if w.name not in refs:
        raise BenchError(f"references.json has no entry for {w.name}")
    return one_run(exe, w, REFERENCE_SEED, work, refs[w.name]["observables"])


def rep_seed(seed, i):
    """Simulator seed of repetition i in a run with benchmark seed `seed`:
    each repetition simulates another instance of the workload, and runs
    with different seeds share none."""
    return seed * SEED_STRIDE + i % SEED_STRIDE


def median_q(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Tally:
    """Attempted and failed runs across one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, runs):
        self.attempted += len(runs)
        self.failed += sum(1 for r in runs if r.problems)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


def measure_end_to_end(rel, w, seed, seconds):
    """Timed repetitions with tracing off, set-up runs interleaved."""
    tally = Tally()
    work = fresh_dir(BUILD / "work" / w.name)
    tally.add([reference_run(rel, w, work)])
    reps, setups = [], []
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        s = rep_seed(seed, len(reps))
        reps.append(one_run(rel, w, s, work, None))
        setups.extend(one_run(rel, w, s, work, None, setup=True)
                      for _ in range(SETUPS_PER_REP))
    tally.add(reps)
    tally.add(setups)
    good = [r for r in reps if not r.problems] or reps
    good_setups = [r for r in setups if not r.problems] or setups
    series = {
        "run_s": [r.wall_s for r in good],
        "setup_s": [r.wall_s for r in good_setups],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mb": [r.rss_mb for r in good],
        "pkts_per_s": [r.pkts_per_s for r in good if r.summary is not None] or [0.0],
    }
    metrics = {}
    for name, values in series.items():
        med, q1, q3 = median_q(values)
        print(f"  {name:<12} {END_TO_END_UNITS[name]:<6} median {med:.6g}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        metrics[name] = med
    metrics["ok_ratio"] = 1.0 - tally.fail_ratio
    print_fail_ratio(tally)
    return metrics, tally


def print_fail_ratio(tally):
    print(f"  {'fail_ratio':<12} {'ratio':<6} {tally.fail_ratio:.6g}  "
          f"({tally.failed} of {tally.attempted} runs failed)")


def heap_depths(path):
    """Pending-event counts of the SchedSample rows of a --trace-csv file."""
    with open(path, newline="") as f:
        return [float(row["a"]) for row in csv.DictReader(f) if row["kind"] == "sched_sample"]


def gprof_flat(exe, gmon):
    try:
        out = subprocess.run(["gprof", "-b", "-p", str(exe), str(gmon)], capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"gprof: {e}") from e
    if out.returncode != 0:
        raise BenchError(f"gprof failed: {out.stderr.strip()}")
    return layers.parse_flat(out.stdout)


def measure_per_layer(rel, pg, w, seed, seconds):
    """Counts from one untraced run with --metrics and a scheduler trace,
    then untraced/gprof pairs for self-time shares and tracing overhead."""
    tally = Tally()
    work = fresh_dir(BUILD / "work" / w.name)
    tally.add([reference_run(rel, w, work)])
    # Every run here simulates the same instance, so call counts are exact.
    seed = rep_seed(seed, 0)
    counts = one_run(rel, w, seed, work, None, extra=(
        "--metrics=metrics.json", "--trace-csv=sched.csv", "--trace-filter=sched"))
    tally.add([counts])
    counters = check.read_json(work / "metrics.json")
    if counts.summary is None or counters is None:
        raise BenchError(f"{w.name}: the counting run wrote no summary or metrics")
    heap = heap_depths(work / "sched.csv")

    plain, traced, profiles = [], [], []
    deadline = time.monotonic() + seconds
    while len(traced) < 2 or time.monotonic() < deadline:
        plain.append(one_run(rel, w, seed, work, None))
        (work / "gmon.out").unlink(missing_ok=True)
        traced.append(one_run(pg, w, seed, work, None))
        profiles.append(gprof_flat(pg, work / "gmon.out"))
    tally.add(plain)
    tally.add(traced)

    s = counts.summary
    c = counters["counters"]
    offered = s["drops"]["offered"]
    shard = s.get("sharding", {})
    hybrid = s.get("hybrid", {})
    fct = s.get("fct", {})
    run_s = statistics.median(r.wall_s for r in plain)
    metrics = {
        "sim.events": s["summary"]["events"],
        "sim.events_per_pkt": s["summary"]["events"] / offered if offered else 0.0,
        "sim.heap_depth_p50": statistics.median(heap) if heap else 0.0,
        "sim.heap_depth_max": max(heap) if heap else 0.0,
        "net.pkts_tx": offered,
        "net.ecn_marks": c.get("ecn_marks", 0),
        "net.queue_depth_mean": counters["histograms"].get("queue_depth", {}).get("mean", 0.0),
        "route.forwarded": s["routing"]["forwarded"],
        "transport.retransmissions": c.get("retransmissions", 0),
        "transport.timeouts": c.get("timeouts", 0),
        "workload.flows": s["summary"]["flows"],
        "workload.fct_completed": fct.get("completed", 0),
        "workload.fct_censored": fct.get("censored", 0),
        "shard.epochs": shard.get("epochs", 0),
        "shard.barriers": shard.get("barriers", 0),
        "shard.handoff_packets": shard.get("handoff_packets", 0),
        "shard.micro_steps": shard.get("micro_steps", 0),
        "shard.replays": shard.get("replays", 0),
        "shard.busy_cores": statistics.median(r.cpu_s for r in plain) / run_s,
        "ckpt.written": c.get("harness.ckpt.written", 0),
        "ckpt.bytes": c.get("harness.ckpt.bytes", 0),
        "hybrid.ticks": hybrid.get("ticks", 0),
        "hybrid.promotions": hybrid.get("promotions", 0),
        "gprof.overhead": statistics.median(r.wall_s for r in traced) / run_s,
    }
    metrics.update(layers.rollup(profiles))
    for name in PER_LAYER_UNITS:
        print(f"  {name:<28} {PER_LAYER_UNITS[name]:<10} {metrics[name]:.6g}")
    print(f"  ({len(plain)} untraced / {len(traced)} gprof runs)")
    print_fail_ratio(tally)
    return metrics, tally


def result_line(tally, metrics, units):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit(":", 1)[-1]]}
                    for k, v in metrics.items()},
    })


def record_references(rel):
    """Run every workload once on the reference seed and store its
    observables."""
    refs = {}
    for w in WORKLOADS.values():
        work = fresh_dir(BUILD / "work" / w.name)
        run = one_run(rel, w, REFERENCE_SEED, work, None)
        if run.problems:
            raise BenchError(f"{w.name}: reference run failed: {run.problems}")
        refs[w.name] = {"seed": REFERENCE_SEED, "command": command_line(w),
                        "observables": check.observables(run.summary)}
    tmp = check.REFERENCES.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    tmp.replace(check.REFERENCES)
    log(f"wrote {check.REFERENCES}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        rel = build("release")
        pg = build("gprof")
        build("launcher")
        if args.record_references:
            record_references(rel)
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        tally, metrics = Tally(), {}
        for name in names:
            seeds = f"{args.seed * SEED_STRIDE}+i"
            print(f"{name} ({'gprof' if args.trace else 'untraced'}, repetition i): "
                  f"{command_line(WORKLOADS[name], seeds)}")
            if args.trace:
                got, runs = measure_per_layer(rel, pg, WORKLOADS[name], args.seed, args.seconds)
            else:
                got, runs = measure_end_to_end(rel, WORKLOADS[name], args.seed, args.seconds)
            tally.merge(runs)
            prefix = f"{name}:" if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    except BenchError as e:
        log(f"e2ebench: {e}")
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
