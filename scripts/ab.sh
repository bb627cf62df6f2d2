#!/usr/bin/env bash
# A/B wall-time comparison of a base revision against the work tree on the
# e2ebench workloads, plus an output-identity check between the two.
#
#   scripts/ab.sh <base-rev> [pairs]     # default 10 pairs per workload
#
# Exports <base-rev> with `git archive` and builds it and the work tree in
# Release, in separate build dirs under $AB_DIR (default build-ab/). Then,
# for each workload of e2ebench/workloads.py (AB_WORKLOADS="name ..."
# picks a subset), it runs `pairs` interleaved pairs on seeds 1000+i, the
# order alternating (base first on even pairs, work first on odd ones), and
# prints each side's median and IQR of run_s, cpu_s and peak_rss_mb and the
# pairs the work tree won on run_s. The two runs of a pair share a seed, so
# their ratio (work/base) cancels what the seed and the host's speed at
# that moment do to both; it prints each metric's median ratio and
# quartiles, and a one-sided sign test: the work tree loses a metric when
# it is worse in so many of the untied pairs that a coin (either side as
# likely to win) would do that with probability p < 0.05, and the script
# then exits 1. Last, both sides run seed 1 once more
# with --json/--metrics/--drops-csv, and the outputs must agree: drops.csv
# and the checkpoint files (a workload that writes them) byte for byte,
# summary.json and metrics.json ignoring only the engine-cost counters
# (summary.events, sharding.micro_steps and its metrics twin
# harness.shard.micro_steps). Checkpoints carry the scheduler's dispatch
# count, so a change that saves events shows there too. Exits 1 if any
# output differs or the work tree loses a metric.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { echo "usage: scripts/ab.sh <base-rev> [pairs]" >&2; exit 2; }
base_rev="$1"
pairs="${2:-10}"
root="$(pwd)"
ab="${AB_DIR:-$root/build-ab}"
mkdir -p "$ab"
ab="$(cd "$ab" && pwd)"

base_sha="$(git rev-parse --verify "$base_rev^{commit}")"
src_base="$ab/src-${base_sha:0:12}"
if [ ! -f "$src_base/CMakeLists.txt" ]; then
  rm -rf "$src_base"
  mkdir -p "$src_base"
  git archive "$base_sha" | tar -x -C "$src_base"
fi

build() {  # build <src> <dir> <target>
  {
    [ -f "$2/CMakeCache.txt" ] || cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$2" --target "$3" -j"$(nproc)"
  } >"$2.log" 2>&1 || { tail -20 "$2.log" >&2; echo "build failed: see $2.log" >&2; exit 2; }
}
echo "== building base ${base_sha:0:12} and the work tree (Release) ==" >&2
build "$src_base" "$ab/build-base" xmpsim
build "$root" "$ab/build-work" xmpsim
# The benchmark's launcher measures each child's CPU time and peak RSS
# alone (a child forked straight from Python inherits its high-water mark).
build "$root/e2ebench/launcher" "$ab/build-launcher" rusage_exec

python3 - "$ab/build-base/apps/xmpsim" "$ab/build-work/apps/xmpsim" "$pairs" "$ab/runs" \
  "${AB_WORKLOADS:-}" "$ab/build-launcher/rusage_exec" <<'EOF'
import filecmp, json, math, shutil, statistics, subprocess, sys, time
from pathlib import Path

sys.path.insert(0, "e2ebench")
from workloads import WORKLOADS  # noqa: E402

base_exe, work_exe, pairs, runs, only, launcher = sys.argv[1:7]
pairs = int(pairs)
runs = Path(runs)
names = only.split() or list(WORKLOADS)
sides = {"base": base_exe, "work": work_exe}


def one(exe, w, seed, d, extra=()):
    """Run once in a fresh dir; returns (wall s, cpu s, peak RSS MB)."""
    shutil.rmtree(d, ignore_errors=True)
    (d / "ckpt").mkdir(parents=True)
    argv = [launcher, d / "rusage.txt", exe, *w.argv(seed, ckpt_dir=d / "ckpt"), *extra]
    t0 = time.perf_counter()
    rc = subprocess.run(argv, cwd=d, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - t0
    if rc != 0:
        sys.exit(f"{w.name}: {exe} exited {rc} on seed {seed}")
    user, sys_, maxrss_kb = (d / "rusage.txt").read_text().split()
    return wall, float(user) + float(sys_), int(maxrss_kb) / 1024.0


def quartiles(v):
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return med, q1, q3


METRICS = ("run_s", "cpu_s", "peak_rss_mb")  # all lower-is-better
ALPHA = 0.05


def sign_test_p(worse, n):
    """P(the work tree is worse in >= `worse` of `n` untied pairs) when
    each pair is a fair coin: the one-sided sign test's p-value."""
    return sum(math.comb(n, i) for i in range(worse, n + 1)) / 2**n if n else 1.0


def outputs(d):
    s = json.loads((d / "summary.json").read_text())
    s["summary"].pop("events", None)
    s.get("sharding", {}).pop("micro_steps", None)
    m = json.loads((d / "metrics.json").read_text())
    m.get("counters", {}).pop("harness.shard.micro_steps", None)
    return s, m


differ = 0
lost = 0
for name in names:
    w = WORKLOADS[name]
    series = {k: [] for k in sides}
    won = 0
    for i in range(pairs):
        order = ("base", "work") if i % 2 == 0 else ("work", "base")
        got = {k: one(sides[k], w, 1000 + i, runs / name / k) for k in order}
        for k in sides:
            series[k].append(got[k])
        won += got["work"][0] < got["base"][0]
    print(f"{name}: {pairs} pairs, work tree faster in {won}/{pairs}")
    for k in sides:
        cols = []
        for j, metric in enumerate(METRICS):
            med, q1, q3 = quartiles([r[j] for r in series[k]])
            cols.append(f"{metric} {med:.4g} (IQR {q3 - q1:.3g})")
        print(f"  {k:<4}  " + "  ".join(cols))
    for j, metric in enumerate(METRICS):
        ratios = [wk[j] / bs[j] for bs, wk in zip(series["base"], series["work"])]
        med, q1, q3 = quartiles(ratios)
        worse = sum(r > 1 for r in ratios)
        untied = sum(r != 1 for r in ratios)
        p = sign_test_p(worse, untied)
        loses = p < ALPHA
        lost += loses
        print(f"  work/base {metric:<11} median {med:.3f} (q1 {q1:.3f}, q3 {q3:.3f}), "
              f"worse in {worse}/{untied} untied pairs, sign test p={p:.3g}"
              + ("  LOSES" if loses else ""))

    extra = ("--json=summary.json", "--metrics=metrics.json", "--drops-csv=drops.csv")
    dirs = {k: runs / name / f"{k}-seed1" for k in sides}
    for k in sides:
        one(sides[k], w, 1, dirs[k], extra)
    same = (outputs(dirs["base"]) == outputs(dirs["work"]) and
            filecmp.cmp(dirs["base"] / "drops.csv", dirs["work"] / "drops.csv", shallow=False))
    ckpts = {k: sorted(p.name for p in (dirs[k] / "ckpt").iterdir()) for k in sides}
    same_ckpt = ckpts["base"] == ckpts["work"] and all(
        filecmp.cmp(dirs["base"] / "ckpt" / f, dirs["work"] / "ckpt" / f, shallow=False)
        for f in ckpts["base"])
    differ += not (same and same_ckpt)
    print(f"  seed-1 outputs: {'identical' if same else 'DIFFER'}; "
          f"{len(ckpts['base'])} checkpoint(s): {'identical' if same_ckpt else 'DIFFER'}",
          flush=True)
sys.exit(1 if differ or lost else 0)
EOF
