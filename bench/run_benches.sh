#!/usr/bin/env bash
# Run the google-benchmark microbenchmarks and record machine-readable
# results for regression tracking.
#
#   bench/run_benches.sh [build-dir] [output.json]
#
# Defaults: build-dir = build, output = BENCH_micro.json (repo root).
# BM_SchedulerScheduleDispatch and BM_EndToEndTransfer are the regression
# guards for the event engine — compare items_per_second and
# bytes_per_second against the committed BENCH_micro.json before merging
# scheduler changes. BM_EndToEndTransfer is guarded by bytes/s (its
# transfer is fixed), not by its events/s counter: dropping a wasted event
# makes the transfer faster but lowers events/s.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
out="${2:-BENCH_micro.json}"
bin="$build_dir/bench/bench_micro_sim"

# Stage into "<out>.tmp" and only rename once the results are validated, so
# an interrupted or failed run can never clobber the committed baseline
# with a partial JSON. The trap also reaps a still-running benchmark child.
staged="$out.tmp"
cleanup() {
  pkill -P $$ 2>/dev/null || true
  rm -f "$staged"
}
trap cleanup EXIT INT TERM

if [[ ! -x "$bin" ]]; then
  echo "error: $bin not found; build first: cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

echo "running $bin -> $out" >&2
if ! "$bin" --benchmark_format=json --benchmark_out="$staged" --benchmark_out_format=json \
            --benchmark_repetitions="${BENCH_REPS:-1}" > /dev/null; then
  echo "error: $bin exited non-zero; refusing to publish $out" >&2
  exit 1
fi

# Normalize the context block, then print a human-readable digest of the
# headline counters. google-benchmark stamps machine- and time-dependent
# fields (date, host_name, load_avg, ...) into the context; stripping them
# keeps the committed baseline diffable — a regenerated BENCH_micro.json
# changes only where performance actually changed. Fails (and fails the
# script) if the output parsed to zero benchmarks — an empty results file
# must never pass for a successful run.
python3 - "$staged" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
benches = data.get("benchmarks", [])
if not benches:
    sys.exit(f"error: no benchmarks recorded in {path}")
ctx = data.get("context", {})
for key in ("date", "host_name", "executable", "load_avg",
            "num_cpus", "mhz_per_cpu", "cpu_scaling_enabled", "caches"):
    ctx.pop(key, None)
ctx["normalized"] = True  # context stripped for stable baseline diffs
data["context"] = ctx
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
for b in benches:
    if b.get("items_per_second"):
        print(f"  {b['name']:<45} {b['items_per_second'] / 1e6:10.2f} M items/s")
    elif b.get("bytes_per_second"):
        print(f"  {b['name']:<45} {b['bytes_per_second'] / 1e6:10.2f} MB/s")
EOF

# Validation passed: publish atomically.
mv "$staged" "$out"
