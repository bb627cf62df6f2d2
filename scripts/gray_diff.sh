#!/usr/bin/env bash
# Gray-failure differential validation (DESIGN.md §15): drive the
# `xmpsim verify` harness over a plan that exercises every gray fault kind
# (degrade, delay, reorder, duplicate, overmark), require all four legs —
# serial (--shards=1), --shards=2, checkpointed, SIGKILL + --restore — to
# agree byte for byte, and pin the CLI contracts around the fault layer:
# a healthy (fault-free) verify must also pass, a plan mixing gray kinds
# with hard faults (down/loss/corrupt) must verify, and the one-line
# exit-2 rejects (--hybrid with --faults, verify-owned flags) must hold.
# The per-link drops.csv impairment columns must sum to summary.json's
# impairments block, in the --shards=1 leg and in a plain serial run.
#
#   scripts/gray_diff.sh [build-dir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
bin="$(pwd)/$build/apps/xmpsim"
[ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

scenario=(--pattern=permutation --scheme=xmp --subflows=2 --k=4
          --rounds=1 --duration=0.05 --seed=11)

# Every gray kind at once, overlapping in time, on distinct links.
gray="degrade,link=2,at=0.01,factor=0.4,until=0.03;"
gray+="delay,link=5,at=0.005,dt=1e-4,jitter=5e-5,until=0.04;"
gray+="reorder,link=7,at=0.01,p=0.05,dt=2e-4;"
gray+="duplicate,link=9,at=0,p=0.02;"
gray+="overmark,link=11,at=0.02,p=0.3"

# Gray kinds crossed with the pre-existing hard faults on yet other links.
mixed="$gray;down,link=14,at=0.015,until=0.035;"
mixed+="loss,link=3,at=0,p=0.01,corrupt=0.2;"
mixed+="gilbert,link=16,at=0.01,pgb=0.01,pbg=0.1,pbad=0.3"

echo "== gray diff: verify, all gray kinds =="
"$bin" verify "${scenario[@]}" "--faults=$gray" --dir="$tmp/gray" \
  | tee "$tmp/gray.log"
grep -q "verify: PASS" "$tmp/gray.log"

echo "== gray diff: verify, gray + hard faults, ecmp =="
"$bin" verify "${scenario[@]}" --routing=ecmp "--faults=$mixed" \
  --dir="$tmp/mixed" | tee "$tmp/mixed.log"
grep -q "verify: PASS" "$tmp/mixed.log"

echo "== gray diff: verify, fault-free =="
"$bin" verify "${scenario[@]}" --dir="$tmp/healthy" | tee "$tmp/healthy.log"
grep -q "verify: PASS" "$tmp/healthy.log"

# The healthy and gray runs must differ only where the fault layer acted:
# a plan that injects impairments must actually report some.
python3 - "$tmp/gray/serial/summary.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
imp = s["impairments"]
assert imp["duplicated"] > 0, "duplicate fault produced no clones"
assert imp["delayed"] > 0, "delay/reorder fault held no packets"
assert imp["overmarked"] > 0, "overmark fault forced no CE"
print("impairments accounted:", imp)
EOF

# Per-link impairment columns must add up to the run's totals, in the
# sharded (--shards=1) verify leg and in a plain serial run alike: the two
# engines share one collect step, and this pins that they stay in step.
impairment_rows_match() {
  python3 - "$1/summary.json" "$1/drops.csv" <<'EOF'
import csv, json, sys
with open(sys.argv[1]) as f:
    imp = json.load(f)["impairments"]
sums = dict.fromkeys(("duplicated", "delayed", "overmarked"), 0)
with open(sys.argv[2], newline="") as f:
    for row in csv.DictReader(f):
        for k in sums:
            sums[k] += int(row[k])
assert sums == imp, f"{sys.argv[2]} columns sum to {sums}, summary says {imp}"
print("per-link impairments match totals:", sys.argv[2])
EOF
}
impairment_rows_match "$tmp/gray/serial"
mkdir "$tmp/plain"
"$bin" run "${scenario[@]}" "--faults=$gray" --json="$tmp/plain/summary.json" \
  --drops-csv="$tmp/plain/drops.csv" > /dev/null
impairment_rows_match "$tmp/plain"

expect_reject() {
  local want="$1"; shift
  set +e
  "$@" >/dev/null 2> "$tmp/reject-err.txt"
  local rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "FAIL: '$*' exited $rc, want 2" >&2; exit 1; }
  grep -q "$want" "$tmp/reject-err.txt" || {
    echo "FAIL: '$*' missing diagnostic '$want'" >&2
    cat "$tmp/reject-err.txt" >&2
    exit 1
  }
}

echo "== gray diff: one-line exit-2 rejects =="
expect_reject "\-\-hybrid is incompatible with --faults" \
  "$bin" run --hybrid "--faults=$gray"
expect_reject "verify drives --shards itself" \
  "$bin" verify "${scenario[@]}" --shards=4
expect_reject "verify drives --json itself" \
  "$bin" verify "${scenario[@]}" --json=out.json
expect_reject "\-\-invariants is serial-only" \
  "$bin" verify "${scenario[@]}" --invariants
expect_reject "\-\-hybrid is serial-engine-only" \
  "$bin" verify --hybrid
echo "rejects pinned"
echo "OK"
