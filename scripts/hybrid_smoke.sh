#!/usr/bin/env bash
# Hybrid fluid/packet engine smoke (DESIGN.md §14): a CLI-level sweep of the
# properties the hybrid ctest label pins at the library level —
#   1. fixed-seed determinism: two identical hybrid runs byte-identical
#      (summary JSON, metrics dump and stdout);
#   2. physical tolerance band: fluid throughput positive and bounded by the
#      fabric edge capacity, marking probability a probability, the tick
#      count exactly duration/tick, and the aggregate accounting closed
#      (bg = still-fluid + promoted + completed);
#   3. SIGKILL mid-run + --restore reproduces the uninterrupted run byte for
#      byte, fluid state included (1 and 3 run on the k=4 base config and
#      again on a k=8 config whose aggregates nearly all pin paths of their
#      own);
#   4. strict flag validation: every unsupported combination is a one-line
#      exit-2 reject, including restoring a non-hybrid snapshot.
#
#   scripts/hybrid_smoke.sh [build-dir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
bin="$(pwd)/$build/apps/xmpsim"
[ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# 500 fluid background aggregates + 2 packet foreground flows, 0.2 s of sim
# time: long enough for promotions and a few marking duty cycles, short
# enough for CI. Finite 2 MB background flows with a 256 kB promotion tail
# exercise the fluid -> packet handover.
base=(run --hybrid --scheme=xmp --subflows=2 --k=4
      --hybrid-bg=500:2000000 --hybrid-fg=2 --hybrid-promote-bytes=256000
      --duration=0.2 --seed=11)

# determinism <label> <xmpsim args...>: two identical runs, byte-compared.
determinism() {
  local label="$1"; shift
  echo "== hybrid smoke ($label): fixed-seed determinism =="
  for d in a b; do
    mkdir -p "$tmp/$label/$d"
    (cd "$tmp/$label/$d" && "$bin" "$@" --json=summary.json --metrics=metrics.json > out.txt)
  done
  for f in summary.json metrics.json out.txt; do
    cmp "$tmp/$label/a/$f" "$tmp/$label/b/$f" || {
      echo "FAIL: $f differs between identical hybrid runs ($label, determinism broken)" >&2
      exit 1
    }
  done
  echo "two identical hybrid runs byte-identical"
}

determinism k4 "${base[@]}"

echo "== hybrid smoke: tolerance band =="
python3 - "$tmp/k4/a/summary.json" <<'EOF'
import json, sys
h = json.load(open(sys.argv[1]))["hybrid"]
# k=4 fat tree, 10 Gbps links, 16 hosts: edge capacity 160 Gbps.
assert 0 < h["fluid_throughput_mbps"] <= 160000, h
assert 0.0 <= h["mean_mark_p"] <= 1.0, h
# 0.2 s at the default 200 us tick.
assert h["ticks"] == 1000, h
accounted = h["active_fluid"] + h["promotions"] + h["fluid_completions"]
assert accounted == h["bg_flows"], h
# Finite 2 MB flows with a 256 kB tail threshold must actually promote.
assert h["promotions"] > 0, h
print(f"band ok: fluid {h['fluid_throughput_mbps']:.0f} Mbps, "
      f"mark p {h['mean_mark_p']:.3f}, promotions {h['promotions']}")
EOF

newest_ckpt() {
  ls "$1"/ckpt_*.bin 2>/dev/null | sort -t_ -k2 -n | tail -1
}
# kill_restore <label> <xmpsim args...>: a checkpointing run SIGKILLed after
# its first snapshot and resumed with --restore must reproduce the
# uninterrupted run byte for byte.
kill_restore() {
  local label="$1"; shift
  echo "== hybrid smoke ($label): SIGKILL + restore byte-identity =="
  local ref="$tmp/$label/ref" kill_dir="$tmp/$label/kill"
  mkdir -p "$ref" "$kill_dir"
  (cd "$ref" && "$bin" "$@" --checkpoint-every=0.005 --checkpoint-dir=. \
    --json=summary.json --metrics=metrics.json > out.txt)
  (cd "$kill_dir" && exec "$bin" "$@" --checkpoint-every=0.005 --checkpoint-dir=. \
    --json=summary.json --metrics=metrics.json > out.txt 2>&1) &
  local pid=$!
  for _ in $(seq 1 200); do
    [ -n "$(newest_ckpt "$kill_dir")" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
  done
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  local ck
  ck="$(newest_ckpt "$kill_dir")"
  [ -n "$ck" ] || { echo "FAIL: no checkpoint on disk after kill ($label)" >&2; exit 1; }
  (cd "$kill_dir" && "$bin" "$@" --checkpoint-every=0.005 --checkpoint-dir=. \
    "--restore=$(basename "$ck")" --json=summary.json --metrics=metrics.json > out.txt)
  for f in summary.json metrics.json out.txt; do
    cmp "$ref/$f" "$kill_dir/$f" || {
      echo "FAIL: $f differs after kill+resume of a hybrid run ($label)" >&2
      exit 1
    }
  done
  echo "hybrid kill+resume summary/metrics byte-identical"
}

kill_restore k4 "${base[@]}"

# k=8 leg: 2000 finite aggregates over a k=8 fat tree, where almost every
# subflow pins a path of its own, so the engine's path table is as large
# as its subflow table. The first promotions land at about 0.24 s.
k8=(run --hybrid --scheme=xmp --subflows=2 --k=8
    --hybrid-bg=2000:2000000 --hybrid-fg=2 --hybrid-promote-bytes=256000
    --duration=0.3 --seed=11)
determinism k8 "${k8[@]}"
kill_restore k8 "${k8[@]}"

echo "== hybrid smoke: unsupported combinations rejected =="
expect_reject() {
  local what="$1"; shift
  set +e
  "$bin" "$@" > /dev/null 2> "$tmp/err.txt"
  local rc=$?
  set -e
  [ "$rc" -eq 2 ] || {
    echo "FAIL: $what exited $rc, want 2" >&2
    cat "$tmp/err.txt" >&2
    exit 1
  }
  [ "$(wc -l < "$tmp/err.txt")" -ge 1 ] || {
    echo "FAIL: $what rejected without a diagnostic" >&2
    exit 1
  }
  echo "rejected: $what"
}
expect_reject "--hybrid-bg without --hybrid" run --hybrid-bg=10 --duration=0.01
expect_reject "--hybrid with --scheme=tcp" run --hybrid --scheme=tcp --duration=0.01
expect_reject "--hybrid with --shards" run --hybrid --scheme=xmp --subflows=2 --shards=2 --duration=0.01
expect_reject "--hybrid with --pattern" run --hybrid --scheme=xmp --subflows=2 --pattern=stride --duration=0.01
expect_reject "--hybrid with bad bg spec" run --hybrid --scheme=xmp --subflows=2 --hybrid-bg=0 --duration=0.01
expect_reject "--fct-csv without --workload" run --pattern=permutation --fct-csv=x.csv --duration=0.01

# A snapshot from a non-hybrid run must never restore into a hybrid run:
# the config fingerprint differs, so the header check rejects it.
plain="$tmp/plain"; mkdir -p "$plain"
(cd "$plain" && "$bin" run --pattern=permutation --scheme=xmp --subflows=2 --k=4 \
  --duration=0.05 --seed=11 --checkpoint-every=0.005 --checkpoint-dir=. > out.txt)
pck="$(newest_ckpt "$plain")"
[ -n "$pck" ] || { echo "FAIL: plain run wrote no checkpoint" >&2; exit 1; }
expect_reject "non-hybrid snapshot into hybrid run" \
  run --hybrid --scheme=xmp --subflows=2 --k=4 --duration=0.2 --seed=11 \
  --checkpoint-dir="$tmp" "--restore=$pck"
echo "OK"
