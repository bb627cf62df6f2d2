#!/bin/sh
# expect_conservation_exit.sh XMPSIM [ARG...]
# Passes iff a run whose link counters no longer balance exits with status 3
# after printing one line naming the link and every term of its packet
# conservation law, and prints no summary. The counters are broken the only
# way the CLI allows: a snapshot of `XMPSIM run ARG...` taken at its first
# checkpoint gets link 0's `offered` counter bumped (and its CRC re-sealed)
# before the run resumes from it.
set -u
bin=$1
shift
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$bin" run "$@" --checkpoint-dir="$dir" > /dev/null 2>&1 || { echo "reference run failed"; exit 1; }
ckpt=$dir/ckpt_1.bin
[ -f "$ckpt" ] || { echo "no checkpoint written"; exit 1; }

# LNKS section: tag, u64 link count, then link 0 = busy (u8), down (u8),
# bytes_sent (u64), busy time (i64), epoch (u64), offered (u64, LE).
tag=$(grep -obaF LNKS "$ckpt" | head -n 1 | cut -d: -f1)
[ -n "$tag" ] || { echo "no LNKS section"; exit 1; }
off=$((tag + 4 + 8 + 1 + 1 + 8 + 8 + 8))
low=$(od -An -tu1 -j "$off" -N 1 "$ckpt" | tr -d ' ')
printf "$(printf '\\%03o' $(((low + 1) % 256)))" |
  dd of="$ckpt" bs=1 seek="$off" conv=notrunc 2> /dev/null
# The header's CRC-32 (bytes 56..59) covers the payload from byte 60; gzip's
# trailer carries the same CRC-32, little-endian.
tail -c +61 "$ckpt" | gzip -c | tail -c 8 | head -c 4 |
  dd of="$ckpt" bs=1 seek=56 conv=notrunc 2> /dev/null

out=$("$bin" run "$@" --checkpoint-dir="$dir" --restore="$ckpt" 2> "$dir/err")
rc=$?
err=$(grep -v '^resuming from ' "$dir/err")
printf '%s\n' "$out" "$err"
[ "$rc" -eq 3 ] || { echo "expected exit status 3, got $rc"; exit 1; }
[ -z "$out" ] || { echo "expected no summary on stdout"; exit 1; }
[ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] || { echo "expected exactly one line"; exit 1; }
printf '%s\n' "$err" | grep -Eq -- '^xmpsim: link 0: conservation broken: offered=[0-9]+ \+ duplicated=[0-9]+ != delivered=[0-9]+ \+ drops=[0-9]+ \+ queued=[0-9]+ \+ in_flight=[0-9]+ \+ held=[0-9]+$' ||
  { echo "no conservation line for link 0"; exit 1; }
