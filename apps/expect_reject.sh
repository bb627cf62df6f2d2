#!/bin/sh
# expect_reject.sh PATTERN CMD [ARG...]
# Passes iff CMD exits with status 2 after printing exactly one line (stdout
# and stderr together) that matches the extended regex PATTERN: the
# contract for a command line the CLI refuses.
pattern=$1
shift
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq 2 ] || { echo "expected exit status 2, got $rc"; exit 1; }
[ "$(printf '%s\n' "$out" | wc -l)" -eq 1 ] || { echo "expected exactly one line"; exit 1; }
printf '%s\n' "$out" | grep -Eq -- "$pattern" || { echo "no match for: $pattern"; exit 1; }
