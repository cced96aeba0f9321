#!/bin/sh
# Non-test lines of crates/hb-net/src/*.rs: everything before a file's first
# `#[cfg(test)]` line, per file and in total. With --check, fails when the
# total exceeds the ceiling in ci/hb-net-loc.max, so a PR that grows hb-net
# has to say so by raising that number in its diff.
cd "$(dirname "$0")/.." || exit 2
total=0
for file in crates/hb-net/src/*.rs; do
    lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%6d %s\n' "$lines" "$file"
    total=$((total + lines))
done
printf '%6d total\n' "$total"
if [ "$1" = "--check" ]; then
    max=$(cat ci/hb-net-loc.max)
    [ "$total" -le "$max" ] || { echo "hb-net grew past its ceiling of $max non-test lines" >&2; exit 1; }
fi
