#!/usr/bin/env bash
# Public functions nobody calls: every `pub fn` declared in the non-test
# part of crates/*/src (each file cut at its first `#[cfg(test)]`, the
# same cut as surface.sh) whose name occurs exactly once — its own
# declaration — as a word in the .rs files of crates, src, tests,
# examples and gsbench. Prints `file:line: name` per hit and exits 1 if
# there are any. A name shared by two declarations hides both; this is
# a floor, not a proof.
#
# usage: scripts/dead_pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sources() {
    find crates src tests examples gsbench -name target -prune -o -name '*.rs' -print0
}

# Every identifier-shaped word, counted once per occurrence.
counts=$(mktemp)
trap 'rm -f "$counts"' EXIT
sources | xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c | awk '$1 == 1 { print $2 }' > "$counts"

dead=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { cut = 0 }
    cut { next }
    /#\[cfg\(test\)\]/ { cut = 1; next }
    match($0, /^[[:space:]]*pub[[:space:]]+(const[[:space:]]+|unsafe[[:space:]]+|async[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
        name = substr($0, RSTART, RLENGTH)
        sub(/.*fn[[:space:]]+/, "", name)
        print name, FILENAME ":" FNR
    }
' | sort | join - <(sort "$counts") | awk '{ print $2 ": " $1 }' | sort)

if [ -n "$dead" ]; then
    echo "$dead"
    echo "dead_pub: $(echo "$dead" | wc -l) public function(s) with no caller" >&2
    exit 1
fi
