#!/usr/bin/env bash
# Library panic sites per crate: lines under src/ that match
# `.unwrap()`, `.expect(` or `panic!(`, each file cut at its first
# `#[cfg(test)]` (the same cut as surface.sh), so test modules do not
# count, and neither do comment lines (`//`, `///`, `//!`: doc examples
# and prose). A line with two matches counts once. Crates with no site are
# listed with 0; the total comes last. crates/testkit is skipped by
# default: it is test code that only tests and experiments link, and
# asserting is its job.
#
# usage: scripts/panic_sites.sh [--lines] [crate-dir ...]
#        (default: crates/* except crates/testkit)
#        --lines  also print each site as `file:line: text`
set -euo pipefail
cd "$(dirname "$0")/.."

lines=0
if [ "${1:-}" = "--lines" ]; then
    lines=1
    shift
fi
if [ "$#" -eq 0 ]; then
    for dir in crates/*; do
        [ "$dir" = crates/testkit ] || set -- "$@" "$dir"
    done
fi

# "<crate> <file>:<line>: <text>" for every site in the crate directories given.
sites() {
    local dir
    for dir in "$@"; do
        [ -d "$dir/src" ] || continue
        find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { cut = 0 }
            cut { next }
            /#\[cfg\(test\)\]/ { cut = 1; next }
            /^[[:space:]]*\/\// { next }
            /\.unwrap\(\)|\.expect\(|panic!\(/ { sub(/^[[:space:]]+/, ""); print crate, FILENAME ":" FNR ": " $0 }
        ' crate="${dir##*/}"
    done
}

found=$(sites "$@")
if [ "$lines" = 1 ] && [ -n "$found" ]; then
    echo "$found" | cut -d' ' -f2-
    echo
fi
printf '%-24s %8s\n' crate sites
for dir in "$@"; do
    [ -d "$dir/src" ] || continue
    crate="${dir##*/}"
    n=$( [ -z "$found" ] && echo 0 || echo "$found" | awk -v c="$crate" '$1 == c { n++ } END { print n + 0 }')
    printf '%-24s %8d\n' "$crate" "$n"
done | sort -k2,2nr -k1,1
printf '%-24s %8d\n' total "$( [ -z "$found" ] && echo 0 || echo "$found" | wc -l)"
