#!/usr/bin/env bash
# Code surface per crate, for the diet PRs: non-test lines (each file
# under src/ cut at its first `#[cfg(test)]`, that line included) and
# `pub` items declared in those lines. `pub(crate)`/`pub(super)` items
# and public fields are not counted; a `pub use` counts once per line.
# crates/testkit is measured like any crate and counts in the total:
# code moved there from a library crate is moved, not removed.
#
# usage: scripts/surface.sh [crate-dir ...]        (default: crates/*)
#        scripts/surface.sh --diff <git-ref>       working tree against
#                                                  <git-ref>, per crate
set -euo pipefail
cd "$(dirname "$0")/.."

# "<crate> <lines> <pub_items>" for each crate directory given.
measure() {
    local dir
    for dir in "$@"; do
        [ -d "$dir/src" ] || continue
        find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { cut = 0 }
            cut { next }
            { lines++ }
            /^[[:space:]]*pub[[:space:]]+(fn|struct|enum|union|trait|type|const|static|mod|use|unsafe|async|extern)[[:space:]]/ { items++ }
            /#\[cfg\(test\)\]/ { cut = 1 }
            END { printf "%s %d %d\n", crate, lines, items }
        ' crate="${dir##*/}"
    done
}

if [ "${1:-}" = "--diff" ]; then
    ref="${2:?usage: scripts/surface.sh --diff <git-ref>}"
    old="$(mktemp -d)"
    trap 'rm -rf "$old"' EXIT
    git archive "$ref" crates | tar -x -C "$old"
    # Crates on either side; one that exists on one side only counts
    # as 0 on the other.
    { measure "$old"/crates/* | sed 's/^/old /'; measure crates/* | sed 's/^/new /'; } | awk -v ref="$ref" '
        { if (!($2 in seen)) { seen[$2] = 1; names[++n] = $2 }; lines[$1, $2] = $3; items[$1, $2] = $4 }
        END {
            printf "%-24s %10s %10s %8s %10s %10s %8s\n", "crate (vs " ref ")", "lines", "was", "delta", "pub_items", "was", "delta"
            for (i = 1; i <= n; i++) {
                c = names[i]
                dl = lines["new", c] - lines["old", c]; di = items["new", c] - items["old", c]
                tl += dl; ti += di
                printf "%-24s %10d %10d %+8d %10d %10d %+8d\n", c, lines["new", c], lines["old", c], dl, items["new", c], items["old", c], di
            }
            printf "%-24s %10s %10s %+8d %10s %10s %+8d\n", "total", "", "", tl, "", "", ti
        }'
    exit
fi

[ "$#" -gt 0 ] || set -- crates/*
printf '%-24s %10s %10s\n' crate lines pub_items
measure "$@" | awk '{ printf "%-24s %10d %10d\n", $1, $2, $3 }'
