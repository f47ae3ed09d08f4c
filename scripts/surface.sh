#!/usr/bin/env bash
# Code surface per crate, for the diet PRs: non-test lines (each file
# under src/ cut at its first `#[cfg(test)]`, that line included) and
# `pub` items declared in those lines. `pub(crate)`/`pub(super)` items
# and public fields are not counted; a `pub use` counts once per line.
#
# usage: scripts/surface.sh [crate-dir ...]   (default: crates/*)
set -euo pipefail
cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- crates/*
printf '%-24s %10s %10s\n' crate lines pub_items
for dir in "$@"; do
    [ -d "$dir/src" ] || continue
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0 }
        cut { next }
        { lines++ }
        /^[[:space:]]*pub[[:space:]]+(fn|struct|enum|union|trait|type|const|static|mod|use|unsafe|async|extern)[[:space:]]/ { items++ }
        /#\[cfg\(test\)\]/ { cut = 1 }
        END { printf "%-24s %10d %10d\n", crate, lines, items }
    ' crate="${dir#crates/}"
done
