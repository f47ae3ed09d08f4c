#!/bin/sh
# Alternating parent/change runs of the BENCHMARK.json command, and the
# choosing-metrics §8 verdict on them.
#
# usage: scripts/bench_pair.sh <workload> <pairs> [seed] [parent-ref]
#
#   workload    a name from BENCHMARK.json "workloads"
#   pairs       how many parent/change pairs to run (a claim needs >= 10)
#   seed        workload seed, the same on both sides (default 1)
#   parent-ref  commit to compare the working tree with (default HEAD~1;
#               pass HEAD while the change is still uncommitted)
#
# The parent is checked out as a git worktree under target/bench_pair/
# and built there; the change is the working tree as it stands. Pair i
# runs the parent first when i is odd and the change first when it is
# even. For every end-to-end metric it prints each side's median and
# quartiles, in how many pairs the change read better (ties count for
# neither side), and whether a gain is claimable: at least ten pairs,
# the change better in at least nine tenths of them, and the medians
# apart — in the better direction — by more than the parent's own
# inter-quartile range.
#
# Writes only under target/ (either side's) and .gsbench_tmp/; a lock
# file the build rewrites next to the command's --manifest-path is put
# back as it was. POSIX sh and awk only.
set -eu

usage() {
    sed -n '2,/^set -eu/{/^set -eu/d;s/^# \{0,1\}//;p;}' "$0"
}

case "${1:-}" in
-h | --help)
    usage
    exit 0
    ;;
esac
if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    usage >&2
    exit 2
fi

workload=$1
pairs=$2
seed=${3:-1}
parent_ref=${4:-HEAD~1}
case "$pairs" in
'' | *[!0-9]* | 0)
    echo "bench_pair: <pairs> must be a positive integer, got '$pairs'" >&2
    exit 2
    ;;
esac

cd "$(dirname "$0")/.."
spec=BENCHMARK.json
grep -q "\"name\": *\"$workload\"" "$spec" || {
    echo "bench_pair: no workload '$workload' in $spec" >&2
    exit 2
}

# The command is one line, `"command": ["a", "b", ...]`, and none of
# its words holds a space, so word splitting rebuilds the argv.
cmd=$(awk '/"command"/ { sub(/^[^[]*\[/, ""); sub(/\].*$/, ""); gsub(/[",]/, " "); print; exit }' "$spec")
seconds=$(awk '/"run_seconds"/ { gsub(/[^0-9.]/, ""); print; exit }' "$spec")
[ -n "$cmd" ] && [ -n "$seconds" ] || {
    echo "bench_pair: $spec names no command or run_seconds" >&2
    exit 2
}
manifest=$(echo "$cmd" | awk '{ for (i = 1; i < NF; i++) if ($i == "--manifest-path") print $(i + 1) }')

out=target/bench_pair
parent=$out/parent
mkdir -p "$out/runs"
rm -f "$out"/runs/*.json

if [ -e "$parent/.git" ]; then
    git -C "$parent" checkout --quiet --detach "$parent_ref"
else
    git worktree add --quiet --force --detach "$parent" "$parent_ref"
fi
echo "parent $(git -C "$parent" rev-parse --short HEAD) against the working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"

lock=
if [ -n "$manifest" ] && [ -f "$(dirname "$manifest")/Cargo.lock" ]; then
    lock=$(dirname "$manifest")/Cargo.lock
    cp "$lock" "$out/Cargo.lock.keep"
    trap 'cmp -s "$out/Cargo.lock.keep" "$lock" || cp "$out/Cargo.lock.keep" "$lock"' EXIT
fi

# Build both sides before the first timed run: a compile beside a run
# skews it. `cargo run ... --` becomes `cargo build ...`.
case "$cmd" in
*cargo\ run*)
    build=$(echo "$cmd" | awk '{ sub(/ run /, " build "); sub(/ -- *$/, ""); print }')
    (cd "$parent" && $build)
    $build
    ;;
esac

# one <side> <dir> <pair>: run once, keep the result line.
one() {
    # shellcheck disable=SC2086
    (cd "$2" && $cmd --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) |
        tail -n 1 >"$out/runs/$1_$3.json"
    grep -q '"correct": *true' "$out/runs/$1_$3.json" || {
        echo "bench_pair: $1 run of pair $3 is not correct: $(cat "$out/runs/$1_$3.json")" >&2
        exit 1
    }
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        one parent "$parent" "$i"
        one change . "$i"
    else
        one change . "$i"
        one parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done"
    i=$((i + 1))
done

awk -v pairs="$pairs" -v runs="$out/runs" -v workload="$workload" -v seed="$seed" '
# Every end_to_end entry of BENCHMARK.json: name and direction.
/"end_to_end"/ { inside = 1; next }
inside && /^ *\]/ { inside = 0 }
inside && /"name"/ {
    name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
    better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
    names[++n] = name; dir[name] = better
}

function value(file, metric,    line, at) {
    getline line < file; close(file)
    at = index(line, "\"" metric "\": {\"value\": ")
    if (!at) { printf "bench_pair: no %s in %s\n", metric, file > "/dev/stderr"; exit 1 }
    line = substr(line, at + length(metric) + 14)
    sub(/[,}].*/, "", line)
    return line + 0
}

# Quantile q of v[1..pairs] by linear interpolation between order
# statistics; sorts a copy.
function quantile(v, q,    s, i, j, t, h, lo) {
    for (i = 1; i <= pairs; i++) s[i] = v[i]
    for (i = 2; i <= pairs; i++) {
        t = s[i]
        for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
    h = 1 + (pairs - 1) * q; lo = int(h)
    return lo >= pairs ? s[pairs] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}

END {
    printf "%s, seed %s, %d pairs (q1 / median / q3)\n", workload, seed, pairs
    printf "%-18s %38s %38s %7s  %s\n", "metric", "parent", "change", "wins", "claimable"
    for (k = 1; k <= n; k++) {
        m = names[k]; wins = 0
        for (i = 1; i <= pairs; i++) {
            p[i] = value(runs "/parent_" i ".json", m)
            c[i] = value(runs "/change_" i ".json", m)
            if (dir[m] == "lower" ? c[i] < p[i] : c[i] > p[i]) wins++
        }
        pm = quantile(p, 0.5); cm = quantile(c, 0.5)
        iqr = quantile(p, 0.75) - quantile(p, 0.25)
        gap = dir[m] == "lower" ? pm - cm : cm - pm
        ok = pairs >= 10 && wins * 10 >= pairs * 9 && gap > iqr
        printf "%-18s %12.6g /%12.6g /%12.6g %12.6g /%12.6g /%12.6g %3d/%-3d  %s\n", m, \
            quantile(p, 0.25), pm, quantile(p, 0.75), quantile(c, 0.25), cm, quantile(c, 0.75), \
            wins, pairs, ok ? "yes" : "no"
    }
}' "$spec"
