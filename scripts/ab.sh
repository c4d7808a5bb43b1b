#!/usr/bin/env sh
# A/B driver for the end-to-end benchmark (BENCHMARK.json).
#
#   scripts/ab.sh <rev-a> <rev-b> [pairs]
#
# Builds the benchmark of both revisions, each from its own checkout at a
# path of the same length, then runs every BENCHMARK.json workload with
# the benchmark's default seed and length in alternating pairs: odd pairs
# run rev-a first, even pairs rev-b first. rev-a is the baseline (the
# parent), rev-b the change. Every run's result line is printed as it
# lands; the summary gives, per workload and end-to-end metric, both
# medians, the median of the per-pair ratios b/a, the pairs where b was
# worse, and rev-a's interquartile range relative to its median.
#
# Exits 1 if any run is not `"correct": true`, or if a metric's median
# ratio is worse than its BENCHMARK.json bound while at least 8 in 10 of
# the pairs are worse. Default 10 pairs: about 25 minutes on 2 vCPUs, so
# this is not a CI step. POSIX sh and awk only.
set -eu

usage() {
    echo "usage: scripts/ab.sh <rev-a> <rev-b> [pairs]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage
pairs=${3:-10}
case $pairs in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

cd "$(dirname "$0")/.."
rev_a=$(git rev-parse --verify "$1^{commit}")
rev_b=$(git rev-parse --verify "$2^{commit}")

# The checkouts are plain `git archive` extractions: they register
# nothing in this repository, and the trap removes them however the
# script ends.
work=$(mktemp -d "${TMPDIR:-/tmp}/sysr-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

for side in a b; do
    if [ $side = a ]; then rev=$rev_a; else rev=$rev_b; fi
    mkdir "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "building $side = $rev" >&2
    (cd "$work/$side" && cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
done

# Workload names, and `name better bound` per end-to-end metric, from the
# baseline's BENCHMARK.json (one key per line, as committed).
spec="$work/spec"
awk '
    /"workloads": \[/ { sec = "w"; next }
    /"end_to_end": \[/ { sec = "e"; next }
    /^  *\]/ { sec = "" }
    function str(line) { sub(/^[^:]*: *"/, "", line); sub(/".*$/, "", line); return line }
    function num(line) { sub(/^[^:]*: */, "", line); sub(/[ ,]*$/, "", line); return line }
    sec == "w" && /"name":/ { print "workload", str($0) }
    sec == "e" && /"name":/ { name = str($0) }
    sec == "e" && /"better":/ { better = str($0) }
    sec == "e" && /"bound":/ { print "metric", name, better, num($0) }
' "$work/a/BENCHMARK.json" >"$spec"
workloads=$(awk '$1 == "workload" { print $2 }' "$spec")
[ -n "$workloads" ] || { echo "no workloads in BENCHMARK.json" >&2; exit 2; }

results="$work/results"
: >"$results"
for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
        for side in $order; do
            line=$(cd "$work/$side" && ./benchmark/target/release/benchmark --workload "$w" | tail -n 1)
            echo "$w $i $side $line" | tee -a "$results"
        done
        i=$((i + 1))
    done
done

awk -v pairs="$pairs" '
    function value(line, name,    key, at) {
        key = "\"" name "\": {\"value\": "
        at = index(line, key)
        if (at == 0) return ""
        return substr(line, at + length(key)) + 0
    }
    function field(line, name,    key, at) {
        key = "\"" name "\": "
        at = index(line, key)
        return at == 0 ? 0 : substr(line, at + length(key)) + 0
    }
    function sort(x, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
    }
    # Quantile p of sorted x[1..n], interpolating between ranks.
    function quantile(x, n, p,    r, lo) {
        r = 1 + (n - 1) * p
        lo = int(r)
        return lo >= n ? x[n] : x[lo] + (r - lo) * (x[lo + 1] - x[lo])
    }
    FNR == NR && $1 == "metric" { m++; mname[m] = $2; mbetter[m] = $3; mbound[m] = $4; next }
    FNR == NR { next }
    {
        w = $1; p = $2; s = $3
        if (!(w in seen)) { seen[w] = 1; nw++; wname[nw] = w }
        if (index($0, "\"correct\": true") == 0) { print "INCORRECT: " $0; bad = 1 }
        att[w, s] += field($0, "attempted"); fail[w, s] += field($0, "failed")
        for (k = 1; k <= m; k++) val[w, mname[k], p, s] = value($0, mname[k])
    }
    END {
        need = int((8 * pairs + 9) / 10)
        printf "\n%-11s %-12s %14s %14s %8s %7s %9s\n", "workload", "metric", "median a", "median b", "b/a", "worse", "IQR(a)"
        for (i = 1; i <= nw; i++) {
            w = wname[i]
            for (k = 1; k <= m; k++) {
                name = mname[k]; n = 0; worse = 0
                for (p = 1; p <= pairs; p++) {
                    a = val[w, name, p, "a"]; b = val[w, name, p, "b"]
                    if (a == "" || b == "" || a == 0) continue
                    n++; xa[n] = a; xb[n] = b; r[n] = b / a
                    if (mbetter[k] == "lower" ? b > a : b < a) worse++
                }
                if (n == 0) { printf "%-11s %-12s %s\n", w, name, "no data"; bad = 1; continue }
                sort(xa, n); sort(xb, n); sort(r, n)
                ma = quantile(xa, n, 0.5); ratio = quantile(r, n, 0.5)
                iqr = ma == 0 ? 0 : (quantile(xa, n, 0.75) - quantile(xa, n, 0.25)) / ma
                over = mbetter[k] == "lower" ? ratio > 1 + mbound[k] : ratio < 1 - mbound[k]
                verdict = ""
                if (over && worse >= need) { verdict = "  REGRESSED"; bad = 1 }
                printf "%-11s %-12s %14.6g %14.6g %8.4f %4d/%-2d %8.1f%%%s\n", w, name, ma, quantile(xb, n, 0.5), ratio, worse, n, 100 * iqr, verdict
            }
            printf "%-11s %-12s %14s %14s   (a %d/%d, b %d/%d)\n", w, "failed", "", "", fail[w, "a"], att[w, "a"], fail[w, "b"], att[w, "b"]
        }
        exit bad
    }
' "$spec" "$results"
