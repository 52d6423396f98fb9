#!/usr/bin/env bash
# Grading-throughput benchmark: times the scalar reference against the
# lane-packed compiled tape (one thread and two) on the diffeq SFR
# faults, measures the overhead of an attached JSONL trace sink, and
# writes the numbers to BENCH_grade.json at the repository root. The
# full run fails if tracing costs 2% or more, or shard tracing 5%.
#
# Usage:
#   scripts/bench.sh            # full run (all SFR faults, criterion probes)
#   scripts/bench.sh --quick    # CI smoke: few faults, tiny Monte Carlo,
#                               # finishes in seconds
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p sfr-bench --bench grade_throughput -- "$@"

# The quick smoke writes its numbers to a scratch file so it never
# clobbers the committed full-mode BENCH_grade.json.
JSON=BENCH_grade.json
for arg in "$@"; do
    [ "$arg" = "--quick" ] && JSON="${TMPDIR:-/tmp}/BENCH_grade_quick.json"
done

echo
echo "== $JSON =="
cat "$JSON"

# The observability contract: an enabled trace sink must cost under 2%
# (events aggregate per worker and flush at pack boundaries). The full
# run reports the median over 400 alternating untraced/traced sweep
# pairs, which repeats within a point from run to run, and is gated;
# the quick smoke times three pairs, so it only records the number.
overhead=$(sed -n 's/.*"trace_overhead_pct": \([-0-9.]*\).*/\1/p' "$JSON")
echo
echo "tracing overhead: ${overhead}% (target < 2%)"
if [ "$JSON" = "BENCH_grade.json" ]; then
    awk -v pct="$overhead" 'BEGIN { exit !(pct < 2.0) }' || {
        echo "ERROR: tracing overhead ${overhead}% breaches the 2% budget"
        exit 1
    }
fi

# Shard flight-recorder contract: a coordinator + worker campaign with
# both sides tracing must stay within 5% of the untraced wall clock.
# The full run is best-of-3 interleaved and stable enough to gate on;
# the quick smoke is a single short campaign dominated by protocol
# latency, so it only records the number.
shard_overhead=$(sed -n 's/.*"shard_trace_overhead_pct": \([-0-9.]*\).*/\1/p' "$JSON")
echo "shard tracing overhead: ${shard_overhead}% (target < 5%)"
if [ "$JSON" = "BENCH_grade.json" ]; then
    awk -v pct="$shard_overhead" 'BEGIN { exit !(pct < 5.0) }' || {
        echo "ERROR: shard tracing overhead ${shard_overhead}% breaches the 5% budget"
        exit 1
    }
fi

# Fault-collapsing stage: ratio of the universe left after structural
# equivalence merging, and the wall time of the whole `sfr analyze`
# static pass (collapse + abstract interpretation + table + oracle).
echo
echo "collapse/analyze per benchmark:"
sed -n 's/.*"bench": "\([a-z]*\)", "universe": \([0-9]*\), "classes": \([0-9]*\), "collapse_ratio": \([0-9.]*\), "campaign": \([0-9]*\), "analyze_seconds": \([0-9.]*\).*/  \1: \3 of \2 classes (ratio \4), campaign \5, analyze \6 s/p' "$JSON"
