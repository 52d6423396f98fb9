#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), build, tests.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# clippy::unwrap_used is denied workspace-wide via [workspace.lints]
# in Cargo.toml, so the plain clippy invocation above already covers it.

echo "== cargo deny check =="
if command -v cargo-deny >/dev/null 2>&1; then
    cargo deny check
else
    echo "   cargo-deny not installed; skipping (deny.toml is still authoritative)"
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== sfr lint (all benchmarks must be error-free) =="
SFR=target/release/sfr
for bench in diffeq facet poly fir; do
    echo "   lint $bench"
    "$SFR" lint "$bench"
done
echo "   lint --fixture (must fail with rule ids)"
if "$SFR" lint --fixture > /tmp/sfr-lint-fixture.out 2>&1; then
    echo "   ERROR: fixture lint unexpectedly passed"
    exit 1
fi
grep -q "unreachable-state" /tmp/sfr-lint-fixture.out
grep -q "combinational-loop" /tmp/sfr-lint-fixture.out
rm -f /tmp/sfr-lint-fixture.out

echo "== widths past the 64-bit test pattern are refused with exit code 1 =="
for args in "grade diffeq --width 13" "classify poly --width 13" "grade fir --width 17"; do
    rc=0
    # shellcheck disable=SC2086 # split the argument string on purpose
    "$SFR" $args > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "   ERROR: sfr $args exited $rc"
        exit 1
    fi
done

echo "== retired engines are refused with exit code 1 =="
for engine in lane threaded tape-wide; do
    rc=0
    "$SFR" grade poly --engine "$engine" > /dev/null 2> /tmp/sfr-engine.err || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "serial|tape" /tmp/sfr-engine.err; then
        echo "   ERROR: sfr grade poly --engine $engine exited $rc: $(cat /tmp/sfr-engine.err)"
        exit 1
    fi
done
rm -f /tmp/sfr-engine.err

echo "== static prune equivalence (diffeq, threads 1/2/8) =="
PRUNE_DIR="$(mktemp -d)"
"$SFR" grade diffeq --patterns 600 > "$PRUNE_DIR/plain.out" 2>/dev/null
for t in 1 2 8; do
    "$SFR" grade diffeq --patterns 600 --static-prune --threads "$t" \
        > "$PRUNE_DIR/pruned-$t.out" 2>"$PRUNE_DIR/pruned-$t.err"
    diff "$PRUNE_DIR/plain.out" "$PRUNE_DIR/pruned-$t.out"
    grep -q "static prune: [1-9]" "$PRUNE_DIR/pruned-$t.err"
done
rm -rf "$PRUNE_DIR"
echo "   pruned grade tables are byte-identical at 1/2/8 threads"

echo "== scalar reference equivalence (--engine serial vs default tape, threads 1/2/8) =="
TAPE_DIR="$(mktemp -d)"
# The manifest fingerprint covers only deterministic fields, so it must
# match across engines, as must the grade table on stdout.
manifest_fp() { sed -n 's/.*"fingerprint": "\(0x[0-9a-f]*\)".*/\1/p' "$1"; }
# Work counters from the manifest's profile section. Every paper design
# grades one pack, so 2 and 8 threads spread its Monte Carlo batches
# over several workers; a batch computed ahead of the stopping rule and
# then discarded must not reach these counts.
manifest_work() {
    grep -E '"(mc_batches|packs_computed|tape_sparsity_pct)"' "$1" | tr -d ' \n'
}
for bench in diffeq facet poly fir; do
    "$SFR" grade "$bench" --patterns 600 --engine serial \
        --manifest-out "$TAPE_DIR/$bench-serial-manifest.json" --quiet \
        > "$TAPE_DIR/$bench-serial.out" 2>/dev/null
    for t in 1 2 8; do
        "$SFR" grade "$bench" --patterns 600 --threads "$t" \
            --manifest-out "$TAPE_DIR/$bench-tape-$t-manifest.json" --quiet \
            > "$TAPE_DIR/$bench-tape-$t.out" 2>/dev/null
        diff "$TAPE_DIR/$bench-serial.out" "$TAPE_DIR/$bench-tape-$t.out"
        [ "$(manifest_fp "$TAPE_DIR/$bench-serial-manifest.json")" = \
          "$(manifest_fp "$TAPE_DIR/$bench-tape-$t-manifest.json")" ]
        [ "$(manifest_work "$TAPE_DIR/$bench-tape-1-manifest.json")" = \
          "$(manifest_work "$TAPE_DIR/$bench-tape-$t-manifest.json")" ] || {
            echo "   ERROR: $bench work counters differ on $t threads:"
            echo "   $(manifest_work "$TAPE_DIR/$bench-tape-1-manifest.json")"
            echo "   $(manifest_work "$TAPE_DIR/$bench-tape-$t-manifest.json")"
            exit 1
        }
    done
    echo "   $bench: tape grade tables and manifest fingerprints match serial at 1/2/8 threads;"
    echo "   $bench: mc_batches, packs_computed and tape_sparsity_pct match across thread counts"
done
rm -rf "$TAPE_DIR"

echo "== observability equivalence (diffeq: trace + metrics + manifest) =="
OBS_DIR="$(mktemp -d)"
"$SFR" grade diffeq --patterns 600 > "$OBS_DIR/plain.out" 2>/dev/null
"$SFR" grade diffeq --patterns 600 --threads 2 \
    --trace-out "$OBS_DIR/trace.jsonl" --metrics-out "$OBS_DIR/metrics.prom" \
    --manifest-out "$OBS_DIR/manifest.json" --quiet \
    > "$OBS_DIR/observed.out" 2>/dev/null
diff "$OBS_DIR/plain.out" "$OBS_DIR/observed.out"
echo "   traced grade table is byte-identical to the unobserved run"
"$SFR" obs-check --trace "$OBS_DIR/trace.jsonl" \
    --manifest "$OBS_DIR/manifest.json" --metrics "$OBS_DIR/metrics.prom" \
    | sed 's/^/   /'
if "$SFR" grade diffeq --patterns 600 --manifest-out "$OBS_DIR/manifest.json" \
    >/dev/null 2>&1; then
    echo "   ERROR: manifest overwrite without --force unexpectedly succeeded"
    exit 1
fi
echo "   manifest overwrite without --force refused"
rm -rf "$OBS_DIR"

echo "== kill-and-resume smoke (SIGKILL mid-campaign, resume, diff) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
# Width 12 gives the campaign a few hundred milliseconds of wall time;
# the fuses below shorten until the kill lands mid-flight.
GRADE_ARGS=(grade diffeq --width 12 --patterns 1200)
# The uninterrupted reference.
"$SFR" "${GRADE_ARGS[@]}" > "$SMOKE_DIR/reference.out"
# A checkpointed campaign, SIGKILLed mid-flight. Retry with a shorter
# fuse if the run finishes before the kill lands (fast machines).
killed=0
for fuse in 0.4 0.2 0.1 0.05; do
    rm -f "$SMOKE_DIR/smoke.journal"
    "$SFR" "${GRADE_ARGS[@]}" --checkpoint "$SMOKE_DIR/smoke.journal" \
        > "$SMOKE_DIR/killed.out" 2>/dev/null &
    victim=$!
    sleep "$fuse"
    if kill -9 "$victim" 2>/dev/null; then
        wait "$victim" 2>/dev/null || true
        if [ -s "$SMOKE_DIR/smoke.journal" ]; then
            killed=1
            break
        fi
    else
        wait "$victim" 2>/dev/null || true
    fi
done
if [ "$killed" -eq 1 ]; then
    echo "   killed mid-campaign (journal: $(wc -c < "$SMOKE_DIR/smoke.journal") bytes); resuming"
    "$SFR" "${GRADE_ARGS[@]}" --resume "$SMOKE_DIR/smoke.journal" --threads 2 \
        > "$SMOKE_DIR/resumed.out"
    diff "$SMOKE_DIR/reference.out" "$SMOKE_DIR/resumed.out"
    echo "   resumed output is byte-identical to the uninterrupted run"
else
    # Too fast to interrupt with a journal on disk: fall back to
    # verifying a checkpointed run resumes to identical output.
    echo "   campaign finished before any kill landed; checking resume-after-completion"
    "$SFR" "${GRADE_ARGS[@]}" --resume "$SMOKE_DIR/smoke.journal" --threads 2 \
        > "$SMOKE_DIR/resumed.out"
    diff "$SMOKE_DIR/killed.out" "$SMOKE_DIR/resumed.out"
fi

echo "== shard chaos (coordinator + 3 kill-chaos workers vs single-process) =="
SHARD_DIR="$(mktemp -d)"
for bench in diffeq facet poly fir; do
    "$SFR" grade "$bench" --patterns 240 \
        --manifest-out "$SHARD_DIR/$bench-ref-manifest.json" --quiet \
        > "$SHARD_DIR/$bench-ref.out" 2>/dev/null
    for t in 1 2 8; do
        # The hard timeout turns a wedged coordinator into a fast CI
        # failure instead of a hang.
        timeout 180 "$SFR" shard serve "$bench" --patterns 240 --threads "$t" \
            --spawn-workers 3 --chaos kill=0.3 --chaos-seed "$((4242 + t))" \
            --lease-ms 500 --grace-ms 4000 \
            --manifest-out "$SHARD_DIR/$bench-$t-manifest.json" --quiet \
            > "$SHARD_DIR/$bench-$t.out" 2>"$SHARD_DIR/$bench-$t.err"
        diff "$SHARD_DIR/$bench-ref.out" "$SHARD_DIR/$bench-$t.out"
        [ "$(manifest_fp "$SHARD_DIR/$bench-ref-manifest.json")" = \
          "$(manifest_fp "$SHARD_DIR/$bench-$t-manifest.json")" ]
    done
    echo "   $bench: chaos-ravaged shard tables and fingerprints match at 1/2/8 threads"
done
rm -rf "$SHARD_DIR"

echo "== flight recorder (traced shard campaigns, sfr report round-trip) =="
FR_DIR="$(mktemp -d)"
"$SFR" grade diffeq --patterns 240 --quiet > "$FR_DIR/ref.out" 2>/dev/null
# Healthy traced campaign: coordinator + 3 workers, every process
# writing its own flight-recorder trace. The merged report must
# reconstruct a gap-free timeline that attributes every journaled pack
# (`sfr report` exits nonzero on unattributed packs).
mkdir -p "$FR_DIR/traces"
timeout 180 "$SFR" shard serve diffeq --patterns 240 --spawn-workers 3 \
    --checkpoint "$FR_DIR/flight.journal" \
    --trace-out "$FR_DIR/traces/coordinator.jsonl" \
    --worker-trace-dir "$FR_DIR/traces" --quiet \
    > "$FR_DIR/traced.out" 2>/dev/null
diff "$FR_DIR/ref.out" "$FR_DIR/traced.out"
echo "   traced shard grade table is byte-identical to the local run"
"$SFR" report "$FR_DIR/traces/coordinator.jsonl" "$FR_DIR/traces"/worker-*.jsonl \
    --journal "$FR_DIR/flight.journal" --format json > "$FR_DIR/report.json"
"$SFR" obs-check --report "$FR_DIR/report.json" | sed 's/^/   /'
grep -q '"unattributed": 0' "$FR_DIR/report.json"
if grep -q '"kind": "\(unresolved_grant\|fenced_zombie\|torn_trace\|unattributed_pack\)"' \
    "$FR_DIR/report.json"; then
    echo "   ERROR: healthy traced campaign reconstructed with gaps"
    exit 1
fi
echo "   healthy campaign timeline is gap-free and accounts for every journaled pack"
# Chaos campaign: kill-chaos workers leave torn traces behind; the
# flight recorder must still merge them, flag the torn tails, and
# attribute every journaled pack — and the grade table must stay
# byte-identical.
mkdir -p "$FR_DIR/chaos-traces"
timeout 180 "$SFR" shard serve diffeq --patterns 240 --spawn-workers 3 \
    --chaos kill=0.3 --chaos-seed 4207 --lease-ms 500 --grace-ms 4000 \
    --checkpoint "$FR_DIR/chaos.journal" \
    --trace-out "$FR_DIR/chaos-traces/coordinator.jsonl" \
    --worker-trace-dir "$FR_DIR/chaos-traces" --quiet \
    > "$FR_DIR/chaos.out" 2>/dev/null
diff "$FR_DIR/ref.out" "$FR_DIR/chaos.out"
"$SFR" report "$FR_DIR/chaos-traces/coordinator.jsonl" "$FR_DIR/chaos-traces"/worker-*.jsonl \
    --journal "$FR_DIR/chaos.journal" --format json > "$FR_DIR/chaos-report.json"
"$SFR" obs-check --report "$FR_DIR/chaos-report.json" | sed 's/^/   /'
grep -q '"unattributed": 0' "$FR_DIR/chaos-report.json"
# The human-readable rendering must work over the same artifacts.
"$SFR" report "$FR_DIR/chaos-traces/coordinator.jsonl" "$FR_DIR/chaos-traces"/worker-*.jsonl \
    --journal "$FR_DIR/chaos.journal" > /dev/null
echo "   chaos campaign report merges torn worker traces and attributes every journaled pack"
rm -rf "$FR_DIR"

echo "== fault collapsing (sfr analyze + --collapse equivalence) =="
COLLAPSE_DIR="$(mktemp -d)"
for bench in diffeq facet poly fir; do
    # Machine-readable diagnostics must round-trip through the
    # validating readers.
    "$SFR" lint "$bench" --format json > "$COLLAPSE_DIR/$bench-lint.json"
    "$SFR" obs-check --diagnostics "$COLLAPSE_DIR/$bench-lint.json" | sed 's/^/   /'
    "$SFR" analyze "$bench" --format json > "$COLLAPSE_DIR/$bench-analyze.json"
    "$SFR" obs-check --analysis "$COLLAPSE_DIR/$bench-analyze.json" | sed 's/^/   /'
    # Collapsed grading is a pure execution strategy: grade table and
    # manifest fingerprint must match the uncollapsed run exactly.
    "$SFR" grade "$bench" --patterns 240 \
        --manifest-out "$COLLAPSE_DIR/$bench-ref-manifest.json" --quiet \
        > "$COLLAPSE_DIR/$bench-ref.out" 2>/dev/null
    for t in 1 2 8; do
        "$SFR" grade "$bench" --patterns 240 --collapse --threads "$t" \
            --manifest-out "$COLLAPSE_DIR/$bench-$t-manifest.json" --quiet \
            > "$COLLAPSE_DIR/$bench-$t.out" 2>/dev/null
        diff "$COLLAPSE_DIR/$bench-ref.out" "$COLLAPSE_DIR/$bench-$t.out"
        [ "$(manifest_fp "$COLLAPSE_DIR/$bench-ref-manifest.json")" = \
          "$(manifest_fp "$COLLAPSE_DIR/$bench-$t-manifest.json")" ]
    done
    # The acceptance bar: collapse + static rules shrink the simulated
    # campaign by at least 20% on every benchmark.
    pct=$(sed -n 's/.*"reduction_pct": *\([0-9]*\).*/\1/p' "$COLLAPSE_DIR/$bench-analyze.json")
    [ "$pct" -ge 20 ]
    echo "   $bench: collapsed tables and fingerprints match at 1/2/8 threads; analyze reduction ${pct}%"
done
# Collapsing composes with the scalar reference engine too.
"$SFR" grade poly --patterns 240 --collapse --engine serial --quiet \
    > "$COLLAPSE_DIR/poly-serial.out" 2>/dev/null
diff "$COLLAPSE_DIR/poly-ref.out" "$COLLAPSE_DIR/poly-serial.out"
echo "   poly: collapsed serial grade table matches the tape reference"
rm -rf "$COLLAPSE_DIR"

echo "== whole-study benchmark smoke (perfbench --smoke) =="
# perfbench drives studies through the public layer calls it mirrors
# (judge, golden_trace, analyze_controller_fault, ...) and checks every
# study digest against perfbench/reference.tsv, so a changed signature
# fails to build here and a drifted result fails the run.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke

echo "== cargo bench --no-run =="
cargo bench --workspace --no-run

echo "== bench smoke (scripts/bench.sh --quick) =="
scripts/bench.sh --quick

echo "CI gate passed."
