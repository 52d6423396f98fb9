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

echo "== widths past the 64-bit test pattern or below a design's floor are refused with exit code 1 =="
for args in "grade diffeq --width 13" "classify poly --width 13" "grade fir --width 17" \
    "grade diffeq --width 1" "grade fir --width 3" "table2 --width 1"; do
    rc=0
    # shellcheck disable=SC2086 # split the argument string on purpose
    "$SFR" $args > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "   ERROR: sfr $args exited $rc"
        exit 1
    fi
done

echo "== paper tables match the committed record byte for byte =="
TABLES_OUT="$(mktemp)"
cargo build --release -p sfr-bench --bins
for bin in table2 table1 fig7 table3 worstcase; do
    echo "== $bin =="
    "target/release/$bin" 2>/dev/null
done > "$TABLES_OUT"
diff reports/experiments_raw.txt "$TABLES_OUT"
rm -f "$TABLES_OUT"
echo "   table2 table1 fig7 table3 worstcase reproduce reports/experiments_raw.txt"

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

echo "== removed commands are refused with exit code 1 =="
for args in "shard serve diffeq" "shard work --connect 127.0.0.1:9" "report t.jsonl"; do
    rc=0
    # shellcheck disable=SC2086 # split the argument string on purpose
    "$SFR" $args > /dev/null 2> /tmp/sfr-command.err || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "unknown command" /tmp/sfr-command.err; then
        echo "   ERROR: sfr $args exited $rc: $(cat /tmp/sfr-command.err)"
        exit 1
    fi
done
rm -f /tmp/sfr-command.err

echo "== flags a command does not read are refused with exit code 1 =="
FLAG_DIR="$(mktemp -d)"
for args in "grade poly --patterns 240 --colapse" \
    "classify poly --checkpoint $FLAG_DIR/poly.journal --threshold 9" \
    "lint poly --manifest-out $FLAG_DIR/manifest.json" \
    "grade poly --patterns 240 extra" "grade poly --patterns 240 --threads"; do
    rc=0
    # shellcheck disable=SC2086 # split the argument string on purpose
    "$SFR" $args > /dev/null 2> "$FLAG_DIR/err" || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "   ERROR: sfr $args exited $rc: $(cat "$FLAG_DIR/err")"
        exit 1
    fi
    echo "   sfr ${args%% *}: $(sed 's/^error: //' "$FLAG_DIR/err")"
done
if [ -e "$FLAG_DIR/poly.journal" ] || [ -e "$FLAG_DIR/manifest.json" ]; then
    echo "   ERROR: a refused command wrote a journal or a manifest"
    exit 1
fi
for bin in worstcase table2; do
    for args in "--threads abc --bogus" "--bogus"; do
        rc=0
        # shellcheck disable=SC2086 # split the argument string on purpose
        "target/release/$bin" $args > /dev/null 2> "$FLAG_DIR/err" || rc=$?
        if [ "$rc" -ne 1 ]; then
            echo "   ERROR: $bin $args exited $rc: $(cat "$FLAG_DIR/err")"
            exit 1
        fi
    done
done
rm -rf "$FLAG_DIR"
echo "   the table binaries refuse --threads abc and unknown flags too"

echo "== hostile inputs are refused with exit code 1, not an abort =="
HOSTILE_DIR="$(mktemp -d)"
# 50,000 nested arrays: the JSON reader must refuse them at its depth
# cap, not recurse until the stack overflows.
head -c 50000 /dev/zero | tr '\0' '[' > "$HOSTILE_DIR/deep.json"
# A checksum-valid record claiming 2^60 payload words mid-file: the
# journal must report it corrupt without allocating that much. Each
# line's leading hex is the CRC32 of the rest of that line.
printf '%s\n' "sfr-journal v1" \
    "d96af08f H 0000000000000001 hostile" \
    "3901159f R grade 0 fffffffffffffff 1" \
    "9edc312d R grade 1 1 0" > "$HOSTILE_DIR/huge-length.journal"
# A chunk whose detected and potential counts are 2^63 each: summed as
# machine words they wrap to 0 and the line would pass for one fault.
printf '%s\n' '{"ev":"trace_start","version":1}' \
    '{"ev":"chunk","chunk":0,"faults":["g1.out/sa0"],"detected":9223372036854775808,"potential":9223372036854775808,"cycles":9,"ms":0.1,"restored":false,"t_ms":0.2}' \
    '{"ev":"trace_end","t_ms":0.3}' > "$HOSTILE_DIR/wrapping-counts.jsonl"
for args in "obs-check --manifest $HOSTILE_DIR/deep.json" \
    "obs-check --trace $HOSTILE_DIR/wrapping-counts.jsonl" \
    "grade poly --patterns 240 --resume $HOSTILE_DIR/huge-length.journal"; do
    rc=0
    # shellcheck disable=SC2086 # split the argument string on purpose
    "$SFR" $args > /dev/null 2> "$HOSTILE_DIR/err" || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "   ERROR: sfr $args exited $rc: $(cat "$HOSTILE_DIR/err")"
        exit 1
    fi
    echo "   sfr ${args%% *}: $(sed 's/^error: //' "$HOSTILE_DIR/err")"
done
rm -rf "$HOSTILE_DIR"

echo "== journals keep their bytes (poly, threads 1/2/8, against the committed fixture) =="
JOURNAL_DIR="$(mktemp -d)"
JOURNAL_FIXTURE=tests/fixtures/poly-240.journal
for t in 1 2 8; do
    "$SFR" grade poly --patterns 240 --threads "$t" \
        --checkpoint "$JOURNAL_DIR/poly-$t.journal" > /dev/null 2>&1
    if [ "$t" -eq 1 ]; then
        cmp "$JOURNAL_FIXTURE" "$JOURNAL_DIR/poly-$t.journal"
    else
        # Workers journal packs as they complete, so completion order
        # decides record order; the records themselves must not change.
        diff <(sort "$JOURNAL_FIXTURE") <(sort "$JOURNAL_DIR/poly-$t.journal")
    fi
done
rm -rf "$JOURNAL_DIR"
echo "   1 thread reproduces $JOURNAL_FIXTURE byte for byte; 2 and 8 threads line for line after sorting"

echo "== a journal cut mid-append resumes to the fixture =="
CUT_DIR="$(mktemp -d)"
"$SFR" grade poly --patterns 240 > "$CUT_DIR/fresh.out" 2>/dev/null
fixture_len=$(wc -c < "$JOURNAL_FIXTURE")
last_line_len=$(tail -n 1 "$JOURNAL_FIXTURE" | wc -c)
# What a kill mid-append can leave: (a) the last record cut 200 bytes
# before the end; (b) the last record without its newline; (c) the
# record before it without its newline. Resuming must repair the file
# before appending, so the new record does not glue onto that line.
head -c $((fixture_len - 200)) "$JOURNAL_FIXTURE" > "$CUT_DIR/a.journal"
head -c $((fixture_len - 1)) "$JOURNAL_FIXTURE" > "$CUT_DIR/b.journal"
head -c $((fixture_len - last_line_len - 1)) "$JOURNAL_FIXTURE" > "$CUT_DIR/c.journal"
for cut in a b c; do
    "$SFR" grade poly --patterns 240 --resume "$CUT_DIR/$cut.journal" \
        > "$CUT_DIR/$cut.out" 2>/dev/null
    diff "$CUT_DIR/fresh.out" "$CUT_DIR/$cut.out"
    cmp "$JOURNAL_FIXTURE" "$CUT_DIR/$cut.journal"
done
rm -rf "$CUT_DIR"
echo "   each cut resumes to the fresh run's table and leaves $JOURNAL_FIXTURE's bytes"

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

echo "== observability equivalence (diffeq: trace + metrics + manifest; table2: trace + metrics) =="
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
# The table binaries open the same sinks through the same type; their
# artifacts must validate too, and leave stdout unchanged.
target/release/table2 > "$OBS_DIR/table2-plain.out" 2>/dev/null
target/release/table2 --trace-out "$OBS_DIR/table2-trace.jsonl" \
    --metrics-out "$OBS_DIR/table2-metrics.prom" --quiet \
    > "$OBS_DIR/table2-observed.out" 2>/dev/null
diff "$OBS_DIR/table2-plain.out" "$OBS_DIR/table2-observed.out"
"$SFR" obs-check --trace "$OBS_DIR/table2-trace.jsonl" \
    --metrics "$OBS_DIR/table2-metrics.prom" | sed 's/^/   /'
echo "   table2's trace and metrics validate; its table is byte-identical to the unobserved run"
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

echo "== sfr analyze predicts the pruned, collapsed campaign (one plan) =="
PLAN_DIR="$(mktemp -d)"
for bench in diffeq facet poly fir; do
    "$SFR" analyze "$bench" --format json > "$PLAN_DIR/$bench.json" 2>/dev/null
    predicted=$(sed -n 's/.*"combined": *\([0-9]*\).*/\1/p' "$PLAN_DIR/$bench.json")
    "$SFR" grade "$bench" --patterns 240 --static-prune --collapse \
        --metrics-out "$PLAN_DIR/$bench.prom" --quiet > /dev/null 2>&1
    simulated=$(sed -n 's/^sfr_faults_simulated_total \([0-9]*\)$/\1/p' "$PLAN_DIR/$bench.prom")
    if [ -z "$predicted" ] || [ "$predicted" != "$simulated" ]; then
        echo "   ERROR: $bench: sfr analyze predicts ${predicted:-?} simulated faults," \
            "the campaign simulated ${simulated:-?}"
        exit 1
    fi
    echo "   $bench: the campaign simulated $simulated faults, as sfr analyze predicts"
done
rm -rf "$PLAN_DIR"

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
