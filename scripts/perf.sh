#!/usr/bin/env bash
# Reproducible perf-benchmark driver.
#
# Builds the bench/perf micro-benchmarks in Release mode and runs
# each one (its own warmup + repetition + median/min logic lives in
# bench/perf/perf_harness.hh), assembling the per-benchmark JSON
# lines into a machine-readable BENCH_perf.json in the repo root.
#
#   scripts/perf.sh               full run (7 reps, 2 warmup each)
#   scripts/perf.sh --smoke       quick advisory run for CI
#   scripts/perf.sh --reps 15     more repetitions for quieter medians
#
# Extra arguments are forwarded verbatim to every benchmark binary.
# The output file is overwritten on each run.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${BENCH_OUT:-BENCH_perf.json}"
BENCHES=(perf_pipeline perf_chip perf_interval perf_tracegen perf_gather
         perf_gather_warm perf_train perf_learned)

echo "perf: will run ${#BENCHES[@]} benchmarks: ${BENCHES[*]}" >&2

command -v python3 > /dev/null 2>&1 || {
    echo "perf: python3 is required to assemble $OUT" >&2
    exit 1
}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target "${BENCHES[@]}"

# A bench that configured but did not produce a binary (e.g. a
# CMakeLists edit that dropped it from the target list) must fail
# here, by name — not as a cryptic exec error mid-assembly.
missing=0
for bench in "${BENCHES[@]}"; do
    if [ ! -x "$BUILD_DIR/bench/perf/$bench" ]; then
        echo "perf: benchmark binary missing after build:" \
             "$BUILD_DIR/bench/perf/$bench" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1

# Each binary emits one JSON object per measurement per line (a
# binary may emit several — perf_interval reports the interval
# backend and its cycle-level reference, perf_tracegen adds the
# perf_tracegen_walk stream walk and its per-interval generate()
# reference).  Every line is validated
# as it arrives so a malformed measurement fails loudly, naming the
# benchmark and the offending line, instead of shipping a bad
# artifact.  The assembled file is written to a temp path and moved
# into place only once it validated end to end.
TMP_OUT="$(mktemp "${OUT}.XXXXXX")"
trap 'rm -f "$TMP_OUT"' EXIT

{
    echo '{'
    echo '  "benchmarks": ['
    first=1
    for bench in "${BENCHES[@]}"; do
        out="$("$BUILD_DIR/bench/perf/$bench" "$@")"
        [ -n "$out" ] || { echo "perf: $bench emitted nothing" >&2;
                           exit 1; }
        while IFS= read -r line; do
            [ -n "$line" ] || continue
            if ! printf '%s' "$line" |
                python3 -c 'import json,sys; json.load(sys.stdin)' \
                    2> /dev/null; then
                echo "perf: $bench emitted malformed JSON: $line" >&2
                exit 1
            fi
            if [ "$first" -eq 1 ]; then first=0; else echo ','; fi
            printf '    %s' "$line"
        done <<< "$out"
    done
    echo
    echo '  ]'
    echo '}'
} > "$TMP_OUT"

# Whole-document validation, then the atomic move into place.
python3 -m json.tool "$TMP_OUT" > /dev/null
mv "$TMP_OUT" "$OUT"
trap - EXIT

echo "perf: wrote $OUT"
