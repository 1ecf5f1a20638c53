#!/usr/bin/env bash
# Full verification sweep: lints, configure, build, unit tests, a sanitizer
# pass over the whole test suite, then all benches.
#
# Usage: scripts/check.sh [build-dir]
#
# Environment knobs:
#   DWQA_SANITIZE       sanitizer list for the sanitizer pass
#                       (default "address,undefined"; "" skips the pass;
#                       "thread" runs the TSan flavour CI uses for the
#                       threads-labeled suite)
#   DWQA_SKIP_BENCHES=1 skip the bench sweep
#   DWQA_JOBS           bound build/test parallelism (default: unbounded -j,
#                       which OOMs small CI runners)
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZE="${DWQA_SANITIZE-address,undefined}"

GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)

JOBS=(-j)
[ -n "${DWQA_JOBS:-}" ] && JOBS=(-j "$DWQA_JOBS")

# Grep lints (shared with the CI lint job).
"$ROOT/scripts/lint.sh"

cmake -B "$ROOT/$BUILD_DIR" "${GENERATOR[@]}" -S "$ROOT"
cmake --build "$ROOT/$BUILD_DIR" "${JOBS[@]}"
ctest --test-dir "$ROOT/$BUILD_DIR" --output-on-failure

# Perf smoke: the fig3 phase study (--smoke) plus one repetition of each
# microbench, all merging into one bench-JSON artifact. Fails when a bench
# breaks, when the JSON reporter breaks, or when the indexation-time
# analysis stops paying for itself (fig3's ≥2x speedup shape check).
echo
echo "##### perf smoke (ctest -L perf) → $BUILD_DIR/BENCH_phase3.json #####"
DWQA_BENCH_JSON="$ROOT/$BUILD_DIR/BENCH_phase3.json" \
  ctest --test-dir "$ROOT/$BUILD_DIR" -L perf --output-on-failure

# The perf-regression gate CI runs, locally: gated benches (view reads,
# maintenance cost, cold replay) must stay within 2x of the committed
# baseline. Regenerate with `scripts/bench_compare.py ... --update` after
# an intentional perf change and commit the new bench/baseline.json.
python3 "$ROOT/scripts/bench_compare.py" \
  --current "$ROOT/$BUILD_DIR/BENCH_phase3.json" \
  --baseline "$ROOT/bench/baseline.json" \
  --report "$ROOT/$BUILD_DIR/bench_diff.md"

if [ -n "$SANITIZE" ]; then
  SAN_DIR="${BUILD_DIR}-san"
  echo
  echo "##### sanitizer pass (-fsanitize=$SANITIZE) #####"
  cmake -B "$ROOT/$SAN_DIR" "${GENERATOR[@]}" -S "$ROOT" \
    -DDWQA_SANITIZE="$SANITIZE" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$ROOT/$SAN_DIR" "${JOBS[@]}"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir "$ROOT/$SAN_DIR" --output-on-failure

  # The fault-injection suite once more, alone and loudly: the chaos label
  # is the contract that these tests exist and run sanitized. The exit
  # status is propagated explicitly — `set -e` does not survive callers
  # that pipe this script (only the last pipeline member's status counts),
  # so a swallowed chaos failure here once faked a green sweep.
  echo
  echo "##### chaos suite under sanitizers (ctest -L chaos) #####"
  if ! ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
       UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
       ctest --test-dir "$ROOT/$SAN_DIR" -L chaos --output-on-failure; then
    echo "check.sh: chaos suite FAILED under -fsanitize=$SANITIZE" >&2
    exit 1
  fi

  # The serving layer once more under the sanitizers, same contract as the
  # chaos label: the suite must exist, and admission/cache/drain must be
  # clean under -fsanitize, not just in the plain build.
  echo
  echo "##### serving suite under sanitizers (ctest -L serve) #####"
  if ! ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
       UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
       ctest --test-dir "$ROOT/$SAN_DIR" -L serve --output-on-failure; then
    echo "check.sh: serving suite FAILED under -fsanitize=$SANITIZE" >&2
    exit 1
  fi

  # The durability layer once more under the sanitizers: the WAL parser,
  # the recovery replay and above all the crash-point sweep (every mutating
  # fs op × {stop, torn-write}) must be clean under -fsanitize — torn and
  # bit-flipped inputs are exactly where parsers walk off buffers.
  echo
  echo "##### durability suite under sanitizers (ctest -L durability) #####"
  if ! ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
       UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
       ctest --test-dir "$ROOT/$SAN_DIR" -L durability --output-on-failure; then
    echo "check.sh: durability suite FAILED under -fsanitize=$SANITIZE" >&2
    exit 1
  fi

  # The segmented-index suite once more under the sanitizers: delta+varint
  # decoding, block skipping and the merge/query races are exactly where
  # an off-by-one walks off a postings buffer.
  echo
  echo "##### segmented-index suite under sanitizers (ctest -L index) #####"
  if ! ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
       UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
       ctest --test-dir "$ROOT/$SAN_DIR" -L index --output-on-failure; then
    echo "check.sh: segmented-index suite FAILED under -fsanitize=$SANITIZE" >&2
    exit 1
  fi

  # The materialized-view suite once more under the sanitizers: delta
  # maintenance mutating shared AggStates under the catalog lock, the
  # chaos-fed equivalence sweep and the crash-point view-recovery sweep
  # must be clean under -fsanitize, not just byte-identical.
  echo
  echo "##### materialized-view suite under sanitizers (ctest -L views) #####"
  if ! ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
       UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
       ctest --test-dir "$ROOT/$SAN_DIR" -L views --output-on-failure; then
    echo "check.sh: materialized-view suite FAILED under -fsanitize=$SANITIZE" >&2
    exit 1
  fi

  # The federation suite once more under the sanitizers: cross-warehouse
  # merges reassociate shared AggStates, the fan-out path runs sub-queries
  # on pool threads, and the chaos-degraded coverage paths are exactly
  # where a partial result could read a dead partial aggregate.
  echo
  echo "##### federation suite under sanitizers (ctest -L federation) #####"
  if ! ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
       UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
       ctest --test-dir "$ROOT/$SAN_DIR" -L federation --output-on-failure; then
    echo "check.sh: federation suite FAILED under -fsanitize=$SANITIZE" >&2
    exit 1
  fi
fi

if [ "${DWQA_SKIP_BENCHES:-0}" != 1 ]; then
  for bench in "$ROOT/$BUILD_DIR"/bench/*; do
    [ -x "$bench" ] || continue
    echo
    echo "##### $(basename "$bench")"
    "$bench"
  done
fi

# src/ size per top-level module (*.h + *.cc lines), so every change's net
# line count is visible next to its test and bench results.
echo
echo "##### src/ lines per module"
total=0
for module in "$ROOT"/src/*/; do
  lines=$(find "$module" \( -name '*.h' -o -name '*.cc' \) -print0 \
            | xargs -0 cat | wc -l)
  total=$((total + lines))
  printf '%-14s %6d\n' "$(basename "$module")" "$lines"
done
printf '%-14s %6d\n' "total" "$total"
