#!/usr/bin/env bash
# hpcarbon lint gate — seven checks, one exit code:
#
#   1. Determinism lint (grep): the batch==serve byte-identity contract
#      depends on every random draw flowing through src/core/rng
#      substreams. Any `rand(`, `srand(`, `time(nullptr)`, or
#      `std::random_device` outside src/core/rng is rejected.
#   2. Naked-mutex lint (grep): every mutex-guarded invariant must be
#      provable by clang's -Wthread-safety analysis, so `std::mutex`
#      (and friends) may appear only under src/core/ — everywhere else
#      use hpcarbon::AnnotatedMutex + MutexLock from
#      core/thread_annotations.h.
#   3. Naked-counter lint (grep): operational counters in src/serve and
#      src/net must be obs::MetricsRegistry instruments (named, striped,
#      scrapable) — a raw 64-bit std::atomic counter there is invisible
#      to {"op":"metrics"} and the Prometheus scrape, so it is rejected.
#   4. Allocation lint (grep): the serve hot path and the JSON core are
#      allocation-disciplined (arena/pooled nodes, reusable buffers) —
#      raw `malloc`/`calloc`/`realloc` and array `new[...]` in src/serve
#      or src/core/json.* are diffed against tools/alloc_baseline.txt,
#      so only NEW raw allocations fail (same ratchet as clang-tidy).
#   5. Argv-scan lint (grep): every command parses its flags through the
#      one option table in src/core/options.* — an `argv[++i]` or an
#      `arg == "--...` comparison anywhere else in src/, bench/ or
#      examples/ is a second, hand-rolled parser, so it is rejected, and
#      so is std::atof/atoi/atol, which reads `abc` as 0. In bench/ and
#      examples/ any `argv[` read is rejected: a tool hands its argv to
#      its options::Table (positionals included) or takes no arguments.
#   6. Input-error lint (grep): src/core/csv.cpp and src/grid/import.cpp
#      read only outside input (CSV text, trace files), so every check
#      there throws a plain hpcarbon::Error whose message is the whole
#      answer. HPC_REQUIRE would prefix the source path, line and failed
#      expression, and a serve client would read them, so it is rejected
#      in those files.
#   7. clang-tidy (see .clang-tidy for the curated check set), diffed
#      against tools/lint_baseline.txt: only NEW (file, check) pairs
#      fail, so the gate ratchets without demanding a big-bang cleanup.
#      Skipped with a notice when clang-tidy is not installed (the
#      clang-tidy CI job pins a version and always runs it).
#
# Usage:
#   tools/lint.sh                  # everything (tidy needs a configured
#                                  # build dir with compile_commands.json;
#                                  # default ./build, or --build-dir DIR)
#   tools/lint.sh --scripts-only   # greps only (no clang-tidy) — this is
#                                  # what the `lint_scripts` ctest runs
#   tools/lint.sh --tidy-only      # clang-tidy only
#   tools/lint.sh --update-baseline  # rewrite tools/lint_baseline.txt
#                                  # with the current findings
#   tools/lint.sh --self-test      # negative test: seed a violation and
#                                  # verify the greps reject it
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
BASELINE="$ROOT/tools/lint_baseline.txt"

MODE=all
UPDATE_BASELINE=0
SELF_TEST=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --scripts-only) MODE=scripts ;;
    --tidy-only) MODE=tidy ;;
    --update-baseline) UPDATE_BASELINE=1; MODE=tidy ;;
    --self-test) SELF_TEST=1 ;;
    --build-dir) BUILD_DIR="$2"; shift ;;
    -h|--help) sed -n '2,51p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "lint.sh: unknown flag '$1' (see --help)" >&2; exit 2 ;;
  esac
  shift
done

# --- 1. determinism lint ----------------------------------------------------

determinism_lint() {
  local matches
  matches="$(grep -rnE --include='*.h' --include='*.cpp' \
    '(^|[^[:alnum:]_])(rand|srand)[[:space:]]*\(|(^|[^[:alnum:]_])time[[:space:]]*\([[:space:]]*(nullptr|NULL)[[:space:]]*\)|std::random_device' \
    "$ROOT/src" | grep -v "^$ROOT/src/core/rng" || true)"
  if [[ -n "$matches" ]]; then
    echo "determinism lint FAILED — nondeterministic seeds/clocks outside src/core/rng:" >&2
    echo "$matches" >&2
    echo "(route randomness through hpcarbon::Rng / mc::substream so batch and serve answers stay bit-identical)" >&2
    return 1
  fi
  echo "determinism lint OK"
}

# --- 2. naked-mutex lint ----------------------------------------------------

mutex_lint() {
  local matches
  matches="$(grep -rnE --include='*.h' --include='*.cpp' \
    'std::(recursive_|timed_|recursive_timed_|shared_)?mutex' \
    "$ROOT/src" | grep -v "^$ROOT/src/core/" || true)"
  if [[ -n "$matches" ]]; then
    echo "naked-mutex lint FAILED — std::mutex outside src/core/:" >&2
    echo "$matches" >&2
    echo "(use hpcarbon::AnnotatedMutex + MutexLock from core/thread_annotations.h and HPCARBON_GUARDED_BY the state, so clang -Wthread-safety can prove the lock discipline)" >&2
    return 1
  fi
  echo "naked-mutex lint OK"
}

# --- 3. naked-counter lint --------------------------------------------------

# Operational counters in the serving stack must live in the obs
# MetricsRegistry (src/obs/metrics.h): named, striped, and visible to
# {"op":"metrics"} / the Prometheus scrape. A raw 64-bit std::atomic in
# src/serve or src/net is an invisible counter — rejected. Narrow atomics
# (flags, generation counters like atomic<bool>/atomic<uint32_t>) are
# control-flow state, not metrics, and stay allowed.
counter_lint() {
  local matches
  matches="$(grep -rnE --include='*.h' --include='*.cpp' \
    'std::atomic<[[:space:]]*((std::)?u?int64_t|(std::)?size_t|unsigned long( long)?|long long)[[:space:]]*>' \
    "$ROOT/src/serve" "$ROOT/src/net" || true)"
  if [[ -n "$matches" ]]; then
    echo "naked-counter lint FAILED — raw 64-bit std::atomic counters in src/serve or src/net:" >&2
    echo "$matches" >&2
    echo "(register an obs::Counter/Gauge/Histogram in the MetricsRegistry instead — src/obs/metrics.h — so the count is named, scrapable, and striped)" >&2
    return 1
  fi
  echo "naked-counter lint OK"
}

# --- 4. allocation lint (hot-path ratchet) ----------------------------------

ALLOC_BASELINE="$ROOT/tools/alloc_baseline.txt"

# The allocation-disciplined surfaces: request/response hot path and the
# JSON core it leans on.
alloc_lint_paths() {
  echo "$ROOT/src/serve"
  echo "$ROOT/src/core/json.h"
  echo "$ROOT/src/core/json.cpp"
}

# Normalized "<relative file> [<pattern>]" finding IDs, sorted and unique
# (line numbers churn with every edit and would break the ratchet).
alloc_findings() {
  {
    grep -rnE --include='*.h' --include='*.cpp' \
      '(^|[^[:alnum:]_])(malloc|calloc|realloc)[[:space:]]*\(' \
      $(alloc_lint_paths) 2>/dev/null | \
      sed -E "s|^$ROOT/||" | sed -E 's|^([^:]+):.*$|\1 [raw-alloc]|' || true
    grep -rnE --include='*.h' --include='*.cpp' \
      '(^|[^[:alnum:]_])new[[:space:]]+[A-Za-z_][A-Za-z0-9_:<>, ]*\[' \
      $(alloc_lint_paths) 2>/dev/null | \
      sed -E "s|^$ROOT/||" | sed -E 's|^([^:]+):.*$|\1 [new-array]|' || true
  } | sort -u
}

alloc_lint() {
  local current known new
  current="$(mktemp)"
  known="$(mktemp)"
  alloc_findings >"$current"
  grep -vE '^\s*(#|$)' "$ALLOC_BASELINE" 2>/dev/null | sort -u >"$known" || true
  new="$(comm -23 "$current" "$known")"
  if [[ -n "$new" ]]; then
    echo "allocation lint FAILED — new raw allocations in the serve/json hot path:" >&2
    echo "$new" >&2
    echo "(src/serve and src/core/json.* stay arena/buffer-disciplined; use the pooled parser, dump_to buffers, or std::vector — or grandfather deliberately in tools/alloc_baseline.txt)" >&2
    rm -f "$current" "$known"
    return 1
  fi
  echo "allocation lint OK ($(wc -l <"$current") finding(s), all baselined)"
  rm -f "$current" "$known"
}

# --- 5. argv-scan lint -------------------------------------------------------

argv_lint() {
  local matches
  matches="$({ grep -rnE --include='*.h' --include='*.cpp' \
    'argv\[\+\+i\]|arg == "--|std::ato(f|i|ll?)[[:space:]]*\(' \
    "$ROOT/src" "$ROOT/bench" "$ROOT/examples" | \
    grep -v "^$ROOT/src/core/options\."
    grep -rnE --include='*.h' --include='*.cpp' 'argv\[' \
    "$ROOT/bench" "$ROOT/examples"; } || true)"
  if [[ -n "$matches" ]]; then
    echo "argv-scan lint FAILED — hand-rolled flag or number parsing outside src/core/options.*:" >&2
    echo "$matches" >&2
    echo "(declare the flag in the command's options::Table instead — src/core/options.h — so it parses, errors and renders its usage like every other flag; take positionals through Table::positional and read a positional number with options::parse_number)" >&2
    return 1
  fi
  echo "argv-scan lint OK"
}

# --- 6. input-error lint ----------------------------------------------------

# The sources that read only outside input, relative to the repo root.
INPUT_READERS=(src/core/csv.cpp src/grid/import.cpp)

# input_error_lint [ROOT]: the rule on ROOT's copies of INPUT_READERS
# (default: this repo).
input_error_lint() {
  local root="${1:-$ROOT}" matches
  matches="$(cd "$root" && grep -nH 'HPC_REQUIRE' "${INPUT_READERS[@]}" || true)"
  if [[ -n "$matches" ]]; then
    echo "input-error lint FAILED — HPC_REQUIRE in a file that reads only outside input:" >&2
    echo "$matches" >&2
    echo "(throw hpcarbon::Error with the message alone: HPC_REQUIRE prefixes the source path, line and expression, which a serve client would read)" >&2
    return 1
  fi
  echo "input-error lint OK"
}

# --- negative self-test -----------------------------------------------------

self_test() {
  local seeded="$ROOT/src/lint_selftest_seeded_violation.cpp"
  local seeded_alloc="$ROOT/src/serve/lint_selftest_seeded_violation.cpp"
  local seeded_counter="$ROOT/src/net/lint_selftest_seeded_violation.cpp"
  # Headers, so the bench/examples globs of the driver build never see them.
  local seeded_atof="$ROOT/examples/lint_selftest_seeded_violation.h"
  local seeded_argv="$ROOT/bench/lint_selftest_seeded_violation.h"
  trap 'rm -f "$seeded" "$seeded_alloc" "$seeded_counter" "$seeded_atof" "$seeded_argv"' RETURN
  cat > "$seeded" <<'EOF'
// Transient file written by tools/lint.sh --self-test; never compiled.
#include <ctime>
#include <mutex>
static std::mutex selftest_naked_mutex;
long selftest_clock() { return static_cast<long>(time(nullptr)); }
int selftest_flag(int argc, char** argv, int i, const char* arg) {
  return i + 1 < argc && arg == "--bogus" && argv[++i] != nullptr;
}
EOF
  cat > "$seeded_alloc" <<'EOF'
// Transient file written by tools/lint.sh --self-test; never compiled.
#include <cstdlib>
void* selftest_raw_alloc() { return malloc(64); }
char* selftest_array_new() { return new char[64]; }
EOF
  cat > "$seeded_counter" <<'EOF'
// Transient file written by tools/lint.sh --self-test; never compiled.
#include <atomic>
#include <cstdint>
static std::atomic<std::uint64_t> selftest_naked_counter{0};
EOF
  if determinism_lint >/dev/null 2>&1; then
    echo "lint self-test FAILED: determinism lint accepted a seeded time(nullptr)" >&2
    return 1
  fi
  if mutex_lint >/dev/null 2>&1; then
    echo "lint self-test FAILED: mutex lint accepted a seeded naked std::mutex" >&2
    return 1
  fi
  if alloc_lint >/dev/null 2>&1; then
    echo "lint self-test FAILED: allocation lint accepted seeded malloc/new[] in src/serve" >&2
    return 1
  fi
  if counter_lint >/dev/null 2>&1; then
    echo "lint self-test FAILED: counter lint accepted a seeded std::atomic<uint64_t> in src/net" >&2
    return 1
  fi
  if argv_lint >/dev/null 2>&1; then
    echo "lint self-test FAILED: argv-scan lint accepted a seeded argv[++i] in src/" >&2
    return 1
  fi
  # The number rule on its own, in examples/: nothing else is seeded.
  rm -f "$seeded" "$seeded_alloc" "$seeded_counter"
  cat > "$seeded_atof" <<'EOF'
// Transient file written by tools/lint.sh --self-test; never compiled.
#include <cstdlib>
inline double selftest_ci(const char* arg) { return std::atof(arg); }
EOF
  if argv_lint >/dev/null 2>&1; then
    echo "lint self-test FAILED: argv-scan lint accepted a seeded std::atof in examples/" >&2
    return 1
  fi
  # A direct argv read on its own, in bench/.
  rm -f "$seeded_atof"
  cat > "$seeded_argv" <<'EOF'
// Transient file written by tools/lint.sh --self-test; never compiled.
inline const char* selftest_region(int argc, char** argv) {
  return argc > 1 ? argv[1] : "ESO";
}
EOF
  if argv_lint >/dev/null 2>&1; then
    echo "lint self-test FAILED: argv-scan lint accepted a seeded argv[1] read in bench/" >&2
    return 1
  fi
  rm -f "$seeded_argv"
  # An HPC_REQUIRE in a copy of the input readers, outside the tree.
  local seeded_root
  seeded_root="$(mktemp -d)"
  local f
  for f in "${INPUT_READERS[@]}"; do
    mkdir -p "$seeded_root/$(dirname "$f")"
    cp "$ROOT/$f" "$seeded_root/$f"
  done
  if ! input_error_lint "$seeded_root" >/dev/null 2>&1; then
    rm -rf "$seeded_root"
    echo "lint self-test FAILED: input-error lint rejected the unseeded input readers" >&2
    return 1
  fi
  printf '%s\n' 'void selftest_row(bool ok) { HPC_REQUIRE(ok, "seeded"); }' \
    >>"$seeded_root/src/grid/import.cpp"
  if input_error_lint "$seeded_root" >/dev/null 2>&1; then
    rm -rf "$seeded_root"
    echo "lint self-test FAILED: input-error lint accepted a seeded HPC_REQUIRE in src/grid/import.cpp" >&2
    return 1
  fi
  rm -rf "$seeded_root"
  echo "lint self-test OK — the gate rejects seeded violations"
}

# --- 7. clang-tidy vs baseline ----------------------------------------------

find_clang_tidy() {
  if [[ -n "${CLANG_TIDY:-}" ]]; then
    command -v "$CLANG_TIDY" || true
    return
  fi
  local c
  for c in clang-tidy clang-tidy-21 clang-tidy-20 clang-tidy-19 \
           clang-tidy-18 clang-tidy-17 clang-tidy-16 clang-tidy-15 \
           clang-tidy-14; do
    if command -v "$c" >/dev/null 2>&1; then
      command -v "$c"
      return
    fi
  done
}

tidy_lint() {
  local tidy
  tidy="$(find_clang_tidy)"
  if [[ -z "$tidy" ]]; then
    if [[ "$MODE" == tidy ]]; then
      echo "clang-tidy lint FAILED: no clang-tidy binary found (set CLANG_TIDY=...)" >&2
      return 1
    fi
    echo "clang-tidy lint SKIPPED: clang-tidy not installed (the clang-tidy CI job runs it)"
    return 0
  fi
  if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
    echo "clang-tidy lint FAILED: $BUILD_DIR/compile_commands.json missing — configure first (cmake -B build -S . exports it automatically)" >&2
    return 1
  fi

  local raw
  raw="$(mktemp)"
  # xargs fan-out; clang-tidy's exit status is ignored — the gate is the
  # baseline diff below, not the tool's own (version-dependent) rc.
  find "$ROOT/src" -name '*.cpp' -print0 | sort -z | \
    xargs -0 -P "$(nproc)" -n 4 "$tidy" -p "$BUILD_DIR" -quiet \
    >"$raw" 2>/dev/null || true

  # Normalize findings to stable "<relative file> [<check>]" identifiers:
  # line/column numbers churn with every edit and would make the baseline
  # useless as a ratchet.
  local current
  current="$(mktemp)"
  grep -E '^[^ ]+:[0-9]+:[0-9]+: warning: .*\[[A-Za-z0-9.,-]+\]$' "$raw" | \
    sed -E "s|^$ROOT/||" | \
    sed -E 's|^([^:]+):[0-9]+:[0-9]+: warning: .*\[([A-Za-z0-9.,-]+)\]$|\1 [\2]|' | \
    sort -u >"$current"

  if [[ "$UPDATE_BASELINE" -eq 1 ]]; then
    {
      echo "# clang-tidy baseline — grandfathered findings, one '<file> [<check>]' per line."
      echo "# tools/lint.sh fails only on findings NOT listed here; shrink it over time,"
      echo "# regenerate with: tools/lint.sh --update-baseline"
      cat "$current"
    } >"$BASELINE"
    echo "clang-tidy baseline updated: $(wc -l <"$current") finding(s) recorded"
    rm -f "$raw" "$current"
    return 0
  fi

  local known new
  known="$(mktemp)"
  grep -vE '^\s*(#|$)' "$BASELINE" | sort -u >"$known" || true
  new="$(comm -23 "$current" "$known")"
  if [[ -n "$new" ]]; then
    echo "clang-tidy lint FAILED — new findings not in tools/lint_baseline.txt:" >&2
    echo "$new" >&2
    echo "--- full diagnostics for the new findings ---" >&2
    while IFS= read -r id; do
      local f="${id%% \[*}" c="${id##*\[}"
      grep -F "${f}:" "$raw" | grep -F "[${c%]}]" >&2 || true
    done <<<"$new"
    echo "(fix them, or — for deliberate grandfathering only — run tools/lint.sh --update-baseline)" >&2
    rm -f "$raw" "$current" "$known"
    return 1
  fi
  echo "clang-tidy lint OK ($(wc -l <"$current") finding(s), all baselined; $($tidy --version | head -1))"
  rm -f "$raw" "$current" "$known"
}

# --- driver -----------------------------------------------------------------

if [[ "$SELF_TEST" -eq 1 ]]; then
  self_test
  exit 0
fi

rc=0
if [[ "$MODE" != tidy ]]; then
  determinism_lint || rc=1
  mutex_lint || rc=1
  counter_lint || rc=1
  alloc_lint || rc=1
  argv_lint || rc=1
  input_error_lint || rc=1
fi
if [[ "$MODE" != scripts ]]; then
  tidy_lint || rc=1
fi
exit $rc
