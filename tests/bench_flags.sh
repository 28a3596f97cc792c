#!/usr/bin/env bash
# The driver's flag contract for every bench and example: --help prints
# the usage to stdout and exits 0, and a bad flag or argument is one
# `hpcarbon: ...` line on stderr with exit 1 and nothing on stdout, never
# an uncaught-exception abort (134), a half-printed report or a run that
# ignores it. A missing or unreadable input file (a directory) fails the
# same way. An invalid HPCARBON_THREADS reads as unset.
#
# Usage: tests/bench_flags.sh path/to/hpcarbon
set -uo pipefail
hpcarbon="$1"

fail() {
  echo "bench_flags: $*" >&2
  exit 1
}

# expect_error "<stderr>" args...: `hpcarbon args...` exits 1 with exactly
# that stderr and an empty stdout.
expect_error() {
  local want="$1" out err rc=0
  shift
  err="$(mktemp)"
  out="$("$hpcarbon" "$@" 2>"$err")" || rc=$?
  local got
  got="$(cat "$err")"
  rm -f "$err"
  [[ $rc -eq 1 ]] || fail "$* exited $rc, want 1"
  [[ "$got" == "$want" ]] || fail "$*: stderr '$got', want '$want'"
  [[ -z "$out" ]] || fail "$*: printed '$out' to stdout, want nothing"
}

expect_error "hpcarbon: --conns expects an integer in [1, 1048576], got 'abc'" \
  bench netload --conns abc
expect_error "hpcarbon: --conns expects an integer in [1, 1048576], got '-1'" \
  bench netload --conns -1
expect_error "hpcarbon: --rate expects a number in (0, 1000000], got 'nan'" \
  bench netload --rate nan
expect_error "hpcarbon: unknown bench fleetsim flag '--bogus' (see \`hpcarbon bench fleetsim --help\`)" \
  bench fleetsim --bogus
expect_error "hpcarbon: --label needs a value" bench fleetsim --label

# A missing input file, or an output file that cannot be created, is the
# same one-line error.
expect_error "hpcarbon: cannot open file: /nonexistent.jsonl" \
  batch /nonexistent.jsonl
expect_error "hpcarbon: cannot open file: /nonexistent.csv" \
  fleetsim --jobs-csv /nonexistent.csv
expect_error "hpcarbon: cannot open file for writing: /nonexistent/out.jsonl" \
  batch /dev/null --out /nonexistent/out.jsonl
# A directory opens like a file and fails on its first read: the same
# one-line error, not an empty input.
input_dir="$(mktemp -d)"
trap 'rmdir "$input_dir"' EXIT
expect_error "hpcarbon: cannot read file: $input_dir" batch "$input_dir"
expect_error "hpcarbon: cannot read file: $input_dir" \
  fleetsim --jobs-csv "$input_dir"

help="$("$hpcarbon" bench netload --help)" || fail "bench netload --help exited $?"
for flag in --json --out --label --smoke --conns --depth --rate --help; do
  grep -q -- "$flag " <<<"$help" || fail "bench netload --help lacks $flag"
done

# The examples that read arguments fail through the same error path.
expect_error "hpcarbon: unknown region code 'NOPE' (known: KN, TK, ESO, CISO, PJM, MISO, ERCOT)" \
  example region-explorer NOPE
expect_error "hpcarbon: ci_g_per_kwh expects a number in (0, inf), got 'abc'" \
  example upgrade-advisor V100 A100 abc
expect_error "hpcarbon: usage expects a number in (0, 1], got 'nan'" \
  example upgrade-advisor V100 A100 200 nan
expect_error "hpcarbon: years expects a number in (0, inf), got '0'" \
  example upgrade-advisor V100 A100 200 0.4 0
expect_error "hpcarbon: years expects a number in (0, inf), got '-3'" \
  example upgrade-advisor V100 A100 200 0.4 -3
# Positionals go through the option table: --help is the help, and one
# past the last is an error.
expect_error "hpcarbon: unexpected example region-explorer argument 'CISO' (see \`hpcarbon example region-explorer --help\`)" \
  example region-explorer ESO CISO
expect_error "hpcarbon: unexpected example upgrade-advisor argument '1' (see \`hpcarbon example upgrade-advisor --help\`)" \
  example upgrade-advisor V100 A100 200 0.4 4 1
expect_error "hpcarbon: unknown node generation: H100 (expected P100, V100, or A100)" \
  example upgrade-advisor V100 H100

# Every tool `hpcarbon list` prints reads its arguments through an option
# table, so a stray flag fails and --help prints a usage line.
mapfile -t tools < <("$hpcarbon" list |
  sed -nE 's/^\| (bench|example) +\| ([^ |]+) +\|.*$/\1 \2/p')
printf '%s\n' "${tools[@]}" | grep -q '^bench fig1$' ||
  fail "hpcarbon list printed no bench fig1 row"
printf '%s\n' "${tools[@]}" | grep -q '^example quickstart$' ||
  fail "hpcarbon list printed no example quickstart row"
for tool in "${tools[@]}"; do
  read -r kind name <<<"$tool"
  expect_error "hpcarbon: unknown $kind $name flag '--bogus' (see \`hpcarbon $kind $name --help\`)" \
    "$kind" "$name" --bogus
  usage="$("$hpcarbon" "$kind" "$name" --help </dev/null)" ||
    fail "$kind $name --help exited $?"
  grep -q "^usage: hpcarbon $kind $name" <<<"$usage" ||
    fail "$kind $name --help printed no usage line"
done

# HPCARBON_THREADS takes --threads' bound; anything else reads as unset.
# `list` reports the count without starting a pool.
workers() {
  HPCARBON_THREADS="$1" "$hpcarbon" list | sed -n 's/^worker threads: //p'
}
unset_count="$(env -u HPCARBON_THREADS "$hpcarbon" list |
  sed -n 's/^worker threads: //p')"
[[ -n "$unset_count" ]] || fail "list printed no worker thread count"
[[ "$(workers 4096)" == 4096 ]] || fail "HPCARBON_THREADS=4096 not honoured"
# 3x and 5x: no machine's default equals both of the counts a prefix read
# would give.
for bad in 3x 5x 4097 99999999999 0 -1 "" " 4" 2.5; do
  got="$(workers "$bad")"
  [[ "$got" == "$unset_count" ]] ||
    fail "HPCARBON_THREADS='$bad' gave $got worker threads, want $unset_count (unset)"
done
echo "bench_flags OK"
