#!/usr/bin/env bash
# Standalone bench binaries keep `hpcarbon`'s flag contract: --help prints
# the flags to stdout and exits 0, and a bad flag is one `hpcarbon: ...`
# line on stderr with exit 1, never an uncaught-exception abort (134).
#
# Usage: tests/bench_flags.sh path/to/bench_netload path/to/bench_fleetsim
set -uo pipefail
netload="$1"
fleetsim="$2"

fail() {
  echo "bench_flags: $*" >&2
  exit 1
}

# expect_error "<stderr>" cmd args...
expect_error() {
  local want="$1" err rc=0
  shift
  err="$("$@" 2>&1 >/dev/null)" || rc=$?
  [[ $rc -eq 1 ]] || fail "$* exited $rc, want 1"
  [[ "$err" == "$want" ]] || fail "$*: stderr '$err', want '$want'"
}

expect_error "hpcarbon: --conns expects an integer in [1, 1048576], got 'abc'" \
  "$netload" --conns abc
expect_error "hpcarbon: --conns expects an integer in [1, 1048576], got '-1'" \
  "$netload" --conns -1
expect_error "hpcarbon: --rate expects a number in (0, 1000000], got 'nan'" \
  "$netload" --rate nan
expect_error "hpcarbon: unknown bench fleetsim flag '--bogus' (see \`hpcarbon bench fleetsim --help\`)" \
  "$fleetsim" --bogus
expect_error "hpcarbon: --label needs a value" "$fleetsim" --label

help="$("$netload" --help)" || fail "bench_netload --help exited $?"
for flag in --json --out --label --smoke --conns --depth --rate --help; do
  grep -q -- "$flag " <<<"$help" || fail "bench_netload --help lacks $flag"
done
echo "bench_flags OK"
