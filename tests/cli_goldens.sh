#!/usr/bin/env bash
# CLI outputs against goldens recorded by a build of the commit before the
# change each one guards; never regenerate one from the build under test.
# Timing columns and lines are cut before the diff.
#
# Usage: tests/cli_goldens.sh path/to/hpcarbon path/to/tests/data
set -uo pipefail
hpcarbon="$1"
data="$2"
status=0

# check <golden> <command...>: the command's stdout must equal the golden.
check() {
  local golden="$1"
  shift
  if ! "$@" | diff - "$data/$golden"; then
    echo "cli_goldens: $* differs from $golden" >&2
    status=1
  fi
}

# Deep queues: every policy on 9657 jobs over 192 nodes, minus the Mjobs/s
# column.
fleetsim_overload() {
  "$hpcarbon" fleetsim --capacity 64 --rate 200 --days 2 --threads 1 |
    sed -E 's/[^|]*\|$//'
}

# The policy table and the threshold sensitivity; the sweep's wall time and
# the interval-carbon timing section (from its title to its "speedup" line)
# are cut.
sched_ablation() {
  "$hpcarbon" bench sched-ablation --smoke | awk '
    /^policy sweep wall time / { next }
    /^== Interval-carbon queries/ { cut = 1 }
    cut { if (/^speedup /) cut = 0; next }
    { print }'
}

check fleetsim_overload_golden.txt fleetsim_overload
# The seed loops of run and sweep (fleetsim/ablation.h).
check run_uncertainty_golden.txt \
  "$hpcarbon" run TK ESO CISO ERCOT --days 3 --uncertainty 4 --threads 1
check sweep_sched_golden.txt \
  "$hpcarbon" sweep --smoke --section sched --threads 1
check sched_ablation_smoke_golden.txt sched_ablation
# Every example's whole stdout.
for example in quickstart region-explorer upgrade-advisor system-designer \
  green500-reranker carbon-aware-scheduling; do
  check "examples/$example.txt" "$hpcarbon" example "$example"
done
# The paper's figures and tables, one bench each. sensitivity draws its
# Monte-Carlo samples on the pool, so it must also read the same on one
# thread.
for bench in fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 tables table6 \
  sensitivity fleet forecast; do
  check "paper/$bench.txt" "$hpcarbon" bench "$bench"
done
check paper/sensitivity.txt env HPCARBON_THREADS=1 "$hpcarbon" bench sensitivity

[[ $status -eq 0 ]] && echo "cli_goldens OK"
exit $status
