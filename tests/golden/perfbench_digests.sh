#!/bin/sh
# Prints the exact-count lines (digest and hooks) of every BENCHMARK.json
# workload run by a Release dws_perfbench in --smoke mode, untraced and
# traced, with perfbench/run.py's seed-1 seeds. These lines are independent
# of host speed, so a change that claims to leave records unchanged must
# leave this output unchanged:
#
#   tests/golden/perfbench_digests.sh BUILD/dws_perfbench |
#     diff -u tests/golden/perfbench_smoke_digests.txt -
#
# Regenerate the golden only for a change that is meant to move records:
#
#   tests/golden/perfbench_digests.sh BUILD/dws_perfbench \
#     > tests/golden/perfbench_smoke_digests.txt
set -eu
bin=$1
root=$(cd "$(dirname "$0")/../.." && pwd)
seeds=$(python3 -c "
import sys
sys.path.insert(0, '$root/perfbench')
import run
d = run.derive_seeds(1)
print(d['ws_seed'], d['fault_seed'], d['svc_seed'], d['tree_seed'])")
set -- $seeds
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for workload in ref_1n_512 tofu_half_8g_1024 svc_mixed_lossy; do
  for trace in 0 1; do
    echo "== $workload trace=$trace"
    "$bin" --workload "$workload" --ws-seed "$1" --fault-seed "$2" \
      --svc-seed "$3" --tree-seed "$4" --seconds 0.5 --trace "$trace" \
      --smoke > "$out" 2>/dev/null
    grep -E '^(digest|hooks) ' "$out" || true
  done
done
