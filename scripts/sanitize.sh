#!/usr/bin/env bash
# Sanitizer gate: builds the scenario loader, its tests, the shard-layer
# tests, the sim/cc/dyn tests and semclust_run under AddressSanitizer +
# UndefinedBehaviorSanitizer, runs scenario_test, util_test and
# sharding_test (which builds, migrates and runs N-shard models, so shard
# ownership is exercised end to end), runs sim_test, cc_test and dyn_test
# (pooled coroutine frames, recycled lock-table nodes and the flat DSTC
# tables all manage their own memory lifetimes), runs txlog_test (recycled
# page-set entries) and telemetry_test's PlacementAuditor cases (the
# configuration walk indexes flat arrays by object id and page id, and
# those cases drive it over hand-built components, the walk cap and churned
# OCB graphs), dry-runs every committed scenario, and feeds semclust_run
# inputs that used to crash or run silently wrong. Each of those must exit
# 2 with an InvalidArgument message.
#
#   ./scripts/sanitize.sh            # build tree: build-san/
#   BUILD=/tmp/san ./scripts/sanitize.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD:-${ROOT}/build-san}"

cmake -S "${ROOT}" -B "${BUILD}" -DCMAKE_BUILD_TYPE=Debug \
  -DSEMCLUST_SANITIZE="address|undefined"
cmake --build "${BUILD}" -j "$(nproc)" \
  --target scenario_test util_test sharding_test sim_test cc_test dyn_test \
  txlog_test telemetry_test semclust_run

export ASAN_OPTIONS="abort_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

"${BUILD}/tests/scenario_test"
"${BUILD}/tests/util_test"
"${BUILD}/tests/sharding_test"
"${BUILD}/tests/sim_test"
"${BUILD}/tests/cc_test"
"${BUILD}/tests/dyn_test"
"${BUILD}/tests/txlog_test"
"${BUILD}/tests/telemetry_test" --gtest_filter='PlacementAuditor*'

RUN="${BUILD}/tools/semclust_run"
for f in "${ROOT}"/bench/scenarios/*.scenario.json \
         "${ROOT}"/perfbench/workloads/*.scenario.json; do
  "${RUN}" --dry-run "${f}" > /dev/null
done
echo "sanitize: every committed scenario dry-runs clean"

# Defect inputs: 100 000 nested '[' (a stack overflow before the JSON
# depth cap), an exponent where an integer belongs (once ran one
# transaction), and a sweep whose 4-shard cells meet DSTC (once passed
# parsing and aborted in ServerContext).
BAD="${BUILD}/bad_inputs"
mkdir -p "${BAD}"
printf '%*s' 100000 '' | tr ' ' '[' > "${BAD}/deep.scenario.json"
echo '{"name": "x", "config": {"measured_transactions": 1e12}}' \
  > "${BAD}/exponent.scenario.json"
echo '{"name": "x", "sweep": {"shards": [1, 4],
  "clustering": [{"pool": "No_limit", "dynamic": "DSTC"}]}}' \
  > "${BAD}/shards_dstc.scenario.json"
for f in "${BAD}"/*.scenario.json; do
  rc=0
  "${RUN}" "${f}" > /dev/null 2> "${f}.err" || rc=$?
  if [ "${rc}" -ne 2 ] || ! grep -q "InvalidArgument" "${f}.err"; then
    echo "FAIL: ${f} exited ${rc}, expected 2 with a message:" >&2
    cat "${f}.err" >&2
    exit 1
  fi
  echo "sanitize: $(basename "${f}") rejected: $(cat "${f}.err")"
done
