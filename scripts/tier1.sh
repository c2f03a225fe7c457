#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrency-heavy
# net/core subset rebuilt and re-run under ThreadSanitizer (the tsan test
# preset selects that subset; see CMakePresets.json), the full suite under
# AddressSanitizer+UBSan, the DPS-specific lint pass, the dps_verify
# AST-level protocol/lock-order stage, and — when clang is installed — the
# Clang Thread Safety Analysis build (-Werror) and a clang-tidy sweep whose
# WarningsAsErrors subset is fatal. docs/STATIC_ANALYSIS.md describes each
# stage.
#
# Usage: scripts/tier1.sh            # everything
#        DPS_SKIP_TSAN=1 scripts/tier1.sh    # skip the TSan stage
#        DPS_SKIP_ASAN=1 scripts/tier1.sh    # skip the ASan+UBSan stage
#        DPS_SKIP_ANALYZE=1 scripts/tier1.sh # skip -Wthread-safety (clang)
#        DPS_SKIP_TIDY=1 scripts/tier1.sh    # skip clang-tidy
#        DPS_SKIP_VERIFY=1 scripts/tier1.sh  # skip the dps_verify AST stage
#        DPS_VERIFY_REQUIRE_LIBCLANG=1       # SKIP (not run) verify-ast when
#            the clang python bindings are missing, instead of running the
#            analyzer's built-in fallback frontend
#        DPS_BENCH_SMOKE=1 scripts/tier1.sh  # also run a reduced pass of
#            every bench binary with --json, concatenate the records into
#            BENCH_pr<N>.json, N the number on the last "PR N:" line of
#            CHANGES.md — log the change there first (includes
#            micro_serialization's zero-realloc assertion, micro_engine's
#            flat-dispatch assertion, the table2_services service-mesh
#            sweep + overload self-checks, fig15_lu's --check-scaleout
#            gate — 8-node pipelined must beat 1-node — ablation_flowctl's
#            flow-window knee gate, fig9_life's --check-leaf gate — the LUT
#            leaf kernel must beat naive 3x at 1024^2 on multi-core hosts —
#            and stream_video's streaming self-checks: checksum-verified
#            frames, base rate sustained within 20%, p99 end-to-end under
#            the SLO), flag fig15_lu / fig6_throughput / fig9_life
#            throughput regressions >10% against the newest committed
#            BENCH_pr*.json numbered below N, and add every inline "SKIP:"
#            line a harness prints to the skip list
set -uo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
echo "tier1: host $(uname -n) has $(nproc) hardware threads; building with -j $JOBS"

failures=0
skipped=()  # "stage (reason)" of every skip, repeated under the summary
pass() { echo "== PASS: $1"; }
fail() { echo "== FAIL: $1"; failures=$((failures + 1)); }
skip() { echo "== SKIP: $1 ($2)"; skipped+=("$1 ($2)"); }
list_skips() {
  if [ "${#skipped[@]}" -eq 0 ]; then
    echo "  no stage was skipped"
    return
  fi
  for s in "${skipped[@]}"; do echo "  SKIP: $s"; done
}

run_preset() {  # run_preset <name> — configure + build + ctest one preset
  cmake --preset "$1" &&
    cmake --build --preset "$1" -j "$JOBS" &&
    ctest --preset "$1" -j "$JOBS"
}

# --- default build + full suite (includes Lint.DpsLint and the
# --- negative-compile checks, which run at configure time) ------------------
if run_preset default; then
  pass "default build + full ctest suite"
else
  fail "default build + full ctest suite"
fi

# --- dps_lint standalone (also a ctest above; run it visibly here) ----------
if python3 scripts/dps_lint.py; then
  pass "dps_lint (token registration, raw primitives, tsan coverage, live allowlists)"
else
  fail "dps_lint"
fi

# --- verify-ast: protocol & lock-order analysis (scripts/dps_verify.py) -----
# Runs over the compile database from the `compile-commands` preset; the
# fixture corpus is asserted first so a broken analyzer can never
# green-light src/. With the clang python bindings installed the real
# clang AST is used; otherwise the built-in fallback frontend runs (set
# DPS_VERIFY_REQUIRE_LIBCLANG=1 to SKIP instead in that situation).
if [ "${DPS_SKIP_VERIFY:-0}" = "1" ]; then
  skip "verify-ast" "DPS_SKIP_VERIFY=1"
elif [ "${DPS_VERIFY_REQUIRE_LIBCLANG:-0}" = "1" ] &&
    ! python3 -c 'import clang.cindex' 2>/dev/null; then
  skip "verify-ast" "clang python bindings not installed (DPS_VERIFY_REQUIRE_LIBCLANG=1)"
else
  cmake --preset compile-commands >/dev/null
  if python3 scripts/dps_verify.py \
        --check-fixtures tests/static_checks/verify_fixtures &&
      python3 scripts/dps_verify.py \
        --compile-commands build-cc/compile_commands.json \
        --dot docs/lock_order.dot; then
    pass "verify-ast (fixture corpus + lock-order/protocol/discard over src/)"
  else
    fail "verify-ast"
  fi
fi

# --- shared-memory fabric (skipped where POSIX shm is unusable: no
# --- /dev/shm in the container, or an explicit DPS_SHM=0 opt-out) -----------
if [ "${DPS_SHM:-1}" = "0" ]; then
  skip "shm fabric" "DPS_SHM=0"
elif [ ! -d /dev/shm ]; then
  skip "shm fabric" "/dev/shm not mounted"
elif build/tests/dps_tests --gtest_filter='ShmFabric.*' >/dev/null 2>&1; then
  pass "shm fabric (ShmFabric.* suite)"
else
  fail "shm fabric (ShmFabric.* suite)"
fi

# --- ThreadSanitizer over the concurrency subset ----------------------------
if [ "${DPS_SKIP_TSAN:-0}" = "1" ]; then
  skip "tsan" "DPS_SKIP_TSAN=1"
elif run_preset tsan; then
  pass "tsan (concurrency subset)"
else
  fail "tsan (concurrency subset)"
fi

# --- AddressSanitizer + UBSan over the full suite ---------------------------
if [ "${DPS_SKIP_ASAN:-0}" = "1" ]; then
  skip "asan-ubsan" "DPS_SKIP_ASAN=1"
elif run_preset asan-ubsan; then
  pass "asan-ubsan (full suite)"
else
  fail "asan-ubsan (full suite)"
fi

# --- Clang Thread Safety Analysis (build-only, -Werror=thread-safety) -------
if [ "${DPS_SKIP_ANALYZE:-0}" = "1" ]; then
  skip "analyze" "DPS_SKIP_ANALYZE=1"
elif ! command -v clang++ >/dev/null 2>&1; then
  skip "analyze" "clang++ not installed; annotations are no-ops under gcc"
elif cmake --preset analyze && cmake --build --preset analyze -j "$JOBS"; then
  pass "analyze (-Wthread-safety clean)"
else
  fail "analyze (-Wthread-safety)"
fi

# --- clang-tidy (the WarningsAsErrors subset in .clang-tidy is fatal:
# --- use-after-move / dangling-handle / mt-unsafe; the rest is advisory) ----
if [ "${DPS_SKIP_TIDY:-0}" = "1" ]; then
  skip "clang-tidy" "DPS_SKIP_TIDY=1"
elif ! command -v clang-tidy >/dev/null 2>&1; then
  skip "clang-tidy" "clang-tidy not installed"
else
  # Needs a compile database; CMAKE_EXPORT_COMPILE_COMMANDS is on globally,
  # so the default preset build dir always carries one.
  cmake --preset default >/dev/null
  mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
  if clang-tidy -p build "${tidy_sources[@]}"; then
    pass "clang-tidy (no fatal findings; remaining output is advisory)"
  else
    fail "clang-tidy (WarningsAsErrors subset: bugprone-use-after-move, bugprone-dangling-handle, concurrency-mt-unsafe)"
  fi
fi

echo
if [ "$failures" -ne 0 ]; then
  echo "tier1: $failures stage(s) FAILED on $(nproc) hardware threads"
  list_skips
  exit 1
fi
echo "tier1: all stages passed (or were skipped explicitly) on $(nproc) hardware threads"
list_skips

if [ "${DPS_BENCH_SMOKE:-0}" != "1" ]; then
  exit 0
fi

# Bench smoke: tiny configurations of every harness, machine-readable
# results concatenated into BENCH_pr<N>.json for cross-commit diffing.
# micro_serialization exits nonzero if an envelope encode reallocates,
# micro_engine exits nonzero if merge matching scales with queue depth, the
# table2_services sweep/overload pass exits nonzero if the service mesh
# breaks its contract (iteration slowdown >= 2x at 100 clients, a shed call
# reporting anything but kBackpressure, or a tenant exceeding its in-flight
# budget), fig15_lu --check-scaleout exits nonzero unless the 8-node
# pipelined run actually beats 1 node (multicast scale-out),
# ablation_flowctl exits nonzero unless a flow-window knee exists at
# every message size, fig9_life --check-leaf exits nonzero unless the LUT
# leaf kernel beats naive 3x at 1024^2 through the backend seam (skipped on
# single-core hosts) or the two kernels disagree bit-wise, and
# stream_video exits nonzero unless every frame's chained checksum
# verifies, the base rate is sustained within 20%, and base-rate p99
# end-to-end latency meets the SLO — all of those invariants are enforced
# here too. A harness that skips a gate says so on a "SKIP: <reason>" line;
# those reasons join the skip list printed at the end.
set -e
# The output is named after the last "PR N:" line of CHANGES.md, which the
# change being measured appends first, and is compared against the newest
# committed BENCH_pr*.json numbered below it, so neither name has to be
# edited by hand.
pr=$(sed -n 's/^PR \([0-9][0-9]*\):.*/\1/p' CHANGES.md | tail -n 1)
if [ -z "$pr" ]; then
  echo "bench smoke: FAIL: CHANGES.md has no \"PR N:\" line to name BENCH_pr<N>.json"
  exit 1
fi
bench_out="BENCH_pr${pr}.json"
base_pr=$(git ls-files 'BENCH_pr*.json' |
  sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$/\1/p' |
  awk -v pr="$pr" '$1 < pr' | sort -n | tail -n 1)
bench_base="BENCH_pr${base_pr}.json"
echo "bench smoke: writing $bench_out (last \"PR N:\" line of CHANGES.md)," \
  "baseline $bench_base"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
# run_bench <name> <command...>: runs one harness (its failure stops the
# smoke) and adds each "SKIP: <reason>" line it prints to the skip list.
run_bench() {
  local name=$1 log="$smoke_dir/$1.log" reason
  shift
  "$@" 2>&1 | tee "$log"
  while IFS= read -r reason; do
    skipped+=("$name: $reason")
  done < <(sed -n 's/^[[:space:]]*SKIP:[[:space:]]*//p' "$log")
}
b=build/bench
run_bench fig6 "$b/fig6_throughput" 4 --json "$smoke_dir/fig6.json"
run_bench table1 "$b/table1_overlap" 256 --json "$smoke_dir/table1.json"
run_bench fig9 "$b/fig9_life" 1 --check-leaf --json "$smoke_dir/fig9.json"
run_bench fig15 "$b/fig15_lu" 512 110 32 --check-scaleout \
  --json "$smoke_dir/fig15.json"
run_bench table2 "$b/table2_services" 1024 1 --json "$smoke_dir/table2.json"
run_bench table2_mesh "$b/table2_services" 512 1 --sweep 1,10,100 \
  --overload 100 2 --json "$smoke_dir/table2_mesh.json"
run_bench ablation "$b/ablation_flowctl" 256 --json "$smoke_dir/ablation.json"
run_bench stream_video "$b/stream_video" 120 \
  --json "$smoke_dir/stream_video.json"
run_bench micro_engine "$b/micro_engine" \
  --json "$smoke_dir/micro_engine.json" \
  --benchmark_filter='BM_CallLatencySingleNode|BM_TokenThroughputSerialized/256|BM_DispatchMergeMatch'
run_bench micro_serial "$b/micro_serialization" \
  --json "$smoke_dir/micro_serial.json" \
  --benchmark_filter='BM_SimpleTokenRoundTrip|BM_ComplexTokenRoundTrip/4096'
cat "$smoke_dir"/*.json > "$bench_out"
echo "bench smoke: $(wc -l < "$bench_out") records -> $bench_out"
# Guard the hot-path wins: any fig15_lu / fig6_throughput / fig9_life
# config more than 10% below the baseline fails the smoke stage
# (fig9's wall-clock leaf=* configs are advisory; the in-binary
# --check-leaf gate owns that win).
python3 scripts/bench_compare.py "$bench_base" "$bench_out"
echo "bench smoke: all harnesses passed on $(nproc) hardware threads"
list_skips
