#!/usr/bin/env bash
#===--- ci/run.sh - Tier-1 verify plus sanitizer presets ------------------===#
#
# Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
#
# The complete CI gate, runnable locally with no arguments:
#
#   ci/run.sh            # tier-1 + TSan + UBSan + ASan + perfbench (what CI runs)
#   ci/run.sh tier1      # just the plain build + ctest
#   ci/run.sh tsan       # just the -DPTRAN_SANITIZE=thread preset
#   ci/run.sh ubsan      # just the -DPTRAN_SANITIZE=undefined preset
#   ci/run.sh asan       # just the -DPTRAN_SANITIZE=address preset
#   ci/run.sh perfbench  # build the serve benchmark; run replicated-writes
#                        # and profile-churn 2 s each
#
# Each preset builds into its own directory (build-ci-*), so a CI run
# never disturbs a developer's ./build tree, and the sanitizer trees run
# the dedicated *_tsan / *_ubsan ctest entries with halt-on-error runtime
# options on top of the full suite. Every preset also runs the serve_smoke,
# recover_smoke and failover_smoke end-to-end checks (ptran-serve +
# ptran-bench-client over a scratch socket; recover_smoke kill -9s a
# --state-dir daemon at every injected crash point and byte-compares
# recovered estimates; failover_smoke pairs a primary with a --standby-of
# follower, kills the primary and promotes the standby, then sweeps the
# repl.* crash points on both sides). The recovery smokes run under
# explicit availability budgets — boot recovery and standby promotion must
# land inside the PTRAN_RECOVERY_SLO_MS / PTRAN_PROMOTE_SLO_MS wall-clock
# SLOs exported below (pre-set either variable to tighten or loosen the
# gate). Under tsan and ubsan a set of suites reruns with halt_on_error;
# the *_tsan and *_ubsan blocks in tests/CMakeLists.txt are the one list
# of them. The asan preset (AddressSanitizer plus UBSan) runs the full
# suite, so every decoder of untrusted bytes is also checked for
# out-of-bounds reads and leaks. Both UBSan presets include float-cast-overflow (see the top-level
# CMakeLists.txt). The perfbench preset configures and builds perfbench/,
# which compiles src/ and tools/ through its own CMake project, so a
# header or link change that breaks perfbench/run.py fails CI. It then
# runs replicated-writes for 2 s and fails unless the answers are correct
# and the median --repl-ack=always write stays under 25 ms: a standby
# ack that waits out a polling tick instead of a wake-up costs every
# acknowledged write ~100 ms.
# Then it runs profile-churn for 2 s and fails unless it is correct: the
# daemon's answers after its ingests must equal a serial replay of every
# acknowledged ingest, which exercises ingestProfile through the daemon.
# It also fails when the median read takes 2 ms or more: on a 4-vCPU
# x86-64 guest a read answered from the session's published view takes
# ~0.15 ms, one that queues behind the ingests on the session lock ~15 ms.
# And it fails when setup_rss_mb (the daemon's resident set once its
# 255-function session is loaded) is 10.5 MB or more: with the FCDG kept
# only as its arena and recovery compiled into a plan-time schedule it is
# ~9.2 MB; sessions that also retain the forward ECFG, its postdominator
# tree and the FCDG Digraphs sit at ~11.2 MB.
# It fails when rss_growth_kb_per_kreq (the daemon's resident-set
# growth over the run per thousand requests) is 1024 KiB or more: with
# the registry's spans in a fixed 4096-slot ring it stays near 0, while a
# span log that keeps every span grows ~17,000 KiB per 1000 requests.
# Last, it fails when the median ingest (write_p50_ms) takes 15 ms or
# more: validation runs off the session lock and the locked refresh only
# redoes per-ingest work (recovery, FREQ, the TIME/VAR sweep over the
# compiled call structure), ~4 ms per ingest under 4 connections on a
# 4-vCPU guest, while ingests that queue whole for the session lock read
# over 20 ms.
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Recovery-time SLO budgets for the crash/failover smokes: a recovered
# daemon must be serving inside RECOVERY_SLO_MS of exec, and a standby
# must finish promotion inside PROMOTE_SLO_MS of the signal. Generous
# enough for sanitizer builds on loaded CI machines, tight enough to catch
# an accidental O(journal^2) replay or a promotion that waits on a dead
# primary.
export PTRAN_RECOVERY_SLO_MS="${PTRAN_RECOVERY_SLO_MS:-60000}"
export PTRAN_PROMOTE_SLO_MS="${PTRAN_PROMOTE_SLO_MS:-30000}"

run_preset() {
  local name="$1" sanitize="$2"
  local dir="build-ci-${name}"
  echo "=== ${name}: configure (${dir}) ==="
  local extra=()
  [ -n "${sanitize}" ] && extra+=("-DPTRAN_SANITIZE=${sanitize}")
  cmake -B "${dir}" -S . "${extra[@]}"
  echo "=== ${name}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

build_perfbench() {
  local dir="build-ci-perfbench"
  echo "=== perfbench: configure (${dir}) ==="
  cmake -B "${dir}" -S perfbench
  echo "=== perfbench: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== perfbench: replicated-writes (2 s) ==="
  local out="${dir}/replicated-writes.json"
  CARGO_TARGET_DIR="${dir}" python3 perfbench/run.py \
    --workload replicated-writes --seed 1 --seconds 2 --out "${out}"
  python3 - "${out}" <<'PY'
import json, sys
LIMIT_MS = 25
result = json.load(open(sys.argv[1]))
p50 = result["metrics"]["write_p50_ms"]["value"]
print(f"perfbench: replicated-writes write_p50_ms = {p50:.3f} (limit {LIMIT_MS})")
if not result["correct"] or p50 >= LIMIT_MS:
    sys.exit("perfbench: replicated-writes answers are wrong or writes are slow")
PY
  echo "=== perfbench: profile-churn (2 s) ==="
  out="${dir}/profile-churn.json"
  CARGO_TARGET_DIR="${dir}" python3 perfbench/run.py \
    --workload profile-churn --seed 1 --seconds 2 --out "${out}"
  python3 - "${out}" <<'PY'
import json, sys
LIMIT_MS = 2
RSS_LIMIT_MB = 10.5
GROWTH_LIMIT_KB = 1024
WRITE_LIMIT_MS = 15
result = json.load(open(sys.argv[1]))
p50 = result["metrics"]["read_p50_ms"]["value"]
rss = result["metrics"]["setup_rss_mb"]["value"]
growth = result["metrics"]["rss_growth_kb_per_kreq"]["value"]
write_p50 = result["metrics"]["write_p50_ms"]["value"]
print(f"perfbench: profile-churn correct = {result['correct']}, "
      f"read_p50_ms = {p50:.3f} (limit {LIMIT_MS}), "
      f"setup_rss_mb = {rss:.2f} (limit {RSS_LIMIT_MB}), "
      f"rss_growth_kb_per_kreq = {growth:.1f} (limit {GROWTH_LIMIT_KB}), "
      f"write_p50_ms = {write_p50:.3f} (limit {WRITE_LIMIT_MS})")
if not result["correct"]:
    sys.exit("perfbench: profile-churn answers differ from a serial replay "
             "of its acknowledged ingests")
if p50 >= LIMIT_MS:
    sys.exit("perfbench: profile-churn reads wait on its ingests")
if rss >= RSS_LIMIT_MB:
    sys.exit("perfbench: profile-churn sessions retain too much memory")
if growth >= GROWTH_LIMIT_KB:
    sys.exit("perfbench: the profile-churn daemon grows with every request")
if write_p50 >= WRITE_LIMIT_MS:
    sys.exit("perfbench: profile-churn ingests are slow")
PY
}

what="${1:-all}"
case "${what}" in
tier1) run_preset tier1 "" ;;
tsan) run_preset tsan thread ;;
ubsan) run_preset ubsan undefined ;;
asan) run_preset asan address ;;
perfbench) build_perfbench ;;
all)
  run_preset tier1 ""
  run_preset tsan thread
  run_preset ubsan undefined
  run_preset asan address
  build_perfbench
  ;;
*)
  echo "usage: ci/run.sh [tier1|tsan|ubsan|asan|perfbench|all]" >&2
  exit 2
  ;;
esac

echo "=== ${what}: OK ==="
