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
result = json.load(open(sys.argv[1]))
print(f"perfbench: profile-churn correct = {result['correct']}")
if not result["correct"]:
    sys.exit("perfbench: profile-churn answers differ from a serial replay "
             "of its acknowledged ingests")
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
