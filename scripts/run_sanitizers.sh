#!/usr/bin/env bash
# Sanitizer presets over the tier-1 suites most sensitive to the TM
# runtime's memory and ordering tricks: the TM core (longjmp rollback,
# allocation logs), privatization (quiesce-before-free and the mode-aware
# routed reclamation, rerun under a seeded htm_zombie fault matrix), the data
# structures (node reclamation under concurrency), the engine edge cases,
# the quiescence substrate (grace sharing, parking, limbo reclamation), the
# observability layer (seqlock trace ring under concurrent
# emit/snapshot/reset, per-site counter tables, the windowed metrics
# sampler ticking against live counter bumps, owner-only counter adds
# polled by a concurrent aggregator), the contention governor (drain waits
# under racing serial writers), and the striped commit sequence (per-stripe
# seqlock acquisition/release ordering). The ASan half also runs the codec
# suites (index arithmetic of the BWT rotation sort and its settled-group
# jumps, the Huffman table lookups, the slicing-by-8 CRC, the decoder's
# bounds on malformed blocks), which are single-threaded, so TSan skips
# them; and the video encoder suites (the block kernels' reads at the edges
# of frames whose sides are not multiples of the block size).
#
#   asan  — AddressSanitizer + UBSan: catches use-after-free of limbo'd
#           nodes, i.e. frees released before a covering grace period. A
#           UBSan report fails the suite.
#   tsan  — ThreadSanitizer: catches ordering bugs in the epoch/park
#           protocol and the serial lock's Dekker edges.
#
# Usage: run_sanitizers.sh [asan|tsan|all]   (default: all)
# Wired to the build as `cmake --build build --target check-sanitizers`.
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET=${1:-all}
CXX=${CXX:-g++}
TM_SRCS="src/tm/engine.cpp src/tm/registry.cpp src/tm/runtime.cpp src/tm/audit.cpp src/tm/trace.cpp src/tm/fault/fault.cpp src/tm/governor/governor.cpp src/tm/obs/site.cpp src/tm/obs/export.cpp src/tm/obs/metrics.cpp src/tm/obs/sampler.cpp"
LIBS="-lgtest -lgtest_main -pthread"
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# suite -> extra sources beyond the TM core.
suite_extra() {
  case "$1" in
    tm_privatization_test|sync_stress_test|fault_injection_test) echo "src/sync/tx_condvar.cpp" ;;
    *) echo "" ;;
  esac
}
SUITES="tm_core_test tm_privatization_test dstruct_test tm_engine_edge_test quiesce_stress_test sync_stress_test obs_test metrics_test site_overflow_test fault_injection_test governor_test tm_stripe_test"
# Codec suites, built from the codec sources and the benchmark corpus
# (src/pipez/corpus.cpp) instead of the TM core.
CODEC_SUITES="bzip_test bzip_fuzz_test"
# Video encoder suites: the TM core, the condition variable, the codec's bit
# I/O and the encoder itself.
VIDENC_SUITES="videnc_test videnc_property_test videnc_decoder_test"

# Seeded fault matrix: rerun the suites most sensitive to the perturbed
# windows with the env-armed chaos plan, so the sanitizers watch the Dekker
# handshakes while injection drives aborts and delays through them.
FAULT_SUITES="tm_core_test sync_stress_test quiesce_stress_test"
FAULT_SEED=20260806

# Privatization suite (hard-gating): the mode-aware reclamation routing is
# additionally driven through five seeded reruns with perturbation parked
# directly inside the simulated-HTM zombie window (delay/yield@htm_zombie),
# so ASan catches any privatizing free that escapes the limbo routing and
# TSan checks the epoch/limbo edges under the stretched window. The plan is
# perturbation-only: aborts would retry the rendezvous tests' pinned
# interleavings out of existence.
PRIV_SEEDS="1 2 3 4 5"
PRIV_PLAN="delay@htm_zombie=0.3/20000,yield@htm_zombie=0.3"

# build_run <suite> <preset> <flags> <sources...>: compile one suite, run it.
build_run() {
  local test=$1 name=$2 flags=$3
  shift 3
  echo "== $test ($name)"
  # shellcheck disable=SC2086
  $CXX $flags -fno-omit-frame-pointer -g -std=c++20 -Isrc -Itests \
    "tests/$test.cpp" "$@" $LIBS -o "$OUT/$test-$name"
  "$OUT/$test-$name"
}

run_preset() {
  local name=$1 flags=$2
  # Codec and video suites first, so a failing suite later on cannot keep
  # them from running.
  if [ "$name" = asan ]; then
    for test in $CODEC_SUITES; do
      build_run "$test" "$name" "$flags" src/bzip/*.cpp src/pipez/corpus.cpp
    done
    for test in $VIDENC_SUITES; do
      # shellcheck disable=SC2086
      build_run "$test" "$name" "$flags" $TM_SRCS src/sync/tx_condvar.cpp \
        src/bzip/*.cpp src/videnc/*.cpp
    done
  fi
  for test in $SUITES; do
    # shellcheck disable=SC2086
    build_run "$test" "$name" "$flags" $TM_SRCS $(suite_extra "$test")
  done
  for test in $FAULT_SUITES; do
    echo "== $test ($name, TLE_FAULT_SEED=$FAULT_SEED)"
    TLE_FAULT_SEED=$FAULT_SEED "$OUT/$test-$name"
  done
  for seed in $PRIV_SEEDS; do
    echo "== tm_privatization_test ($name, htm_zombie plan, seed $seed)"
    TLE_FAULT_SEED=$((FAULT_SEED + seed)) TLE_FAULT_PLAN="$PRIV_PLAN" \
      "$OUT/tm_privatization_test-$name"
  done
}

# UBSan only prints a report and carries on unless told not to recover, so
# without the second flag a suite with undefined behaviour would still pass.
ASAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -O1"

case "$PRESET" in
  asan) run_preset asan "$ASAN_FLAGS" ;;
  tsan) run_preset tsan "-fsanitize=thread -O1" ;;
  all)
    run_preset asan "$ASAN_FLAGS"
    run_preset tsan "-fsanitize=thread -O1"
    ;;
  *) echo "unknown preset '$PRESET' (want asan|tsan|all)" >&2; exit 2 ;;
esac
echo "all sanitizer runs clean"
