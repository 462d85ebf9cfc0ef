#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the test suite — first a
# plain build, then (unless PORYGON_SKIP_SANITIZERS=1) an ASan+UBSan build
# and a TSan build that runs the parallel-runtime and system tests with
# worker threads enabled (PORYGON_THREADS=4).
#
#   scripts/check.sh              # plain + sanitized
#   PORYGON_SKIP_SANITIZERS=1 scripts/check.sh
#
# Build trees live under build/ (plain, reused from a normal checkout; the
# benchmark binaries go to build/perfbench/), build-asan/, and build-tsan/ so
# configurations never share object files.
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure
  # Golden wire-format suite: the SHA-256 of one fixed instance of every
  # wire type. Encoded sizes drive the bandwidth model, so a codec change
  # that moves a byte must fail here, not drift every sim metric.
  ctest --test-dir "$dir" -R WireGolden --output-on-failure
  # Fault suite, called out explicitly: crash/recover failover, censorship,
  # and same-seed determinism under an active FaultPlan must never rot.
  ctest --test-dir "$dir" -R FaultInjection --output-on-failure
  # Adversary suite, likewise: chain identity and evidence collection under
  # every Byzantine strategy at the paper's alpha/beta bounds.
  ctest --test-dir "$dir" -R Adversary --output-on-failure
  # Hashing suite: FIPS vectors and padding boundaries through the
  # dispatched kernel, scalar vs SHA-NI block by block (skipped on CPUs
  # without SHA-NI), and the sorted-frontier SMT PutBatch against
  # sequential Puts, proofs included.
  ctest --test-dir "$dir" -R 'Sha256|Smt' --output-on-failure
  # Workload suite: traffic-model determinism, Zipf sanity, scenario rows.
  ctest --test-dir "$dir" -R Workload --output-on-failure
  # Critical-path suite: bandwidth-ledger queue/busy accounting, dominant
  # edge attribution, thread-invariant round reports, and the
  # trace-sampling timing invariant.
  ctest --test-dir "$dir" -R CriticalPath --output-on-failure
  # Dissemination suite: spec grammar, erasure k-of-n round trips,
  # tree-vs-direct safety, and Byzantine/crashed relay degradation.
  ctest --test-dir "$dir" -R 'Dissemination|Erasure' --output-on-failure
  # Scenario-matrix smoke cell: one small million-account cell end-to-end
  # through the real binary (spec parsing, lazy funding, JSON export).
  "$dir"/bench/scenario_matrix --rounds=2 --tps=200 \
    --workload=zipf:0.99,accounts:1000000 \
    --out="$dir"/scenario_smoke.json >/dev/null
  grep -q '"committed_txs":' "$dir"/scenario_smoke.json
  # Epoch + soak suites: committee reconfiguration determinism and the
  # chaos-harness spec/replay/invariant plumbing.
  ctest --test-dir "$dir" -R 'Epoch|Soak' --output-on-failure
  # Chaos-soak smoke: 200 rounds of faults + Byzantine adversary across 8
  # committee reconfigurations, with the clean-reference safety cross-check
  # and liveness bounds live the whole way. Must end violation-free.
  "$dir"/bench/soak --rounds=200 --epoch-length=25 --seed=1 --tps=2 \
    --faults='loss:0.02,dup:0.02,jitter:300' \
    --adversary='stateless:equivocate,storage:withhold' \
    --out="$dir"/soak_smoke.json | grep -q 'OK: zero invariant violations'
  grep -q '"violations":\[\]' "$dir"/soak_smoke.json
}

echo "== plain build + ctest =="
run_suite build

# Benchmark binaries (perfbench/): the traced one links with --wrap over the
# mangled library entry points listed in perfbench/wrap.cc, so a renamed or
# re-signatured entry point fails here rather than at the next benchmark run.
echo "== perfbench build =="
cmake -B build/perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build/perfbench -j "$(nproc)" \
  --target perfbench_driver perfbench_traced

if [[ "${PORYGON_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "== address,undefined sanitized build + ctest =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    run_suite build-asan -DPORYGON_SANITIZE=address,undefined

  # TSan leg: the pool fan-outs (shard execution, batch crypto, compaction,
  # bloom builds) must be race-free with workers actually running, and the
  # hashing suite runs both SHA-256 kernels and PutBatch here too, so force
  # a multi-threaded pool via PORYGON_THREADS for the runtime + system
  # suites. TSan is incompatible with ASan, hence the third build tree.
  echo "== thread sanitized build + runtime/system ctest =="
  cmake -B build-tsan -S . -DPORYGON_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)"
  PORYGON_THREADS=4 \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan --output-on-failure \
      -R 'TaskPool|VerifyBatch|ThreadInvariance|SystemIntegration|StorageDb|Db|Adversary|CriticalPath|Dissemination|Sha256|Smt'
fi

echo "check.sh: all suites passed"
