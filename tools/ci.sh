#!/usr/bin/env bash
# One-command CI: build the plain and sanitizer presets, run ctest under
# both. A sanitizer run is exactly:  tools/ci.sh asan-ubsan
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan tsan)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j"${jobs}"
  if [ "${preset}" = "tsan" ]; then
    # The thread-sanitizer leg watches every place threads meet: the
    # sharded engine and the load-probe executor. Force the per-shard
    # worker threads ON (a single-core CI machine would otherwise fall
    # back to the sequential round-robin and TSan would watch exactly
    # one thread), then run the focused race surface: the golden-hash
    # determinism suite (pins byte-identical output at shards 1/2/4,
    # threaded and sequential), the cross-shard engine tests (mailboxes,
    # lookahead windows, lane-order merges), the telemetry registry
    # merge paths, the probe executor (priorities, withdrawal, helping
    # callers, the concurrency cap), the concurrent load searches
    # against their sequential oracle, and the probe telemetry merges.
    # The suites run in parallel: most of the leg's time is the load
    # searches, which are independent of one another.
    IDSEVAL_SHARD_THREADS=1 ctest --preset "${preset}" -j"${jobs}" \
      --output-on-failure --no-tests=error \
      -R 'DeterminismTest|ShardPlanTest|ShardedSimulatorTest|RegistryTest|ScopedRegistryTest|ProbeExecutorTest|LoadSearchTest|LoadSearchDifferential|TestbedStopHookTest|ProbeTelemetryTest'
  else
    ctest --preset "${preset}" -j"${jobs}"
  fi
done

# Release leg with warnings as errors: builds the whole tree at -O3
# under -Werror, then runs the hot-path suites on the optimized build —
# the zero-callback-fallback invariant, the testbed and megaflow
# wall-clock floors (hard-fail only on optimized, sanitizer-free builds
# like this one), the cached == full-rescan detection identity, and the
# background == synchronous trace-writer byte identity.
# Skipped when only specific presets were requested.
if [ $# -eq 0 ]; then
  echo "==== hot-path suites (release, -Werror) ===="
  cmake --preset release -DIDSEVAL_WERROR=ON
  cmake --build --preset release -j"${jobs}"
  ctest --preset release --output-on-failure --no-tests=error \
    -R 'CallbackFallbackTest|ThroughputFloorTest|ScanCacheTest|TraceSinkTest'
fi

# Traced-campaign smoke test under the sanitizer build: the example CI
# campaign must produce a well-formed JSONL trace with zero buffer drops
# (trace-check exits non-zero otherwise) and a per-stage latency CSV
# whose shape matches the grid exactly — campaign_ci.spec expands to
# 8 cells x 4 pipeline stages = 32 data rows, with no NaN/inf cells.
for preset in "${presets[@]}"; do
  if [ "${preset}" = "asan-ubsan" ]; then
    echo "==== traced campaign (${preset}) ===="
    out_dir=$(mktemp -d)
    trap 'rm -rf "${out_dir}"' EXIT
    "build-${preset}/tools/idseval_cli" campaign \
      --spec examples/campaign_ci.spec --jobs 2 \
      --out "${out_dir}" --trace "${out_dir}/trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check "${out_dir}/trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check \
      --csv "${out_dir}/ci_campaign_stages.csv" --expect-rows 32
    "build-${preset}/tools/idseval_cli" trace-check \
      --csv "${out_dir}/ci_campaign.csv"
    rm -rf "${out_dir}"
    trap - EXIT
    # Flow-table core focus run: the open-addressing FlowTable, packed
    # FlowTuple keys, the XOR-aliasing regressions, and the per-flow
    # eviction paths get an explicit sanitizer pass (they are also part
    # of the full suite above), beside the zero-callback-fallback suite
    # and the megaflow floor workload (its floor is warn-only under
    # instrumentation). (ctest names are the discovered gtest suites,
    # not the binary names; --no-tests=error keeps a filter typo from
    # passing as a silent no-op.)
    echo "==== flow-table focus (${preset}) ===="
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'FlowTableTest|FlowTableDifferential|EventQueueDifferential|StreamTrackerDifferential|FlowTupleTest|KeyAliasingTest|FlowStateEvictionTest|CallbackFallbackTest|ThroughputFloorTest.MegaflowFlowRate'
    # Batch-invariance focus run: each packet and detection hand-off has
    # one batch-shaped entry, so the randomized differential test feeds
    # the same streams as random splits and as batches of one through
    # the switch/pipeline and host-agent rigs, here under the sanitizers
    # (it is also part of the full suite above), beside the per-layer
    # batch-boundary suites.
    echo "==== batch-invariance focus (${preset}) ===="
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'BatchInvarianceTest|SensorBatchTest|SwitchBatchTest|LinkBatchTest'
    # Scan-cache focus run: the interned-payload memo, the flat-map port
    # windows, and the boundary-limited reassembly merge get an explicit
    # sanitizer pass, then a --no-scan-cache evaluation keeps the legacy
    # full-rescan detection path exercised end to end (the determinism
    # suite pins that both paths are byte-identical).
    echo "==== scan-cache focus (${preset}) ===="
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'ScanCacheTest|FlatMapTest|ReassemblyTest'
    "build-${preset}/tools/idseval_cli" evaluate --product SentryNID \
      --no-scan-cache
    # Single-pass score-ledger sweep under the sanitizers: exercises the
    # evidence sinks, the ledger finalize path, and the offline ROC walk
    # end to end (a short grid keeps the sanitizer run quick).
    echo "==== single-pass sweep (${preset}) ===="
    "build-${preset}/tools/idseval_cli" sweep --product SentryNID \
      --steps 5 --single-pass
    # Kill-chain focus run: the staged campaign machinery (preset
    # determinism, stage ordering, pivoting), the per-technique/per-stage
    # breakdown arithmetic, and the ics/canbus profile pins get an
    # explicit sanitizer pass, then one traced kill-chain evaluation
    # drives the whole staged path — emitter stage overrides, ledger
    # labels, breakdown rendering, and the "attack." counters the trace
    # checker now recognizes — end to end.
    echo "==== kill-chain focus (${preset}) ===="
    ctest --preset "${preset}" --output-on-failure --no-tests=error \
      -R 'KillChainTest|KillChainRunTest|BreakdownTest|ProfileProperty'
    out_dir=$(mktemp -d)
    trap 'rm -rf "${out_dir}"' EXIT
    "build-${preset}/tools/idseval_cli" evaluate --product SentryNID \
      --profile ics --kill-chain ics-takeover \
      --trace "${out_dir}/killchain_trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check \
      "${out_dir}/killchain_trace.jsonl"
    rm -rf "${out_dir}"
    trap - EXIT
  fi
  if [ "${preset}" = "tsan" ]; then
    # End-to-end race check: the example CI campaign on two shards with
    # worker threads forced on, so every cross-shard mailbox hand-off,
    # barrier, and telemetry merge runs under the race detector. One job
    # keeps shard workers as the only concurrency TSan has to model.
    echo "==== sharded traced campaign (${preset}) ===="
    out_dir=$(mktemp -d)
    trap 'rm -rf "${out_dir}"' EXIT
    IDSEVAL_SHARD_THREADS=1 "build-${preset}/tools/idseval_cli" campaign \
      --spec examples/campaign_ci.spec --jobs 1 --shards 2 \
      --out "${out_dir}" --trace "${out_dir}/trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check "${out_dir}/trace.jsonl"
    # One traced evaluation with load metrics: the four load searches
    # run concurrently on the probe executor, and the load_probes event
    # carries their merged telemetry.
    echo "==== traced load-metric evaluation (${preset}) ===="
    "build-${preset}/tools/idseval_cli" evaluate --product SentryNID \
      --load-metrics --trace "${out_dir}/load_trace.jsonl"
    "build-${preset}/tools/idseval_cli" trace-check \
      "${out_dir}/load_trace.jsonl"
    rm -rf "${out_dir}"
    trap - EXIT
  fi
done
