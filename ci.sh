#!/usr/bin/env bash
# Tier-1 verification in three configurations:
#   1. Release         — the build users get (catches optimizer-visible bugs)
#   2. ThreadSanitizer — shakes out data races in the reactor actor
#      structure (frame pumps, async handshakes, channel actors, client
#      demux, timer chains; see docs/net.md),
#      plus a chaos seed sweep: the fault-injection tests replayed under
#      several ACE_CHAOS_SEED values so each CI run exercises distinct
#      crash/partition interleavings under the race detector
#   3. AddressSanitizer — lifetime bugs on the crash/restart paths the chaos
#      engine drives (daemon teardown, channel close, queue reopen),
#      plus a fixed-seed disk-fault sweep: the durable-store suite (power
#      cycles, torn WAL tails, dropped fsyncs, recovery) replayed under
#      several ACE_CHAOS_SEED values
#
# Usage: ./ci.sh [release|tsan|asan]     (no argument = all)
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== ${name}: configure ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${name}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}")
}

# Runs each bench at its smallest scale and validates the exported metrics
# artifact, so bench bit-rot (bench doesn't build, doesn't run, or stops
# exporting the counters E15/E16 read) is caught before anyone needs a full
# run. The checked counters are the ones the experiments' claims rest on.
bench_smoke() {
  local build_dir="$1"
  echo "=== bench-smoke: bench_asd --smoke ==="
  (cd "${build_dir}/bench" && rm -f bench_asd.metrics.json && ./bench_asd --smoke)
  python3 - "${build_dir}/bench/bench_asd.metrics.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    snapshot = json.load(f)
counters = snapshot["counters"]
for name in ("asd.registrations", "asd.queries", "asd.query_index_hits",
             "asd.renewals"):
    if counters.get(name, 0) <= 0:
        sys.exit(f"bench-smoke: counter {name!r} missing or zero in {path}")
# E21 federation: the gossip rounds, cross-room query fan-out, and relay
# tunnel must all have actually run — a zero here means the federated
# campus silently degraded to a single-room deployment.
for name in ("asd.gossip_rounds", "asd.forwarded_queries",
             "asd.relay_frames"):
    if counters.get(name, 0) <= 0:
        sys.exit(f"bench-smoke: counter {name!r} missing or zero in {path} — "
                 "the federation path never ran")
print(f"bench-smoke: {path} ok "
      f"({counters['asd.queries']} queries, "
      f"{counters['asd.query_index_hits']} index hits, "
      f"{counters['asd.gossip_rounds']} gossip rounds, "
      f"{counters['asd.forwarded_queries']} forwarded queries, "
      f"{counters['asd.relay_frames']} relay frames)")
EOF
  echo "=== bench-smoke: bench_store --smoke ==="
  (cd "${build_dir}/bench" && rm -f bench_store.metrics.json && ./bench_store --smoke)
  python3 - "${build_dir}/bench/bench_store.metrics.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    snapshot = json.load(f)
counters = snapshot["counters"]
for name in ("store.writes", "store.replica_acks", "store.batch_records",
             "store.sync_tree_rpcs", "store.wal_appends", "store.wal_fsyncs",
             "store.snapshot_compactions"):
    if counters.get(name, 0) <= 0:
        sys.exit(f"bench-smoke: counter {name!r} missing or zero in {path}")
# The E19a smoke run restarts a replica from snapshot + WAL; a snapshot
# without at least one real recovery means the durable plane is dead code.
if counters.get("store.recoveries", 0) < 1:
    sys.exit(f"bench-smoke: store.recoveries < 1 in {path} — "
             "restart recovery never ran")
# E20 read path: digest fan-outs must actually run, the E20a stale-replica
# probe must produce at least one async read repair, and E20b must serve
# its scans as bounded pages.
for name in ("store.digest_reads", "store.scan_pages"):
    if counters.get(name, 0) <= 0:
        sys.exit(f"bench-smoke: counter {name!r} missing or zero in {path}")
if counters.get("store.read_repairs", 0) < 1:
    sys.exit(f"bench-smoke: store.read_repairs < 1 in {path} — "
             "the E20a read-repair probe never healed its stale replica")
print(f"bench-smoke: {path} ok "
      f"({counters['store.writes']} writes, "
      f"{counters['store.batch_records']} batched records, "
      f"{counters['store.sync_tree_rpcs']} merkle tree rpcs, "
      f"{counters['store.wal_appends']} wal appends, "
      f"{counters['store.recoveries']} recoveries, "
      f"{counters['store.digest_reads']} digest reads, "
      f"{counters['store.scan_pages']} scan pages)")
EOF
  echo "=== bench-smoke: bench_scale --smoke ==="
  (cd "${build_dir}/bench" && rm -f bench_scale.metrics.json && ./bench_scale --smoke)
  python3 - "${build_dir}/bench/bench_scale.metrics.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    snapshot = json.load(f)
counters = snapshot["counters"]
for name in ("net.connects", "daemon.conn.accepted", "client.calls",
             "reactor.tasks", "crypto.handshakes"):
    if counters.get(name, 0) <= 0:
        sys.exit(f"bench-smoke: counter {name!r} missing or zero in {path}")
print(f"bench-smoke: {path} ok "
      f"({counters['net.connects']} connects, "
      f"{counters['reactor.tasks']} reactor tasks, "
      f"{counters['client.calls']} rpc calls)")
EOF
  echo "=== bench-smoke: bench_audio --smoke ==="
  (cd "${build_dir}/bench" && rm -f bench_audio.metrics.json && ./bench_audio --smoke)
  python3 - "${build_dir}/bench/bench_audio.metrics.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    snapshot = json.load(f)
counters = snapshot["counters"]
for name in ("media.frames_routed", "media.datagrams_fanned",
             "media.route_installs"):
    if counters.get(name, 0) <= 0:
        sys.exit(f"bench-smoke: counter {name!r} missing or zero in {path}")
# The artifact comes from the zero-copy E18b run: any payload copy on the
# fan-out path is a regression of the data plane's core claim.
if counters.get("media.bytes_copied", 0) != 0:
    sys.exit(f"bench-smoke: media.bytes_copied nonzero in {path} — "
             "the zero-copy invariant regressed")
print(f"bench-smoke: {path} ok "
      f"({counters['media.frames_routed']} frames routed, "
      f"{counters['media.datagrams_fanned']} sink sends, "
      f"zero payload bytes copied)")
EOF
}

# The documentation is machine-checked: docs/commands.md is diffed against
# the commands each daemon class actually registers, and every markdown
# cross-link reachable from README.md must resolve (files and anchors).
# ctest already runs test_docs, but run it here as its own named gate so a
# doc drift failure is unmistakable in the CI log rather than buried in the
# suite summary.
doc_lint() {
  local build_dir="$1"
  echo "=== doc-lint: command reference diff + markdown cross-link walk ==="
  "${build_dir}/tests/test_docs"
}

# Runs one gtest binary under a --gtest_filter, after checking that the
# filter selects at least one test: gtest exits 0 when a filter matches
# nothing, so a renamed test would silently turn its sweep into a no-op.
# Extra arguments (e.g. --gtest_repeat) pass through; environment variables
# set on the call (ACE_CHAOS_SEED=...) reach the binary.
run_filtered() {
  local binary="$1" filter="$2"
  shift 2
  local selected
  selected="$("${binary}" --gtest_list_tests --gtest_filter="${filter}" |
              grep -c '^  ' || true)"
  if [[ "${selected}" -eq 0 ]]; then
    echo "ci.sh: --gtest_filter='${filter}' selects no test in ${binary}" >&2
    exit 1
  fi
  "${binary}" --gtest_filter="${filter}" "$@"
}

# The zero-copy data plane aliases one payload buffer across daemon threads
# (capture, router fan-out, play/recorder rings). Replay the media suites a
# few times under TSan so buffer-sharing bugs surface as reported races
# rather than flaky audio.
media_race_sweep() {
  local build_dir="$1"
  echo "=== media data-plane sweep under ThreadSanitizer ==="
  run_filtered "${build_dir}/tests/test_media" \
    'FrameRouterTest.*:AudioPipelineTest.*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_services" \
    'ServicesTest.Converter*:ServicesTest.Distribution*' --gtest_repeat=3
}

# Replays the chaos suites (schedule properties + live fault injection)
# under a handful of fixed seeds. Fixed rather than random so a CI failure
# is reproducible by running the same seed locally.
chaos_seed_sweep() {
  local build_dir="$1"
  for seed in 1 7 42; do
    echo "=== chaos seed sweep: ACE_CHAOS_SEED=${seed} ==="
    ACE_CHAOS_SEED="${seed}" \
      run_filtered "${build_dir}/tests/test_failures" 'Chaos*'
  done
}

# The read path fans digest RPCs and async read repairs across the ops
# pool, and cluster scans merge per-shard pages gathered concurrently —
# replay those suites under TSan, plus one fixed-seed chaos torture whose
# final R=2 verification reads drive the digest path under crash/restart.
read_path_race_sweep() {
  local build_dir="$1"
  echo "=== store read-path sweep under ThreadSanitizer ==="
  run_filtered "${build_dir}/tests/test_store" \
'QuorumStoreTest.DigestReadRepairConvergesStaleReplica:'\
'QuorumStoreTest.ReadQuorumUnavailableIsSurfaced:'\
'StoreDigestReadTest.*:ShardedStoreTest.Scan*' --gtest_repeat=3
  ACE_CHAOS_SEED=42 run_filtered "${build_dir}/tests/test_store" \
    'QuorumStoreTest.ChaosQuorumTortureNeverLosesAckedWrites'
}

# Replays the durable-store suite — power cycles, torn WAL tails, lying
# fsyncs, crash-mid-compaction — under fixed seeds with ASan watching the
# recovery paths (daemon restart swaps the batcher, monitor, and durable
# log; lifetime bugs live exactly there). Fixed seeds keep failures
# replayable: ACE_CHAOS_SEED=<seed> reruns the same schedule.
disk_fault_sweep() {
  local build_dir="$1"
  for seed in 3 11 1337; do
    echo "=== disk-fault chaos sweep: ACE_CHAOS_SEED=${seed} ==="
    ACE_CHAOS_SEED="${seed}" \
      run_filtered "${build_dir}/tests/test_store" 'DurableStoreTest.*'
  done
  "${build_dir}/tests/test_io"
}

want="${1:-all}"

case "${want}" in
  release|all)
    run_config "release" build-ci -DCMAKE_BUILD_TYPE=Release
    doc_lint build-ci
    bench_smoke build-ci
    ;;&
  tsan|all)
    run_config "tsan" build-tsan -DACE_SANITIZE=thread
    chaos_seed_sweep build-tsan
    media_race_sweep build-tsan
    read_path_race_sweep build-tsan
    ;;&
  asan|all)
    run_config "asan" build-asan -DACE_SANITIZE=address
    disk_fault_sweep build-asan
    ;;&
  release|tsan|asan|all) ;;
  *)
    echo "usage: $0 [release|tsan|asan]" >&2
    exit 2
    ;;
esac

echo "ci.sh: all requested configurations passed"
