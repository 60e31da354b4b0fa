#!/usr/bin/env bash
# Tier-1 verification in three configurations:
#   1. Release         — the build users get (catches optimizer-visible bugs)
#   2. ThreadSanitizer — shakes out data races in the reactor actor
#      structure (frame pumps, async handshakes, channel actors, client
#      demux and the continuations it settles, periodic duties, the
#      outbound lanes of replication and notification, inline nonblocking
#      commands and deferred replies; see docs/net.md),
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

# The read path's digest reads fan out through AceClient::call_all's
# callback form, whose set the demux settles from core workers, tallying
# the votes and replying there; cluster scans and federated queries wait
# on the blocking form while the demux fills its set; and read repairs
# settle by callback on whichever thread settles their batch. Replay
# those suites and call_all's own tests under TSan, plus one fixed-seed
# chaos torture whose final R=2 verification reads drive the digest path
# under crash/restart.
read_path_race_sweep() {
  local build_dir="$1"
  echo "=== store read-path sweep under ThreadSanitizer ==="
  run_filtered "${build_dir}/tests/test_store" \
'QuorumStoreTest.DigestReadRepairConvergesStaleReplica:'\
'QuorumStoreTest.ReadQuorumUnavailableIsSurfaced:'\
'StoreDigestReadTest.*:ShardedStoreTest.Scan*' --gtest_repeat=3
  ACE_CHAOS_SEED=42 run_filtered "${build_dir}/tests/test_store" \
    'QuorumStoreTest.ChaosQuorumTortureNeverLosesAckedWrites'
  run_filtered "${build_dir}/tests/test_rpc" 'CallAll.*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_federation" \
'FederationTest.CrossRoom*:FederationTest.ForwardCache*:'\
'FederationTest.Relay*' --gtest_repeat=3
}

# Every authorized command on every strand reads the daemon's verdict
# cache, and a credential refetch replaces the cache entry a concurrent
# check may be about to store its verdict into. Replay the authorization
# suites — including the four-strand refetch race — under TSan.
authz_race_sweep() {
  local build_dir="$1"
  echo "=== authorization verdict-cache sweep under ThreadSanitizer ==="
  run_filtered "${build_dir}/tests/test_daemon" 'DaemonTest.Authorization*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_failures" \
    'FailureTest.*Auth*:FailureTest.CredentialCache*' --gtest_repeat=3
}

# Every periodic duty (lease renewal, gossip rounds, the store monitor, RM
# watchdog, ASD reaper and HRM sampler) is a net::PeriodicTask, and each
# lane of the store's replication outbox ships on the pushing thread and
# the settling one, while Outbox::close() races push() and waits for the
# shipment in flight to settle. Replay the primitive's contract tests,
# stop() waiting out a running handler, a client tearing down and
# re-creating a channel's demux, and the suites that start, stop, crash
# and restart those duties and lanes under TSan.
timer_chain_sweep() {
  local build_dir="$1"
  echo "=== periodic-duty and replication-lane sweep under ThreadSanitizer ==="
  run_filtered "${build_dir}/tests/test_reactor" \
    'PeriodicTask.*:ReactorSoak.DroppedDemux*:'\
'Reactor.SubscriptionStopWaitsOutRunningHandler' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_asd_scale" \
    'AsdScaleTest.HostCoordinator*:AsdScaleTest.*Promptly*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_federation" \
    'FederationTest.SilentRoom*:FederationTest.HealedPartition*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_store" \
'StoreTest.PeerRejoin*:QuorumStoreTest.HintedHandoff*:RobustnessTest.*:'\
'QuorumStoreTest.Batcher*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_services2" 'Services2Test.Hrm*' \
    --gtest_repeat=3
}

# Nonblocking commands run on the core worker that decoded them when their
# lane is idle, racing the control pump and the strands for exec_mu_ and
# the lane counts, and the verdict cache against refetches; a deferred
# command frees its strand as its handler returns and answers later, from
# a timer or another thread. Replay the RPC and daemon suites, the
# inline-path and deferred-reply tests, the replica digest reads and the
# ASD's lease renewals (both inline on the hot path) under TSan with the
# never-block check compiled in.
inline_dispatch_sweep() {
  local build_dir="$1"
  echo "=== inline dispatch sweep under ThreadSanitizer ==="
  run_filtered "${build_dir}/tests/test_rpc" 'Rpc.*:RpcDeathTest.*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_daemon" \
    'DaemonTest.*:InlineDispatchTest.*:DeferredReplyTest.*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_store" 'StoreDigestReadTest.*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_asd_scale" \
    'AsdScaleTest.HostCoordinator*' --gtest_repeat=3
}

# Every handshake runs on the reactor, and AceClient parks on a completion
# slot its callback shares, bounded by the handshake timeout: a slot that
# outlives a timed-out waiter, or a reconnect racing a drop, is what TSan
# and ASan should see. Replay the channel, network and Jini suites and the
# client's handshake, retry and drop tests in both sanitizer legs, and the
# certificate authority issuing identities to several threads at once, as
# clients made on several threads make it do.
handshake_sweep() {
  local build_dir="$1"
  echo "=== handshake hand-off sweep: ${build_dir} ==="
  run_filtered "${build_dir}/tests/test_crypto" 'ChannelTest.*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_net" 'Network.*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_baselines" 'Jini.*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_rpc" \
'Rpc.SlowHandshaker*:Rpc.RetriesReconnect*:Rpc.DropConnection*:'\
'Rpc.HandshakeInFlight*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_crypto" \
    'CertificateAuthorityTest.ConcurrentIssueGivesDistinctSerials' \
    --gtest_repeat=3
}

# The sanitizer legs build with the never-block check compiled in
# (ACE_SANITIZE defines ACE_CHECK_NEVER_BLOCK, src/net/CMakeLists.txt), so
# their whole ctest run aborts any core task that would block. The death
# test skips itself when the check is compiled out; a skip here means the
# check fell out of the build.
require_never_block_check() {
  local build_dir="$1" out
  echo "=== never-block check compiled in: ${build_dir} ==="
  out="$(run_filtered "${build_dir}/tests/test_rpc" 'RpcDeathTest.*')"
  echo "${out}"
  if grep -q '\[  SKIPPED \]' <<<"${out}"; then
    echo "ci.sh: the never-block check is compiled out of ${build_dir}" >&2
    exit 1
  fi
}

# SHA-256 picks its compression from CPUID at run time. On a CPU whose
# /proc/cpuinfo lists sha_ni, the hardware compression must be both
# cross-checked against the portable one and the one Sha256 chose; a
# skip there means the dispatch or the hardware path fell out of the build.
require_sha_hardware() {
  local build_dir="$1" out
  echo "=== SHA-256 hardware compression: ${build_dir} ==="
  if ! grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
    echo "ci.sh: /proc/cpuinfo lists no sha_ni, so Sha256.Hardware* may" \
      "skip here and is not required"
    return 0
  fi
  out="$(run_filtered "${build_dir}/tests/test_crypto" 'Sha256.Hardware*')"
  echo "${out}"
  if grep -q '\[  SKIPPED \]' <<<"${out}"; then
    echo "ci.sh: the CPU lists sha_ni but ${build_dir} skipped the SHA-256" \
      "hardware test" >&2
    exit 1
  fi
}

# Every record one replica pushes to another rides its peer's lane of the
# replica's outbox: the outbox opens and closes with each life of the
# store daemon, a lane ships on the pushing thread and on the one that
# settles its previous shipment, coordinated writes reply from their
# records' settlement (a miss from its fallback on the ops pool), hint
# drains wait on their records' completion set, and read repairs settle
# by callback, wherever their batch settles or as the outbox closes.
# Replay the Outbox's own tests, the hand-off, drain, repair and
# group-commit tests, writes served before on_start, the durable hint
# test, the remote stand-in and the scripted-peer tests (among them a
# read repair queued behind a shipment in flight when the replica stops,
# ScriptedPeerTest.ReadRepairQueuedAtStopLeavesHint, and puts whose peer
# acks late or never) in both sanitizer legs.
replication_path_sweep() {
  local build_dir="$1"
  echo "=== replication path sweep: ${build_dir} ==="
  run_filtered "${build_dir}/tests/test_reactor" 'OutboxTest.*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_store" \
'QuorumStoreTest.HintedHandoff*:QuorumStoreTest.DigestReadRepair*:'\
'QuorumStoreTest.Batcher*:StoreWriteBeforeStartTest.*:'\
'DurableStoreTest.HintsSurvive*:StandInStoreTest.*:ScriptedPeerTest.*' \
    --gtest_repeat=3
}

# Every outbound call a daemon makes rides the one AceClient built with it,
# and a fire-and-forget send asks and feeds its breaker as a call does.
# teardown() closes it, ending a notification handshake under way and
# failing the connects its callback form posted, before the notification
# outbox; stop() and crash() wait for every deferred reply, then close it
# last, after the gossip rounds and outbound lanes that call through it
# have ended, and the next life reuses it; reads served before start()
# use it too. Replay the one-client and close-order tests, the breaker on
# send_only, the callback form settling once however its set ends (so
# LeakSanitizer sees every callback set), the Robustness Manager and
# federation suites (and the manager answering rmStatus and stopping
# while its Net Logger stalls), the daemon stop/crash/restart cases, the
# reads and writes served before start(), and a connect racing its
# listener's destruction in both sanitizer legs.
client_lifetime_sweep() {
  local build_dir="$1"
  echo "=== client lifetime sweep: ${build_dir} ==="
  run_filtered "${build_dir}/tests/test_daemon" \
'OneClientTest.*:DaemonTest.StoppedDaemonRefusesConnections:'\
'DaemonTest.LeaseExpiryRemovesCrashedDaemon:'\
'DaemonTest.AuthorizationRevokedThenCrashIsDeniedAtOnce:'\
'DaemonTest.StopAndCrashEndAStalledSubscriberHandshake:'\
'InlineDispatchTest.LaneCountResetsWithItsQueue' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_rpc" \
    'Rpc.SendOnlyFeedsTheBreaker:CallAll.Callback*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_store" \
'OneClientTest.*:RobustnessTest.*:RobustnessLogTest.*:'\
'StoreReadBeforeStartTest.*:StoreWriteBeforeStartTest.*' --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_federation" 'FederationTest.*' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_net" \
    'Network.ConnectRacingListenerDestructionIsRefused' --gtest_repeat=3
}

# Each destination's lane of the notification outbox counts its
# subscriber's failed deliveries, and resets the count on a delivered one,
# on whichever thread settles its shipment, while command handlers fire
# events and make lanes.
# Replay the drop and reset tests, whose subscriber stops and restarts
# between deliveries, a stalled subscriber beside a live one and across
# its source's stop and crash, and the notifyBatch tests, under TSan.
notify_failure_sweep() {
  local build_dir="$1"
  echo "=== notification failure sweep under ThreadSanitizer ==="
  run_filtered "${build_dir}/tests/test_daemon" \
'DaemonTest.NotifyFailures*:DaemonTest.StalledSubscriberDoesNotDelayOthers:'\
'DaemonTest.StopAndCrashEndAStalledSubscriberHandshake' \
    --gtest_repeat=3
  run_filtered "${build_dir}/tests/test_federation" 'NotifyBatchTest.*' \
    --gtest_repeat=3
}

# Stopping a store coordinator while writers keep replicating races the
# close of its outbox against push() and the shipments in flight; ASan
# catches a write into a freed lane.
batcher_stop_sweep() {
  local build_dir="$1"
  echo "=== replication outbox stop race under AddressSanitizer ==="
  run_filtered "${build_dir}/tests/test_store" \
    'QuorumStoreTest.BatcherStopRace*' --gtest_repeat=5
}

# A pump whose handler captures the owner of its own queue forms a cycle
# that only the pump's release breaks, also when a stopping reactor
# refuses or discards its drain. LeakSanitizer reports such a cycle at
# exit: replay the two release tests, and the RPC suite whose daemons
# close accepted channels while stopping, under ASan.
pump_release_sweep() {
  local build_dir="$1"
  echo "=== pump release under AddressSanitizer ==="
  run_filtered "${build_dir}/tests/test_reactor" \
    'Reactor.*ReleasesPumpCaptures' --gtest_repeat=5
  "${build_dir}/tests/test_rpc" --gtest_repeat=5
}

# Parser::parse decodes every command text a peer sends. Replay its
# properties under ASan: arbitrary bytes, seeded mutations of valid
# commands (bit flips, truncations, grammar-byte insertions, splices), and
# the exact number round trips.
parser_fuzz_sweep() {
  local build_dir="$1"
  echo "=== parser fuzz sweep under AddressSanitizer ==="
  run_filtered "${build_dir}/tests/test_properties" 'ParserProperty.*'
}

# Replays the durable-store suite — power cycles, torn WAL tails, lying
# fsyncs, crash-mid-compaction — under fixed seeds with ASan watching the
# recovery paths (daemon restart reopens the outbox and swaps the monitor
# duty and durable log; lifetime bugs live exactly there). Fixed seeds keep
# failures replayable: ACE_CHAOS_SEED=<seed> reruns the same schedule.
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
    require_sha_hardware build-ci
    doc_lint build-ci
    bench_smoke build-ci
    ;;&
  tsan|all)
    run_config "tsan" build-tsan -DACE_SANITIZE=thread
    chaos_seed_sweep build-tsan
    media_race_sweep build-tsan
    read_path_race_sweep build-tsan
    authz_race_sweep build-tsan
    timer_chain_sweep build-tsan
    replication_path_sweep build-tsan
    client_lifetime_sweep build-tsan
    notify_failure_sweep build-tsan
    require_never_block_check build-tsan
    require_sha_hardware build-tsan
    inline_dispatch_sweep build-tsan
    handshake_sweep build-tsan
    ;;&
  asan|all)
    run_config "asan" build-asan -DACE_SANITIZE=address
    disk_fault_sweep build-asan
    batcher_stop_sweep build-asan
    replication_path_sweep build-asan
    client_lifetime_sweep build-asan
    pump_release_sweep build-asan
    parser_fuzz_sweep build-asan
    require_never_block_check build-asan
    require_sha_hardware build-asan
    handshake_sweep build-asan
    ;;&
  release|tsan|asan|all) ;;
  *)
    echo "usage: $0 [release|tsan|asan]" >&2
    exit 2
    ;;
esac

echo "ci.sh: all requested configurations passed"
