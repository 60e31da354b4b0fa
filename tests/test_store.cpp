// Tests for the persistent store (Ch 6, Fig 17): 3-replica redundancy,
// availability under 1-2 failures, anti-entropy resync, the checkpoint API,
// and the Robustness Manager (restart/robust applications, §5.2-5.3/Ch 9).
// Plus the scaled-out store machinery: consistent-hash ring, Merkle digest
// tree, sharding, sloppy quorums with hinted handoff, and a chaos-driven
// quorum torture run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "ace_test_env.hpp"
#include "chaos/chaos.hpp"
#include "services/launchers.hpp"
#include "services/monitors.hpp"
#include "store/merkle.hpp"
#include "store/persistent_store.hpp"
#include "store/ring.hpp"
#include "store/robustness.hpp"
#include "store/store_client.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("app-host", "svc/app");

    // Three replicas on three hosts, fully meshed (Fig 17).
    for (int i = 0; i < 3; ++i) {
      hosts_.push_back(std::make_unique<daemon::DaemonHost>(
          deployment_->env, "store" + std::to_string(i + 1)));
      daemon::DaemonConfig c;
      c.name = "store" + std::to_string(i + 1);
      c.room = "machine-room";
      c.port = 6000;
      replicas_.push_back(
          &hosts_.back()->add_daemon<store::PersistentStoreDaemon>(c, i + 1));
    }
    for (int i = 0; i < 3; ++i) {
      std::vector<net::Address> peers;
      for (int j = 0; j < 3; ++j)
        if (j != i) peers.push_back(replicas_[j]->address());
      replicas_[i]->set_peers(peers);
      ASSERT_TRUE(replicas_[i]->start().ok());
    }
    for (auto* r : replicas_) addresses_.push_back(r->address());
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts_;
  std::vector<store::PersistentStoreDaemon*> replicas_;
  std::vector<net::Address> addresses_;
};

TEST_F(StoreTest, WriteReplicatesToAllThreeServers) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("ns/app/config", util::to_bytes("v1")).ok());
  for (auto* r : replicas_) {
    auto obj = r->object("ns/app/config");
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(util::to_string(obj->data), "v1");
  }
}

TEST_F(StoreTest, ReadsServedFromAnyReplica) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("k", util::to_bytes("value")).ok());
  for (int i = 0; i < 3; ++i) {
    auto got = store.get("k");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(util::to_string(got.value()), "value");
    store.rotate();  // spread reads (Ch 6 bottleneck argument)
  }
}

TEST_F(StoreTest, LastWriteWinsAcrossReplicas) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("k", util::to_bytes("one")).ok());
  store.rotate();  // write the update through a different replica
  ASSERT_TRUE(store.put("k", util::to_bytes("two")).ok());
  for (auto* r : replicas_) {
    auto obj = r->object("k");
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(util::to_string(obj->data), "two");
  }
}

TEST_F(StoreTest, DeleteTombstonesEverywhere) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("gone", util::to_bytes("x")).ok());
  ASSERT_TRUE(store.remove("gone").ok());
  auto got = store.get("gone");
  EXPECT_FALSE(got.ok());
  for (auto* r : replicas_) EXPECT_EQ(r->object_count(), 0u);
}

TEST_F(StoreTest, ListByNamespacePrefix) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("state/wss/a", util::to_bytes("1")).ok());
  ASSERT_TRUE(store.put("state/wss/b", util::to_bytes("2")).ok());
  ASSERT_TRUE(store.put("state/aud/c", util::to_bytes("3")).ok());
  auto keys = store.list("state/wss/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);
}

TEST_F(StoreTest, SurvivesOneReplicaFailure) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("k", util::to_bytes("before")).ok());

  hosts_[0]->fail();  // replica 1 crashes

  // Paper: "If ... one or two of the servers fail or crash, ACE services
  // may still access the stored information."
  auto got = store.get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(util::to_string(got.value()), "before");

  // Writes also continue (to the surviving pair).
  ASSERT_TRUE(store.put("k2", util::to_bytes("during")).ok());
  EXPECT_TRUE(replicas_[1]->object("k2").has_value());
  EXPECT_TRUE(replicas_[2]->object("k2").has_value());
}

TEST_F(StoreTest, SurvivesTwoReplicaFailures) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("k", util::to_bytes("precious")).ok());
  hosts_[0]->fail();
  hosts_[1]->fail();
  auto got = store.get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(util::to_string(got.value()), "precious");
  ASSERT_TRUE(store.put("k2", util::to_bytes("solo")).ok());
}

TEST_F(StoreTest, RejoiningReplicaCatchesUpViaSync) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("old", util::to_bytes("seen-by-all")).ok());

  hosts_[2]->fail();
  ASSERT_TRUE(store.put("new1", util::to_bytes("missed")).ok());
  ASSERT_TRUE(store.put("new2", util::to_bytes("also-missed")).ok());
  ASSERT_TRUE(store.remove("old").ok());
  EXPECT_FALSE(replicas_[2]->object("new1").has_value());

  // Rejoin: the replica process survived (host network was down); restore
  // connectivity and run anti-entropy. The peer monitor may notice the
  // rejoin and sync first, so the explicit call must succeed but may find
  // nothing left to fetch — assert on converged content, not fetch counts.
  hosts_[2]->restore();
  auto fetched = replicas_[2]->sync_from_peers();
  ASSERT_TRUE(fetched.ok());

  ASSERT_TRUE(replicas_[2]->object("new1").has_value());
  EXPECT_EQ(util::to_string(replicas_[2]->object("new1")->data), "missed");
  ASSERT_TRUE(replicas_[2]->object("new2").has_value());
  ASSERT_TRUE(replicas_[2]->object("old").has_value());
  EXPECT_TRUE(replicas_[2]->object("old")->deleted);
}

TEST_F(StoreTest, PeerRejoinTriggersAutomaticAntiEntropy) {
  store::StoreClient store(*client_, addresses_);
  auto& net = deployment_->env.network();

  // Cut replica 3 off from its peers AND from the client (the daemon
  // itself stays alive, so its peer monitor keeps probing and sees the
  // outage; the client cut keeps it from coordinating the write itself).
  // Hold the partition across a few probe rounds — rejoin detection is a
  // down->up transition, so the monitor must observe the outage first.
  net.set_partitioned("store3", "store1", true);
  net.set_partitioned("store3", "store2", true);
  net.set_partitioned("store3", "app-host", true);
  ASSERT_TRUE(store.put("while-away", util::to_bytes("v")).ok());
  std::this_thread::sleep_for(600ms);
  EXPECT_FALSE(replicas_[2]->object("while-away").has_value());

  net.set_partitioned("store3", "store1", false);
  net.set_partitioned("store3", "store2", false);
  net.set_partitioned("store3", "app-host", false);

  // No manual storeSync: the monitor notices its peers transition back to
  // reachable and runs an anti-entropy round on its own.
  bool converged = false;
  for (int i = 0; i < 600 && !converged; ++i) {
    converged = replicas_[2]->object("while-away").has_value();
    if (!converged) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(converged);
  EXPECT_EQ(util::to_string(replicas_[2]->object("while-away")->data), "v");
  EXPECT_GE(deployment_->env.metrics().counter("store.rejoin_syncs").value(),
            1u);
}

TEST_F(StoreTest, CheckpointApiStoresServiceState) {
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(
      store.save_state("wss", "workspaces", util::to_bytes("blob")).ok());
  auto loaded = store.load_state("wss", "workspaces");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(util::to_string(loaded.value()), "blob");
  auto keys = store.list("state/wss/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 1u);
}

TEST_F(StoreTest, BinaryDataSurvivesHexTransport) {
  store::StoreClient store(*client_, addresses_);
  util::Bytes binary(257);
  for (std::size_t i = 0; i < binary.size(); ++i)
    binary[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(store.put("bin", binary).ok());
  auto got = store.get("bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), binary);
}

// --------------------------------------------------------- ring and merkle

TEST(RingTest, LayoutIsDeterministicAcrossParties) {
  std::vector<net::Address> nodes = {
      {"s1", 6000}, {"s2", 6000}, {"s3", 6000}, {"s4", 6000}};
  std::vector<net::Address> shuffled = {
      {"s3", 6000}, {"s1", 6000}, {"s4", 6000}, {"s2", 6000}};
  store::Ring a(nodes, store::kDefaultVnodes);
  store::Ring b(shuffled, store::kDefaultVnodes);  // order must not matter
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k/" + std::to_string(i);
    EXPECT_EQ(a.preference_list(key, 3), b.preference_list(key, 3)) << key;
  }
}

TEST(RingTest, PreferenceListsAreDistinctAndCapped) {
  std::vector<net::Address> nodes = {
      {"s1", 6000}, {"s2", 6000}, {"s3", 6000}, {"s4", 6000}, {"s5", 6000}};
  store::Ring ring(nodes, store::kDefaultVnodes);
  for (int i = 0; i < 50; ++i) {
    auto prefs = ring.preference_list("k/" + std::to_string(i), 3);
    ASSERT_EQ(prefs.size(), 3u);
    EXPECT_NE(prefs[0], prefs[1]);
    EXPECT_NE(prefs[0], prefs[2]);
    EXPECT_NE(prefs[1], prefs[2]);
    // Asking for more than the cluster yields everyone, once each.
    auto all = ring.preference_list("k/" + std::to_string(i), 99);
    EXPECT_EQ(all.size(), nodes.size());
  }
}

TEST(RingTest, VirtualNodesSpreadOwnership) {
  std::vector<net::Address> nodes = {
      {"s1", 6000}, {"s2", 6000}, {"s3", 6000}, {"s4", 6000}, {"s5", 6000}};
  store::Ring ring(nodes, store::kDefaultVnodes);
  std::map<std::string, int> primary_count;
  for (int i = 0; i < 1000; ++i)
    primary_count[ring.preference_list("obj/" + std::to_string(i), 1)[0]
                       .to_string()]++;
  ASSERT_EQ(primary_count.size(), nodes.size());  // everyone owns something
  for (const auto& [node, count] : primary_count)
    EXPECT_GT(count, 50) << node;  // no starved node (fair share is 200)
}

TEST(MerkleTest, RootDependsOnContentNotHistory) {
  store::MerkleTree a(10);
  store::MerkleTree b(10);
  auto put = [](store::MerkleTree& t, const std::string& key,
                std::uint64_t version) {
    t.update(store::Ring::hash_key(key), 0,
             store::MerkleTree::entry_hash(key, version, false));
  };
  put(a, "x", 1);
  put(a, "y", 2);
  put(b, "y", 2);  // same entries, other order
  put(b, "x", 1);
  EXPECT_EQ(a.root(), b.root());
  EXPECT_NE(a.root(), store::MerkleTree(10).root());

  // An update replaces the old entry hash; both trees track it.
  const std::uint64_t pos = store::Ring::hash_key("x");
  a.update(pos, store::MerkleTree::entry_hash("x", 1, false),
           store::MerkleTree::entry_hash("x", 7, false));
  EXPECT_NE(a.root(), b.root());
  b.update(pos, store::MerkleTree::entry_hash("x", 1, false),
           store::MerkleTree::entry_hash("x", 7, false));
  EXPECT_EQ(a.root(), b.root());
}

TEST(MerkleTest, DivergenceIsLocalizedToOneBucketPath) {
  store::MerkleTree a(10);
  store::MerkleTree b(10);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k/" + std::to_string(i);
    const auto h = store::MerkleTree::entry_hash(key, 1, false);
    a.update(store::Ring::hash_key(key), 0, h);
    b.update(store::Ring::hash_key(key), 0, h);
  }
  const std::uint64_t pos = store::Ring::hash_key("k/42");
  b.update(pos, store::MerkleTree::entry_hash("k/42", 1, false),
           store::MerkleTree::entry_hash("k/42", 9, false));
  ASSERT_NE(a.root(), b.root());
  // Exactly one leaf differs: the changed key's bucket.
  std::size_t differing = 0;
  for (std::size_t leaf = 0; leaf < a.leaf_count(); ++leaf)
    if (a.node(a.first_leaf() + leaf) != b.node(b.first_leaf() + leaf))
      ++differing;
  EXPECT_EQ(differing, 1u);
  EXPECT_NE(a.node(a.first_leaf() + a.bucket_of(pos)),
            b.node(b.first_leaf() + b.bucket_of(pos)));
}

// -------------------------------------------------------- sharded clusters

class ShardedStoreTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 5;

  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("app-host", "svc/app");
    for (int i = 0; i < kNodes; ++i) {
      hosts_.push_back(std::make_unique<daemon::DaemonHost>(
          deployment_->env, "shard" + std::to_string(i + 1)));
      daemon::DaemonConfig c;
      c.name = "shard" + std::to_string(i + 1);
      c.room = "machine-room";
      c.port = 6000;
      replicas_.push_back(
          &hosts_.back()->add_daemon<store::PersistentStoreDaemon>(c, i + 1));
    }
    for (int i = 0; i < kNodes; ++i) {
      std::vector<net::Address> peers;
      for (int j = 0; j < kNodes; ++j)
        if (j != i) peers.push_back(replicas_[j]->address());
      replicas_[i]->set_peers(peers);
      ASSERT_TRUE(replicas_[i]->start().ok());
    }
    for (auto* r : replicas_) addresses_.push_back(r->address());
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts_;
  std::vector<store::PersistentStoreDaemon*> replicas_;
  std::vector<net::Address> addresses_;
};

TEST_F(ShardedStoreTest, EachKeyLandsOnExactlyItsPreferenceList) {
  store::StoreClient store(*client_, addresses_);
  const int kKeys = 30;
  for (int i = 0; i < kKeys; ++i)
    ASSERT_TRUE(
        store.put("obj/" + std::to_string(i), util::to_bytes("v")).ok());

  const store::Ring& ring = replicas_[0]->ring();
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "obj/" + std::to_string(i);
    auto owners = ring.preference_list(key, 3);
    int holders = 0;
    for (int r = 0; r < kNodes; ++r) {
      const bool holds = replicas_[r]->object(key).has_value();
      const bool owner = std::find(owners.begin(), owners.end(),
                                   addresses_[r]) != owners.end();
      EXPECT_EQ(holds, owner) << key << " on replica " << (r + 1);
      if (holds) ++holders;
    }
    EXPECT_EQ(holders, 3) << key;
  }

  // Sharding means nobody stores the whole namespace.
  for (int r = 0; r < kNodes; ++r)
    EXPECT_LT(replicas_[r]->object_count(), static_cast<std::size_t>(kKeys));

  // And every key still reads back through the routed client.
  for (int i = 0; i < kKeys; ++i) {
    auto got = store.get("obj/" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(util::to_string(got.value()), "v");
  }
}

TEST_F(ShardedStoreTest, ClusterListSpansShards) {
  store::StoreClient store(*client_, addresses_);
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(
        store.put("ns/list/" + std::to_string(i), util::to_bytes("x")).ok());
  auto keys = store.list("ns/list/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 12u);
}

namespace {
std::string padded_key(const std::string& prefix, int i) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%03d", i);
  return prefix + buf;
}
}  // namespace

// Paging through storeScan must reproduce exactly the live keys the test
// wrote — same keys, ascending order, tombstones skipped — with every page
// bounded by the requested limit.
TEST_F(ShardedStoreTest, ScanPaginationMatchesListSnapshot) {
  store::StoreClient store(*client_, addresses_);
  for (int i = 0; i < 120; ++i)
    ASSERT_TRUE(store.put(padded_key("scan/", i), util::to_bytes("v")).ok());
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(store.put(padded_key("other/", i), util::to_bytes("x")).ok());
  // Tombstones must be skipped, not emitted.
  for (int i = 0; i < 120; i += 10)
    ASSERT_TRUE(store.remove(padded_key("scan/", i)).ok());

  std::vector<std::string> expected;
  for (int i = 0; i < 120; ++i)
    if (i % 10 != 0) expected.push_back(padded_key("scan/", i));
  ASSERT_EQ(expected.size(), 108u);

  // The client-side list() (default-size pages) returns exactly them.
  auto drained = store.list("scan/");
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(*drained, expected);

  store::StoreScanner scanner = store.scan("scan/", 7);
  std::vector<std::string> paged;
  int pages = 0;
  while (!scanner.done()) {
    auto page = scanner.next_page();
    ASSERT_TRUE(page.ok());
    EXPECT_LE(page->size(), 7u);
    paged.insert(paged.end(), page->begin(), page->end());
    ++pages;
    ASSERT_LT(pages, 1000) << "scan failed to terminate";
  }
  EXPECT_GT(pages, 1);
  EXPECT_EQ(paged, expected);
  EXPECT_GE(deployment_->env.metrics().counter("store.scan_pages").value(),
            static_cast<std::uint64_t>(pages));
}

// The scan cursor contract under churn: keys come out strictly ascending
// with no duplicates, and a key that existed untouched for the whole scan
// is emitted exactly once — regardless of concurrent puts and deletes
// around the cursor.
TEST_F(ShardedStoreTest, ScanCursorStableUnderConcurrentChurn) {
  store::StoreClient store(*client_, addresses_);
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(store.put(padded_key("churn/k", i), util::to_bytes("v")).ok());

  store::StoreScanner scanner = store.scan("churn/", 5);
  std::vector<std::string> emitted;
  int round = 0;
  while (!scanner.done()) {
    auto page = scanner.next_page();
    ASSERT_TRUE(page.ok());
    emitted.insert(emitted.end(), page->begin(), page->end());
    // Churn between pages: new keys ahead of and behind the cursor,
    // deletes of odd keys ahead, rewrites of keys already scanned.
    const int i = round++;
    ASSERT_LT(round, 1000) << "scan failed to terminate";
    if (i < 40) {
      ASSERT_TRUE(
          store.put(padded_key("churn/zz", i), util::to_bytes("new")).ok());
      ASSERT_TRUE(
          store.put(padded_key("churn/a", i), util::to_bytes("new")).ok());
      if (i * 2 + 1 < 100) {
        ASSERT_TRUE(store.remove(padded_key("churn/k", i * 2 + 1)).ok());
      }
      ASSERT_TRUE(
          store.put(padded_key("churn/k", i * 2), util::to_bytes("w")).ok());
    }
  }

  // Strictly ascending — which also means duplicate-free.
  for (std::size_t i = 1; i < emitted.size(); ++i)
    ASSERT_LT(emitted[i - 1], emitted[i]) << "at index " << i;
  // Every key untouched for the scan's whole lifetime shows up exactly
  // once (even indices are rewritten with the same key, which must not
  // duplicate or drop them either — count them too).
  for (int i = 0; i < 100; i += 2)
    EXPECT_EQ(std::count(emitted.begin(), emitted.end(),
                         padded_key("churn/k", i)),
              1)
        << padded_key("churn/k", i);
}

// ------------------------------------------- quorums, hints, chaos torture

class QuorumStoreTest : public ::testing::Test {
 protected:
  void start_cluster(store::StoreOptions opts) {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("app-host", "svc/app");
    for (int i = 0; i < 3; ++i) {
      hosts_.push_back(std::make_unique<daemon::DaemonHost>(
          deployment_->env, "store" + std::to_string(i + 1)));
      daemon::DaemonConfig c;
      c.name = "store" + std::to_string(i + 1);
      c.room = "machine-room";
      c.port = 6000;
      replicas_.push_back(&hosts_.back()->add_daemon<store::PersistentStoreDaemon>(
          c, i + 1, opts));
    }
    for (int i = 0; i < 3; ++i) {
      std::vector<net::Address> peers;
      for (int j = 0; j < 3; ++j)
        if (j != i) peers.push_back(replicas_[j]->address());
      replicas_[i]->set_peers(peers);
      ASSERT_TRUE(replicas_[i]->start().ok());
    }
    for (auto* r : replicas_) addresses_.push_back(r->address());
  }

  std::size_t total_hints() const {
    std::size_t n = 0;
    for (auto* r : replicas_) n += r->hints_pending();
    return n;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts_;
  std::vector<store::PersistentStoreDaemon*> replicas_;
  std::vector<net::Address> addresses_;
};

TEST_F(QuorumStoreTest, StrictQuorumRejectsWhenTooFewReplicasAck) {
  store::StoreOptions opts;
  opts.write_quorum = 3;  // every owner must ack
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("k", util::to_bytes("all-up")).ok());

  hosts_[2]->fail();
  // W=3 with one replica down: on a 3-node ring there is no fallback
  // successor, so only 2 acks are reachable and the write must fail...
  EXPECT_FALSE(store.put("k2", util::to_bytes("x")).ok());
  EXPECT_GE(
      deployment_->env.metrics().counter("store.quorum_failures").value(),
      1u);

  // ...while W=2 semantics (the surviving majority) are covered by
  // ChaosQuorumTortureNeverLosesAckedWrites below.
  hosts_[2]->restore();
}

TEST_F(QuorumStoreTest, HintedHandoffDrainsOnHeal) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.probe_interval = std::chrono::milliseconds(100);
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);
  auto& metrics = deployment_->env.metrics();

  hosts_[2]->fail();
  ASSERT_TRUE(store.put("hinted/k", util::to_bytes("v")).ok());
  // The coordinator could not reach replica 3; some survivor holds a hint
  // naming it as the intended owner.
  EXPECT_GE(metrics.counter("store.hints_recorded").value(), 1u);
  EXPECT_GE(total_hints(), 1u);
  EXPECT_FALSE(replicas_[2]->object("hinted/k").has_value());

  // Heal: restore the network AND relaunch the crashed replica (fail()
  // models a machine death, so the daemon must be started again).
  hosts_[2]->restore();
  ASSERT_TRUE(replicas_[2]->start().ok());
  // The peer monitor notices the heal and pushes the hinted write home.
  // The hint leaves the ledger when its handoff starts and the counter
  // ticks when the owner's ack gets back, a beat later — poll for both.
  bool drained = false;
  for (int i = 0; i < 600 && !drained; ++i) {
    drained = replicas_[2]->object("hinted/k").has_value() &&
              total_hints() == 0 &&
              metrics.counter("store.hints_drained").value() >= 1;
    if (!drained) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(drained);
  EXPECT_EQ(util::to_string(replicas_[2]->object("hinted/k")->data), "v");
  EXPECT_GE(metrics.counter("store.hints_drained").value(), 1u);
}

// The E16 durability claim as a test: replicas crash and restart mid
// write-storm (chaos schedule, fixed seed, at most one replica down at a
// time), writes use a strict W=2 sloppy quorum, and at the end every write
// that was *acknowledged* must read back with its final value. Replay any
// failure with ACE_CHAOS_SEED=<seed>.
TEST_F(QuorumStoreTest, ChaosQuorumTortureNeverLosesAckedWrites) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  opts.probe_interval = std::chrono::milliseconds(100);
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);

  chaos::ScheduleParams params;
  params.duration = std::chrono::milliseconds(2500);
  params.mean_interval = std::chrono::milliseconds(300);
  params.min_fault = std::chrono::milliseconds(200);
  params.max_fault = std::chrono::milliseconds(700);
  params.service_cooldown = std::chrono::milliseconds(300);
  params.weight_service_crash = 1;  // crash/restart faults only
  params.weight_link_down = 0;
  params.weight_host_isolate = 0;
  params.weight_latency_spike = 0;
  params.weight_loss_burst = 0;
  params.max_concurrent_crashes = 1;  // keep a W=2 majority alive
  chaos::Targets targets;
  targets.services = {"store1", "store2", "store3"};
  targets.hosts = {"store1", "store2", "store3"};
  auto schedule =
      chaos::generate_schedule(chaos::seed_from_env(0x57a6e), params, targets);
  int crashes = 0;
  for (const auto& e : schedule.events)
    if (e.kind == chaos::FaultKind::service_crash) ++crashes;

  // Writer storm: per key, remember the sequence number of the last write
  // whose put returned ok (quorum met). A rejected write may still have
  // landed on some replicas with a newer version — allowed to win LWW —
  // so the durability contract is monotone: the final value must be the
  // acked write or a *later* one, never an older state and never absent.
  std::mutex acked_mu;
  std::map<std::string, int> acked;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string key = "t/" + std::to_string(i % 64);
      if (store.put(key, util::to_bytes("v" + std::to_string(i))).ok()) {
        std::scoped_lock lock(acked_mu);
        acked[key] = i;
      }
      ++i;
      std::this_thread::sleep_for(1ms);
    }
  });

  auto by_name = [&](const std::string& name) {
    return replicas_[name == "store1" ? 0 : name == "store2" ? 1 : 2];
  };
  const auto start = std::chrono::steady_clock::now();
  for (const auto& e : schedule.events) {
    std::this_thread::sleep_until(start + e.at);
    if (e.kind == chaos::FaultKind::service_crash)
      by_name(e.a)->crash();
    else if (e.kind == chaos::FaultKind::service_restart)
      ASSERT_TRUE(by_name(e.a)->start().ok());
  }
  std::this_thread::sleep_until(start + schedule.duration);
  stop.store(true);
  writer.join();
  EXPECT_GT(crashes, 0) << "schedule with this seed injected no faults";

  // Heal: every replica is restarted by the schedule's paired restart
  // events; wait for hints to drain and anti-entropy to converge.
  bool settled = false;
  for (int i = 0; i < 1000 && !settled; ++i) {
    settled = total_hints() == 0 &&
              replicas_[0]->merkle_root() == replicas_[1]->merkle_root() &&
              replicas_[1]->merkle_root() == replicas_[2]->merkle_root();
    if (!settled) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(settled) << "cluster did not converge after the storm";

  // Durability: every acknowledged write reads back, at its own value or a
  // later one.
  std::size_t checked = 0;
  for (const auto& [key, seq] : acked) {
    auto got = store.get(key);
    ASSERT_TRUE(got.ok()) << key << " lost (seed " << schedule.seed << ")";
    const std::string value = util::to_string(got.value());
    ASSERT_TRUE(value.size() > 1 && value[0] == 'v') << value;
    EXPECT_GE(std::stoi(value.substr(1)), seq)
        << key << " rolled back (seed " << schedule.seed << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "storm acknowledged no writes";
  // The R=2 verification reads above all went through the digest fan-out;
  // the acked-write monotonicity they just proved is the chaos-level
  // correctness check for the parallel read path.
  EXPECT_GT(deployment_->env.metrics().counter("store.digest_reads").value(),
            0u);
}

// A read that observes a stale replica repairs it in the background: after
// a partition heals, one strict-quorum read is enough to push the newest
// version back onto the replica that missed it — without waiting for the
// anti-entropy pass.
TEST_F(QuorumStoreTest, DigestReadRepairConvergesStaleReplica) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 3;
  // Park the peer monitor: its first pass runs at boot, then it sleeps for
  // a minute — so neither hint drain nor anti-entropy can converge the
  // stale replica during this test. Only read repair can.
  opts.probe_interval = std::chrono::seconds(60);
  start_cluster(opts);
  auto& metrics = deployment_->env.metrics();
  auto& net = deployment_->env.network();

  cmdlang::CmdLine put1("storePut");
  put1.arg("key", "rr/k");
  put1.arg("data", "7631");  // "v1"
  auto r1 = client_->call(addresses_[0], put1);
  ASSERT_TRUE(r1.ok() && cmdlang::is_ok(r1.value()));

  // Cut store3 off and write v2 through store1: the W=2 sloppy quorum
  // succeeds while store3 keeps v1.
  net.set_partitioned("store3", "store1", true);
  net.set_partitioned("store3", "store2", true);
  net.set_partitioned("store3", "app-host", true);
  cmdlang::CmdLine put2("storePut");
  put2.arg("key", "rr/k");
  put2.arg("data", "7632");  // "v2"
  auto r2 = client_->call(addresses_[0], put2);
  ASSERT_TRUE(r2.ok() && cmdlang::is_ok(r2.value()));
  ASSERT_EQ(util::to_string(replicas_[2]->object("rr/k")->data), "v1");

  net.set_partitioned("store3", "store1", false);
  net.set_partitioned("store3", "store2", false);
  net.set_partitioned("store3", "app-host", false);

  // An R=3 read via store1 sees store3's stale digest, answers v2, and
  // schedules the repair.
  cmdlang::CmdLine get("storeGet");
  get.arg("key", "rr/k");
  auto got = client_->call(addresses_[0], get);
  ASSERT_TRUE(got.ok() && cmdlang::is_ok(got.value()));
  EXPECT_EQ(got->get_text("data"), "7632");
  EXPECT_GE(metrics.counter("store.digest_reads").value(), 1u);
  EXPECT_GE(metrics.counter("store.digest_mismatches").value(), 1u);

  // The replica converges when it applies the repair; the counter ticks a
  // beat later, when the ack reaches the coordinator's repair task — poll
  // for both.
  bool repaired = false;
  for (int i = 0; i < 600 && !repaired; ++i) {
    auto obj = replicas_[2]->object("rr/k");
    repaired = obj && util::to_string(obj->data) == "v2" &&
               metrics.counter("store.read_repairs").value() >= 1;
    if (!repaired) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(repaired) << "read repair never converged the stale replica";

  // Round two, with the *coordinator itself* stale: store3 misses v3, then
  // coordinates the read. Its own copy is outvoted by the remote digests;
  // the reply must still be v3 and the local copy self-heals inline.
  net.set_partitioned("store3", "store1", true);
  net.set_partitioned("store3", "store2", true);
  cmdlang::CmdLine put3("storePut");
  put3.arg("key", "rr/k");
  put3.arg("data", "7633");  // "v3"
  auto r3 = client_->call(addresses_[0], put3);
  ASSERT_TRUE(r3.ok() && cmdlang::is_ok(r3.value()));
  net.set_partitioned("store3", "store1", false);
  net.set_partitioned("store3", "store2", false);

  auto got3 = client_->call(addresses_[2], get);
  ASSERT_TRUE(got3.ok() && cmdlang::is_ok(got3.value()));
  EXPECT_EQ(got3->get_text("data"), "7633");
  auto self = replicas_[2]->object("rr/k");
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(util::to_string(self->data), "v3");
}

// With R=3 and a dead owner the read quorum is unreachable: the
// coordinator must say so (unavailable + counter), never serve a value it
// could not corroborate.
TEST_F(QuorumStoreTest, ReadQuorumUnavailableIsSurfaced) {
  store::StoreOptions opts;
  opts.read_quorum = 3;
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);
  ASSERT_TRUE(store.put("q/k", util::to_bytes("v")).ok());

  hosts_[2]->fail();
  cmdlang::CmdLine get("storeGet");
  get.arg("key", "q/k");
  auto reply = client_->call(addresses_[0], get);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(cmdlang::is_error(reply.value()));
  EXPECT_EQ(cmdlang::reply_error(reply.value()).code,
            util::Errc::unavailable);
  EXPECT_GE(
      deployment_->env.metrics().counter("store.read_unavailable").value(),
      1u);
  hosts_[2]->restore();
}

// A write can reach a replica before on_start has built its replication
// batcher (commands are served while start() still runs). Every peer then
// counts as a miss: the write applies locally and leaves one hint per
// owner for the monitor to hand off, instead of touching a batcher that
// does not exist yet.
TEST(StoreWriteBeforeStartTest, PeersBecomeHintsWithoutBatcher) {
  daemon::Environment env(5);
  daemon::DaemonHost host(env, "store1");
  daemon::DaemonConfig c;
  c.name = "store1";
  c.room = "machine-room";
  c.port = 6000;
  auto& replica = host.add_daemon<store::PersistentStoreDaemon>(c, 1);
  replica.set_peers({net::Address{"store2", 6000}, net::Address{"store3", 6000}});

  CmdLine put("storePut");
  put.arg("key", "early/k");
  put.arg("data", store::hex_of(util::to_bytes("v")));
  const CmdLine reply = replica.execute(put, daemon::CallerInfo{});
  ASSERT_TRUE(cmdlang::is_ok(reply)) << reply.to_string();
  EXPECT_EQ(reply.get_integer("acks"), 1);
  EXPECT_EQ(replica.hints_pending(), 2u);
  ASSERT_TRUE(replica.object("early/k").has_value());
}

// Read contract of the digest fan-out: binary payloads, overwrites,
// deletes and a stale-replica window must read back exactly as the
// workload wrote them.
TEST(StoreDigestReadTest, DigestReadsReturnWorkloadOutcomes) {
  struct MiniCluster {
    MiniCluster() {
      store::StoreOptions opts;
      opts.write_quorum = 2;
      opts.read_quorum = 2;
      opts.probe_interval = std::chrono::seconds(60);
      env = std::make_unique<testenv::AceTestEnv>();
      EXPECT_TRUE(env->start().ok());
      client = env->make_client("app-host", "svc/app");
      for (int i = 0; i < 3; ++i) {
        hosts.push_back(std::make_unique<daemon::DaemonHost>(
            env->env, "store" + std::to_string(i + 1)));
        daemon::DaemonConfig c;
        c.name = "store" + std::to_string(i + 1);
        c.room = "machine-room";
        c.port = 6000;
        replicas.push_back(&hosts.back()->add_daemon<store::PersistentStoreDaemon>(
            c, i + 1, opts));
      }
      for (int i = 0; i < 3; ++i) {
        std::vector<net::Address> peers;
        for (int j = 0; j < 3; ++j)
          if (j != i) peers.push_back(replicas[j]->address());
        replicas[i]->set_peers(peers);
        EXPECT_TRUE(replicas[i]->start().ok());
      }
      for (auto* r : replicas) addresses.push_back(r->address());
      store = std::make_unique<store::StoreClient>(*client, addresses);
    }

    // One deterministic workload; returns every read outcome, encoded.
    std::vector<std::string> run() {
      util::Bytes all_bytes;
      for (int i = 0; i < 256; ++i)
        all_bytes.push_back(static_cast<std::uint8_t>(i));
      EXPECT_TRUE(store->put("a/bin", all_bytes).ok());
      EXPECT_TRUE(store->put("a/x", util::to_bytes("first")).ok());
      EXPECT_TRUE(store->put("a/x", util::to_bytes("second")).ok());
      EXPECT_TRUE(store->put("a/gone", util::to_bytes("doomed")).ok());
      EXPECT_TRUE(store->remove("a/gone").ok());
      // Stale-replica window: store3 misses an overwrite, then the
      // partition heals and reads must still see the newest value.
      auto& net = env->env.network();
      net.set_partitioned("store3", "store1", true);
      net.set_partitioned("store3", "store2", true);
      net.set_partitioned("store3", "app-host", true);
      EXPECT_TRUE(store->put("a/stale", util::to_bytes("newest")).ok());
      net.set_partitioned("store3", "store1", false);
      net.set_partitioned("store3", "store2", false);
      net.set_partitioned("store3", "app-host", false);

      std::vector<std::string> results;
      for (const std::string key : {"a/bin", "a/x", "a/gone", "a/stale",
                                    "a/never-written"}) {
        auto got = store->get(key);
        results.push_back(got.ok() ? "ok:" + util::hex_encode(got.value())
                          : got.error().code == util::Errc::not_found
                              ? "not_found"
                              : "err:" + got.error().to_string());
      }
      return results;
    }

    std::unique_ptr<testenv::AceTestEnv> env;
    std::unique_ptr<daemon::AceClient> client;
    std::vector<std::unique_ptr<daemon::DaemonHost>> hosts;
    std::vector<store::PersistentStoreDaemon*> replicas;
    std::vector<net::Address> addresses;
    std::unique_ptr<store::StoreClient> store;
  };

  MiniCluster cluster;
  util::Bytes all_bytes;
  for (int i = 0; i < 256; ++i) all_bytes.push_back(static_cast<std::uint8_t>(i));
  const std::vector<std::string> expected = {
      "ok:" + util::hex_encode(all_bytes),
      "ok:" + util::hex_encode(util::to_bytes("second")),
      "not_found",
      "ok:" + util::hex_encode(util::to_bytes("newest")),
      "not_found",
  };
  EXPECT_EQ(cluster.run(), expected);
  EXPECT_GE(cluster.env->env.metrics().counter("store.digest_reads").value(),
            1u);
}

// --------------------------------------------------------------- durability

TEST(StoreOptionsValidationTest, RejectsContradictoryConfigs) {
  store::StoreOptions good;
  EXPECT_TRUE(store::validate_store_options(good).ok());

  auto expect_invalid = [](store::StoreOptions bad) {
    auto st = store::validate_store_options(bad);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, util::Errc::invalid);
    // Clear config errors name themselves as such.
    EXPECT_NE(st.error().message.find("store config"), std::string::npos)
        << st.error().message;
  };
  store::StoreOptions bad;
  bad.write_quorum = 4;  // W > N: no schedule of acks can ever satisfy it
  expect_invalid(bad);
  bad = {};
  bad.read_quorum = 4;  // R > N
  expect_invalid(bad);
  bad = {};
  bad.read_quorum = 0;  // a read must consult at least one copy
  expect_invalid(bad);
  bad = {};
  bad.replication = 0;
  expect_invalid(bad);
}

// Crash-consistent durable store: each replica journals to its own
// fault-injectable SimDisk; power cycles wipe memory and recovery must
// rebuild it from snapshot + WAL.
class DurableStoreTest : public ::testing::Test {
 protected:
  void start_cluster(store::StoreOptions base) {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("app-host", "svc/app");
    for (int i = 0; i < 3; ++i) {
      disks_.push_back(std::make_shared<io::SimDisk>(7000 + i));
      hosts_.push_back(std::make_unique<daemon::DaemonHost>(
          deployment_->env, "store" + std::to_string(i + 1)));
      daemon::DaemonConfig c;
      c.name = "store" + std::to_string(i + 1);
      c.room = "machine-room";
      c.port = 6000;
      store::StoreOptions opts = base;
      opts.disk = disks_[i];
      replicas_.push_back(&hosts_.back()->add_daemon<store::PersistentStoreDaemon>(
          c, i + 1, opts));
    }
    for (int i = 0; i < 3; ++i) {
      std::vector<net::Address> peers;
      for (int j = 0; j < 3; ++j)
        if (j != i) peers.push_back(replicas_[j]->address());
      replicas_[i]->set_peers(peers);
      ASSERT_TRUE(replicas_[i]->start().ok());
    }
    for (auto* r : replicas_) addresses_.push_back(r->address());
  }

  // Machine power loss: the process dies AND the disk loses (or tears,
  // if armed) its un-fsynced tails. Memory is gone; disk is the contract.
  void power_off(int i) {
    replicas_[i]->crash();
    disks_[i]->crash();
  }
  void power_on(int i) { ASSERT_TRUE(replicas_[i]->start().ok()); }

  std::size_t total_hints() const {
    std::size_t n = 0;
    for (auto* r : replicas_) n += r->hints_pending();
    return n;
  }

  bool converged() const {
    return total_hints() == 0 &&
           replicas_[0]->merkle_root() == replicas_[1]->merkle_root() &&
           replicas_[1]->merkle_root() == replicas_[2]->merkle_root();
  }

  void wait_converged() {
    bool ok = false;
    for (int i = 0; i < 1000 && !ok; ++i) {
      ok = converged();
      if (!ok) std::this_thread::sleep_for(10ms);
    }
    ASSERT_TRUE(ok) << "cluster did not converge";
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
  std::vector<std::shared_ptr<io::SimDisk>> disks_;
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts_;
  std::vector<store::PersistentStoreDaemon*> replicas_;
  std::vector<net::Address> addresses_;
};

TEST_F(DurableStoreTest, ContradictoryOptionsAlsoFailDaemonStart) {
  deployment_ = std::make_unique<testenv::AceTestEnv>();
  ASSERT_TRUE(deployment_->start().ok());
  hosts_.push_back(std::make_unique<daemon::DaemonHost>(deployment_->env,
                                                        "badstore"));
  daemon::DaemonConfig c;
  c.name = "badstore";
  c.room = "machine-room";
  c.port = 6000;
  store::StoreOptions bad;
  bad.write_quorum = 4;  // > replication
  auto& daemon =
      hosts_.back()->add_daemon<store::PersistentStoreDaemon>(c, 1, bad);
  auto st = daemon.start();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, util::Errc::invalid);
}

TEST_F(DurableStoreTest, AckedWritesSurviveClusterWidePowerLoss) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);

  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(store.put("pw/" + std::to_string(i),
                          util::to_bytes("v" + std::to_string(i)))
                    .ok());

  // Roll replica 1 into a snapshot so recovery exercises snapshot + WAL,
  // via the operator command (replicas 2-3 recover from WAL alone).
  CmdLine compact("storeCompact");
  auto creply = client_->call(addresses_[0], compact);
  ASSERT_TRUE(creply.ok() && cmdlang::is_ok(creply.value()));
  EXPECT_GE(creply->get_integer("records"), 50);

  // Whole-machine-room power loss: all three replicas at once. Nothing
  // survives in memory — what reads back is what the disks held.
  for (int i = 0; i < 3; ++i) power_off(i);
  for (int i = 0; i < 3; ++i) power_on(i);

  for (int i = 0; i < 50; ++i) {
    auto got = store.get("pw/" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "pw/" << i << " lost across power cycle";
    EXPECT_EQ(util::to_string(got.value()), "v" + std::to_string(i));
  }

  // Replica 1 recovered from its snapshot; its generation moved past 0.
  auto rs = replicas_[0]->last_recovery();
  EXPECT_GE(rs.generation, 1);
  EXPECT_GE(rs.snapshot_records, 50u);
  EXPECT_GE(replicas_[1]->last_recovery().wal_records, 50u);

  // storeWalStats reports the durable plane; recoveries counts both the
  // boot-time (empty-disk) recovery and the real one.
  CmdLine stats("storeWalStats");
  auto reply = client_->call(addresses_[0], stats);
  ASSERT_TRUE(reply.ok() && cmdlang::is_ok(reply.value()));
  EXPECT_EQ(reply->get_text("durable"), "yes");
  EXPECT_GE(reply->get_integer("recoveries"), 2);
  EXPECT_GE(reply->get_integer("compactions"), 1);
  EXPECT_GE(
      deployment_->env.metrics().counter("store.recoveries").value(), 6u);
  EXPECT_GE(
      deployment_->env.metrics().counter("store.wal_appends").value(), 150u);
  EXPECT_GE(
      deployment_->env.metrics().counter("store.wal_fsyncs").value(), 1u);
}

TEST_F(DurableStoreTest, TornWalTailIsDetectedDroppedAndRepaired) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  opts.probe_interval = std::chrono::milliseconds(100);
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);

  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(
        store.put("early/" + std::to_string(i), util::to_bytes("e")).ok());

  // From here on replica 1's disk lies about fsync: acked writes stay in
  // the volatile tail. A torn power loss then shreds that tail mid-record.
  disks_[0]->arm_fsync_drop(-1);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(
        store.put("late/" + std::to_string(i), util::to_bytes("l")).ok());
  disks_[0]->arm_torn_tail();
  power_off(0);
  power_on(0);

  // Recovery detected the torn tail by CRC and chopped it off.
  auto rs = replicas_[0]->last_recovery();
  EXPECT_GE(rs.torn_tails, 1u);
  EXPECT_GT(rs.torn_bytes, 0u);
  EXPECT_GE(deployment_->env.metrics()
                .counter("store.wal_torn_tail_dropped")
                .value(),
            1u);

  // The fsynced prefix survived locally...
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(replicas_[0]->object("early/" + std::to_string(i)).has_value())
        << "early/" << i;
  // ...and every acked write still reads back (W=2 put a durable copy on a
  // peer), with anti-entropy refilling replica 1's lost tail.
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(store.get("late/" + std::to_string(i)).ok()) << "late/" << i;
  bool refilled = false;
  for (int i = 0; i < 600 && !refilled; ++i) {
    refilled = true;
    for (int k = 0; k < 8; ++k)
      refilled = refilled &&
                 replicas_[0]->object("late/" + std::to_string(k)).has_value();
    if (!refilled) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(refilled) << "anti-entropy did not repair the torn tail";
}

TEST_F(DurableStoreTest, CorruptSnapshotFallsBackAGeneration) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);

  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(
        store.put("a/" + std::to_string(i), util::to_bytes("1")).ok());
  auto compacted = replicas_[0]->compact_now();
  ASSERT_TRUE(compacted.ok());
  EXPECT_GE(compacted.value(), 10);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(
        store.put("b/" + std::to_string(i), util::to_bytes("2")).ok());

  // Latent media corruption in the published snapshot. Recovery must
  // refuse it (CRC) and fall back to the retained previous generation's
  // chain — here the full WAL history, which still covers everything.
  ASSERT_TRUE(disks_[0]->inject_bit_rot("store1.snap."));
  power_off(0);
  power_on(0);

  auto rs = replicas_[0]->last_recovery();
  EXPECT_GE(rs.snapshot_fallbacks, 1u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(replicas_[0]->object("a/" + std::to_string(i)).has_value())
        << "a/" << i;
    EXPECT_TRUE(replicas_[0]->object("b/" + std::to_string(i)).has_value())
        << "b/" << i;
  }
  EXPECT_GE(
      deployment_->env.metrics().counter("store.snapshot_fallbacks").value(),
      1u);
}

TEST_F(DurableStoreTest, HintsSurviveCoordinatorPowerLoss) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.probe_interval = std::chrono::milliseconds(100);
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);

  hosts_[2]->fail();  // replica 3's machine drops off the network
  ASSERT_TRUE(store.put("hinted/k", util::to_bytes("v")).ok());
  ASSERT_GE(replicas_[0]->hints_pending(), 1u)
      << "coordinator should hold the hint on a 3-node ring";

  // The coordinator loses power before it can hand the write home. The
  // hint was WAL-logged and fsynced before the ack, so the handoff
  // obligation must survive the power cycle.
  power_off(0);
  power_on(0);
  EXPECT_GE(replicas_[0]->hints_pending(), 1u)
      << "hint lost across power cycle";

  hosts_[2]->restore();
  ASSERT_TRUE(replicas_[2]->start().ok());
  bool drained = false;
  for (int i = 0; i < 600 && !drained; ++i) {
    drained = replicas_[2]->object("hinted/k").has_value() &&
              total_hints() == 0;
    if (!drained) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(drained) << "recovered hint did not drain to its owner";
  EXPECT_EQ(util::to_string(replicas_[2]->object("hinted/k")->data), "v");
}

// The durability claim under *combined* chaos: machine power cycles
// (process + disk crash) interleaved with disk faults (torn tails, lying
// fsyncs) while compaction races the write storm. Every acknowledged write
// must read back — at its value or a later one — both after the storm and
// after one final whole-cluster power cycle, which proves the surviving
// state is on disk rather than in memory. Replay with ACE_CHAOS_SEED.
TEST_F(DurableStoreTest, ChaosPowerCycleTortureNeverLosesAckedWrites) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  opts.probe_interval = std::chrono::milliseconds(100);
  opts.compact_wal_bytes = 16u << 10;  // compact often, mid-storm
  start_cluster(opts);
  store::StoreClient store(*client_, addresses_);

  chaos::ScheduleParams params;
  params.duration = std::chrono::milliseconds(2500);
  params.mean_interval = std::chrono::milliseconds(250);
  params.min_fault = std::chrono::milliseconds(200);
  params.max_fault = std::chrono::milliseconds(700);
  params.service_cooldown = std::chrono::milliseconds(300);
  params.weight_service_crash = 2;
  params.weight_link_down = 0;
  params.weight_host_isolate = 0;
  params.weight_latency_spike = 0;
  params.weight_loss_burst = 0;
  params.weight_disk_fault = 3;
  params.disk_bit_rot = false;  // torn tails + dropped fsyncs (see E19b)
  params.fsync_drop_count = 2;
  params.max_concurrent_crashes = 1;  // keep a W=2 majority alive
  chaos::Targets targets;
  targets.services = {"store1", "store2", "store3"};
  targets.hosts = {"store1", "store2", "store3"};
  targets.disks = {"store1", "store2", "store3"};
  auto schedule =
      chaos::generate_schedule(chaos::seed_from_env(0xd15c), params, targets);
  int disk_faults = 0, crashes = 0;
  for (const auto& e : schedule.events) {
    if (e.kind == chaos::FaultKind::service_crash) ++crashes;
    if (e.kind == chaos::FaultKind::disk_torn_tail ||
        e.kind == chaos::FaultKind::disk_fsync_drop)
      ++disk_faults;
  }
  ASSERT_GT(crashes, 0) << "seed " << schedule.seed << " crashed nothing";
  ASSERT_GT(disk_faults, 0) << "seed " << schedule.seed << " hurt no disk";

  chaos::ChaosEngine engine(deployment_->env, schedule);
  for (int i = 0; i < 3; ++i) {
    const std::string name = "store" + std::to_string(i + 1);
    engine.add_service(name, replicas_[i]);
    engine.add_disk(name, disks_[i].get());  // crash = machine power event
  }

  std::mutex acked_mu;
  std::map<std::string, int> acked;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string key = "t/" + std::to_string(i % 64);
      if (store.put(key, util::to_bytes("v" + std::to_string(i))).ok()) {
        std::scoped_lock lock(acked_mu);
        acked[key] = i;
      }
      ++i;
      std::this_thread::sleep_for(1ms);
    }
  });

  engine.start();
  engine.join();
  stop.store(true);
  writer.join();

  wait_converged();

  auto check_all = [&](const char* when) {
    std::size_t checked = 0;
    for (const auto& [key, seq] : acked) {
      auto got = store.get(key);
      ASSERT_TRUE(got.ok()) << key << " lost " << when << " (seed "
                            << schedule.seed << ")";
      const std::string value = util::to_string(got.value());
      ASSERT_TRUE(value.size() > 1 && value[0] == 'v') << value;
      EXPECT_GE(std::stoi(value.substr(1)), seq)
          << key << " rolled back " << when << " (seed " << schedule.seed
          << ")";
      ++checked;
    }
    EXPECT_GT(checked, 0u) << "storm acknowledged no writes";
  };
  check_all("after the storm");

  // Nothing read back so far is allowed to live only in memory.
  for (int i = 0; i < 3; ++i) power_off(i);
  for (int i = 0; i < 3; ++i) power_on(i);
  wait_converged();
  check_all("after the final power cycle");

  auto& metrics = deployment_->env.metrics();
  EXPECT_GE(metrics.counter("chaos.disk_faults").value(), 1u);
  EXPECT_GE(metrics.counter("store.recoveries").value(),
            static_cast<std::uint64_t>(3 + crashes + 3));
}

// --------------------------------------------------------------- robustness

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("ops", "user/ops");
    work_host_ =
        std::make_unique<daemon::DaemonHost>(deployment_->env, "worker");

    auto& hal = work_host_->add_daemon<services::HalDaemon>(cfg("hal"));
    auto& sal = work_host_->add_daemon<services::SalDaemon>(cfg("sal"));
    ASSERT_TRUE(hal.start().ok());
    ASSERT_TRUE(sal.start().ok());
    hal_ = &hal;
  }

  daemon::DaemonConfig cfg(const std::string& name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "machine-room";
    return c;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
  std::unique_ptr<daemon::DaemonHost> work_host_;
  services::HalDaemon* hal_ = nullptr;
};

TEST_F(RobustnessTest, RestartServiceIsRelaunchedAfterCrash) {
  // The managed "fragile" service: each relaunch constructs a fresh daemon.
  daemon::DaemonConfig fragile_cfg = cfg("fragile");
  fragile_cfg.lease = 300ms;
  fragile_cfg.lease_renew = 100ms;
  auto* fragile = &work_host_->add_daemon<services::HrmDaemon>(fragile_cfg);
  ASSERT_TRUE(fragile->start().ok());

  std::atomic<int> launches{0};
  hal_->register_launchable("fragile", [&]() -> util::Status {
    daemon::DaemonConfig c = cfg("fragile");
    c.lease = 300ms;
    c.lease_renew = 100ms;
    c.port = 0;
    auto& revived = work_host_->add_daemon<services::HrmDaemon>(c);
    launches++;
    return revived.start();
  });

  auto& rm = work_host_->add_daemon<store::RobustnessManagerDaemon>(cfg("rm"));
  ASSERT_TRUE(rm.start().ok());

  CmdLine manage("rmRegister");
  manage.arg("name", Word{"fragile"});
  manage.arg("kind", Word{"restart"});
  manage.arg("host", "worker");
  ASSERT_TRUE(client_->call(rm.address(), manage, daemon::kCallOk).ok());

  fragile->crash();

  // Lease expiry -> ASD serviceExpired notification -> RM -> SAL -> HAL.
  // `launches` flips as soon as the HAL launchable runs, but the RM only
  // counts the restart once the salLaunchService reply makes it back up
  // the chain — poll for both before asserting.
  bool relaunched = false;
  for (int i = 0; i < 400 && !relaunched; ++i) {
    relaunched = launches.load() > 0 && rm.total_restarts() >= 1;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(relaunched);
  EXPECT_GE(rm.total_restarts(), 1);

  // The revived instance is findable through the ASD again.
  bool visible = false;
  for (int i = 0; i < 200 && !visible; ++i) {
    visible = services::AsdClient(*client_, deployment_->env.asd_address).lookup("fragile")
                  .ok();
    if (!visible) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(visible);
}

TEST_F(RobustnessTest, UnmanagedServicesAreNotRelaunched) {
  daemon::DaemonConfig c = cfg("unmanaged");
  c.lease = 300ms;
  c.lease_renew = 100ms;
  auto* svc = &work_host_->add_daemon<services::HrmDaemon>(c);
  ASSERT_TRUE(svc->start().ok());

  auto& rm = work_host_->add_daemon<store::RobustnessManagerDaemon>(cfg("rm"));
  ASSERT_TRUE(rm.start().ok());

  svc->crash();
  std::this_thread::sleep_for(800ms);
  EXPECT_EQ(rm.total_restarts(), 0);
}
