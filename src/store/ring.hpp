// Consistent-hash ring for the sharded persistent store (Ch 6 scaled out;
// partitioning scheme after DeCandia et al., "Dynamo", PAPERS.md).
//
// Every store replica is mapped onto a 64-bit hash circle at `vnodes`
// pseudo-random points ("virtual nodes"), which evens out the per-node
// share of the keyspace and makes adding a node steal small slices from
// everyone instead of half of one victim. A key lives on the first N
// distinct nodes walking clockwise from hash(key) — its *preference list*.
// With N >= cluster size every node owns every key and the ring reduces to
// the paper's "3 copies of everything" Fig 17 cluster; with more nodes the
// namespace shards.
//
// The ring is a pure value: built deterministically from the sorted node
// set, so every replica and every client that knows the same membership
// derives the identical layout with no coordination traffic.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/network.hpp"

namespace ace::store {

// Virtual nodes per replica. Every store replica and every StoreClient
// builds its ring with this count, so all of them derive the same layout.
inline constexpr int kDefaultVnodes = 16;

class Ring {
 public:
  Ring() = default;
  // `nodes` may arrive in any order and with duplicates; the ring sorts and
  // dedups so all parties agree on the layout.
  Ring(std::vector<net::Address> nodes, int vnodes_per_node);

  // Position of a key on the hash circle (also used to index Merkle
  // buckets, so ownership arcs map to contiguous bucket ranges).
  static std::uint64_t hash_key(std::string_view key);

  // The first n distinct nodes clockwise from the key's position.
  std::vector<net::Address> preference_list(std::string_view key,
                                            std::size_t n) const;

  // Every distinct node in clockwise order from the key's position: the
  // preference list followed by the sloppy-quorum fallback candidates.
  std::vector<net::Address> walk(std::string_view key) const;

  bool contains(const net::Address& node) const;

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::vector<net::Address>& nodes() const { return nodes_; }

 private:
  std::vector<net::Address> nodes_;  // sorted, deduped
  // (point hash, index into nodes_) sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

}  // namespace ace::store
