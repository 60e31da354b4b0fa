// Incremental Merkle digest tree for store anti-entropy (Dynamo-style,
// PAPERS.md): replicas exchange O(log n) node hashes, not every entry.
//
// The keyspace is bucketed by the top `depth` bits of the key's ring
// position (Ring::hash_key), giving 2^depth leaves. A leaf's digest is the
// XOR of the per-entry hashes of every object in its bucket — XOR so that
// a write updates its leaf in O(1) (xor out the old entry hash, xor in the
// new) — and each internal node is an order-sensitive mix of its children.
// A local write therefore recomputes exactly one root-to-leaf path:
// O(depth) work, no rescans.
//
// Two replicas compare trees top-down: equal roots mean converged in one
// hash exchange; otherwise they descend only into differing subtrees and
// exchange full key/version lists for the few divergent leaf buckets. For
// a fixed amount of divergence the cost is O(log n) hashes + O(divergent
// bucket) entries, instead of O(n) total entries.
//
// Node ids are 1-based heap indices: root = 1, children of i are 2i and
// 2i+1, leaves occupy [2^depth, 2^(depth+1)). Ids are what the
// `storeDigestTree` command speaks on the wire.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace ace::store {

class MerkleTree {
 public:
  explicit MerkleTree(int depth);

  // Digest of one object record; feed the previous hash back through
  // update() when a key is overwritten.
  static std::uint64_t entry_hash(std::string_view key, std::uint64_t version,
                                  bool deleted);

  // Leaf *bucket index* (0-based) for a key's ring position.
  std::size_t bucket_of(std::uint64_t key_position) const;

  // Applies a record change: `old_hash` is the entry hash the bucket
  // currently contains for this key (0 if the key is new), `new_hash` the
  // replacement (0 to remove). O(depth).
  void update(std::uint64_t key_position, std::uint64_t old_hash,
              std::uint64_t new_hash);

  std::uint64_t root() const { return nodes_[1]; }
  // Digest of heap node `id` (1-based); 0 for out-of-range ids.
  std::uint64_t node(std::size_t id) const;

  int depth() const { return depth_; }
  std::size_t leaf_count() const { return leaf_count_; }
  // Heap id of the first leaf (leaf ids are first_leaf() + bucket index).
  std::size_t first_leaf() const { return leaf_count_; }

  void clear();

 private:
  int depth_;
  std::size_t leaf_count_;
  std::vector<std::uint64_t> nodes_;  // 1-based heap; [0] unused
};

}  // namespace ace::store
