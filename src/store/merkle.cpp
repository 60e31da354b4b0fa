#include "store/merkle.hpp"

#include <algorithm>

#include "store/ring.hpp"

namespace ace::store {

namespace {

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  // Order-sensitive combiner (boost::hash_combine shape, 64-bit constant),
  // so sibling swaps and child/parent confusions change the parent digest.
  std::uint64_t h = a + 0x9e3779b97f4a7c15ULL;
  h ^= b + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

MerkleTree::MerkleTree(int depth)
    : depth_(std::clamp(depth, 1, 20)),
      leaf_count_(std::size_t{1} << depth_),
      nodes_(leaf_count_ * 2, 0) {
  // Establish the invariant node[i] = mix2(children) even over empty
  // leaves, so trees with identical content always compare equal no matter
  // what update history produced them.
  for (std::size_t id = leaf_count_ - 1; id >= 1; --id)
    nodes_[id] = mix2(nodes_[2 * id], nodes_[2 * id + 1]);
}

std::uint64_t MerkleTree::entry_hash(std::string_view key,
                                     std::uint64_t version, bool deleted) {
  return mix2(mix2(Ring::hash_key(key), version), deleted ? 0xdeadULL : 0);
}

std::size_t MerkleTree::bucket_of(std::uint64_t key_position) const {
  return static_cast<std::size_t>(key_position >> (64 - depth_));
}

void MerkleTree::update(std::uint64_t key_position, std::uint64_t old_hash,
                        std::uint64_t new_hash) {
  std::size_t id = first_leaf() + bucket_of(key_position);
  nodes_[id] ^= old_hash ^ new_hash;
  for (id /= 2; id >= 1; id /= 2)
    nodes_[id] = mix2(nodes_[2 * id], nodes_[2 * id + 1]);
}

std::uint64_t MerkleTree::node(std::size_t id) const {
  if (id < 1 || id >= nodes_.size()) return 0;
  return nodes_[id];
}

}  // namespace ace::store
