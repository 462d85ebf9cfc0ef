#include "state/smt.h"

#include <algorithm>
#include <cstring>

namespace porygon::state {

using crypto::Hash256;
using crypto::Sha256;

namespace {
// Domain tags keep leaf and inner hashes from colliding.
constexpr uint8_t kLeafTag = 0x00;
constexpr uint8_t kInnerTag = 0x01;
constexpr uint8_t kEmptyTag = 0x02;

Hash256 InnerHash(const Hash256& left, const Hash256& right) {
  uint8_t node[1 + 2 * sizeof(Hash256)];
  node[0] = kInnerTag;
  std::memcpy(node + 1, left.data(), left.size());
  std::memcpy(node + 1 + left.size(), right.data(), right.size());
  return Sha256::Hash(ByteView(node, sizeof(node)));
}

// Writes `hash` as the node at `prefix` of one level, or erases the entry
// when it equals the level default (absent nodes read as the default).
void StoreNode(std::unordered_map<uint64_t, Hash256>* level, uint64_t prefix,
               const Hash256& hash, const Hash256& level_default) {
  if (hash == level_default) {
    level->erase(prefix);
  } else {
    (*level)[prefix] = hash;
  }
}
}  // namespace

Bytes MerkleProof::Encode() const {
  Bytes out;
  out.reserve(siblings.size() * 32);
  for (const auto& s : siblings) out.insert(out.end(), s.begin(), s.end());
  return out;
}

Result<MerkleProof> MerkleProof::Decode(ByteView data) {
  if (data.size() % 32 != 0) {
    return Status::Corruption("proof length not a multiple of 32");
  }
  MerkleProof p;
  p.siblings.resize(data.size() / 32);
  for (size_t i = 0; i < p.siblings.size(); ++i) {
    std::memcpy(p.siblings[i].data(), data.data() + 32 * i, 32);
  }
  return p;
}

Hash256 SparseMerkleTree::LeafHash(uint64_t key, ByteView value) {
  if (value.empty()) return Defaults()[kDepth];
  uint8_t head[1 + sizeof(uint64_t)];
  head[0] = kLeafTag;
  StoreLittleEndian64(head + 1, key);
  Sha256 h;
  h.Update(ByteView(head, sizeof(head)));
  h.Update(value);
  return h.Finish();
}

const std::array<Hash256, SparseMerkleTree::kDepth + 1>&
SparseMerkleTree::Defaults() {
  static const std::array<Hash256, kDepth + 1>* defaults = [] {
    auto* d = new std::array<Hash256, kDepth + 1>();
    (*d)[kDepth] = Sha256::Hash(ByteView(&kEmptyTag, 1));
    for (int level = kDepth - 1; level >= 0; --level) {
      (*d)[level] = InnerHash((*d)[level + 1], (*d)[level + 1]);
    }
    return d;
  }();
  return *defaults;
}

SparseMerkleTree::SparseMerkleTree() : nodes_(kDepth + 1) {}

Hash256 SparseMerkleTree::NodeAt(int level, uint64_t prefix) const {
  auto it = nodes_[level].find(prefix);
  if (it != nodes_[level].end()) return it->second;
  return Defaults()[level];
}

void SparseMerkleTree::Put(uint64_t key, ByteView value) {
  if (value.empty()) {
    leaves_.erase(key);
  } else {
    leaves_[key] = value.ToBytes();
  }

  Hash256 hash = LeafHash(key, value);
  uint64_t prefix = key;
  for (int level = kDepth; level >= 0; --level) {
    StoreNode(&nodes_[level], prefix, hash, Defaults()[level]);
    if (level == 0) break;
    uint64_t sibling = prefix ^ 1;
    Hash256 sibling_hash = NodeAt(level, sibling);
    hash = (prefix & 1) ? InnerHash(sibling_hash, hash)
                        : InnerHash(hash, sibling_hash);
    prefix >>= 1;
  }
}

void SparseMerkleTree::PutBatch(
    const std::vector<std::pair<uint64_t, Bytes>>& writes) {
  if (writes.empty()) return;
  // Order the writes by key, keeping input order among equal keys, so the
  // last of each run is the write that wins.
  std::vector<std::pair<uint64_t, size_t>> order;
  order.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    order.emplace_back(writes[i].first, i);
  }
  std::sort(order.begin(), order.end());
  // The dirty frontier of one level: (prefix, hash), sorted by prefix with
  // no duplicates, so a node's sibling, when dirty too, is its neighbour.
  std::vector<std::pair<uint64_t, Hash256>> frontier, parents;
  frontier.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i + 1 < order.size() && order[i + 1].first == order[i].first) continue;
    const auto& [key, value] = writes[order[i].second];
    if (value.empty()) {
      leaves_.erase(key);
    } else {
      leaves_[key] = value;
    }
    frontier.emplace_back(key, LeafHash(key, value));
  }
  parents.reserve(frontier.size());
  // Rehash level by level toward the root. An even prefix followed by
  // prefix|1 is a dirty pair; any other node pulls its sibling from the
  // stored tree, which this level's writes never touch for that sibling.
  for (int level = kDepth; level >= 1; --level) {
    const Hash256& level_default = Defaults()[level];
    parents.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
      const auto& [prefix, hash] = frontier[i];
      StoreNode(&nodes_[level], prefix, hash, level_default);
      if ((prefix & 1) == 0 && i + 1 < frontier.size() &&
          frontier[i + 1].first == (prefix | 1)) {
        const Hash256& right = frontier[++i].second;
        StoreNode(&nodes_[level], prefix | 1, right, level_default);
        parents.emplace_back(prefix >> 1, InnerHash(hash, right));
        continue;
      }
      Hash256 sibling = NodeAt(level, prefix ^ 1);
      parents.emplace_back(prefix >> 1, (prefix & 1)
                                            ? InnerHash(sibling, hash)
                                            : InnerHash(hash, sibling));
    }
    frontier.swap(parents);
  }
  // The frontier is now the root alone (level 0, prefix 0).
  StoreNode(&nodes_[0], 0, frontier.front().second, Defaults()[0]);
}

Status SparseMerkleTree::InjectProof(uint64_t key, ByteView value,
                                     const MerkleProof& proof,
                                     const crypto::Hash256& expected_root) {
  if (proof.siblings.size() != kDepth) {
    return Status::InvalidArgument("proof has wrong depth");
  }
  // First verify; only then mutate.
  if (!Verify(expected_root, key, value, proof)) {
    return Status::PermissionDenied("proof does not match root");
  }
  if (!value.empty()) {
    leaves_[key] = value.ToBytes();
  }
  Hash256 hash = LeafHash(key, value);
  uint64_t prefix = key;
  for (int level = kDepth; level >= 1; --level) {
    if (hash != Defaults()[level]) nodes_[level][prefix] = hash;
    const Hash256& sibling = proof.siblings[level - 1];
    if (sibling != Defaults()[level]) nodes_[level][prefix ^ 1] = sibling;
    hash = (prefix & 1) ? InnerHash(sibling, hash) : InnerHash(hash, sibling);
    prefix >>= 1;
  }
  nodes_[0][0] = hash;
  return Status::Ok();
}

Result<Bytes> SparseMerkleTree::Get(uint64_t key) const {
  auto it = leaves_.find(key);
  if (it == leaves_.end()) return Status::NotFound("no such leaf");
  return it->second;
}

Hash256 SparseMerkleTree::Root() const { return NodeAt(0, 0); }

MerkleProof SparseMerkleTree::Prove(uint64_t key) const {
  MerkleProof proof;
  proof.siblings.resize(kDepth);
  uint64_t prefix = key;
  // Collect siblings leaf-up, then store root-adjacent first.
  for (int level = kDepth; level >= 1; --level) {
    proof.siblings[level - 1] = NodeAt(level, prefix ^ 1);
    prefix >>= 1;
  }
  return proof;
}

bool SparseMerkleTree::Verify(const Hash256& root, uint64_t key,
                              ByteView value, const MerkleProof& proof) {
  if (proof.siblings.size() != kDepth) return false;
  Hash256 hash = LeafHash(key, value);
  uint64_t prefix = key;
  for (int level = kDepth; level >= 1; --level) {
    const Hash256& sibling = proof.siblings[level - 1];
    hash = (prefix & 1) ? InnerHash(sibling, hash) : InnerHash(hash, sibling);
    prefix >>= 1;
  }
  return hash == root;
}

void SparseMerkleTree::ForEach(
    const std::function<void(uint64_t, ByteView)>& fn) const {
  for (const auto& [key, value] : leaves_) fn(key, value);
}

}  // namespace porygon::state
