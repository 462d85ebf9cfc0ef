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
// Frontier nodes between a node-table prefetch and its use in PutBatch.
constexpr size_t kPrefetchAhead = 6;

Hash256 InnerHash(const Hash256& left, const Hash256& right) {
  uint8_t node[1 + 2 * sizeof(Hash256)];
  node[0] = kInnerTag;
  std::memcpy(node + 1, left.data(), left.size());
  std::memcpy(node + 1 + left.size(), right.data(), right.size());
  return Sha256::Hash(ByteView(node, sizeof(node)));
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

size_t SparseMerkleTree::NodeTable::Home(uint64_t prefix) const {
  // Fibonacci hashing scaled to the table size: the high bits of
  // prefix * 2^64/phi spread dense and strided prefixes evenly.
  const uint64_t mixed = prefix * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(
      (static_cast<__uint128_t>(mixed) * slots_.size()) >> 64);
}

size_t SparseMerkleTree::NodeTable::Next(size_t i) const {
  return i + 1 == slots_.size() ? 0 : i + 1;
}

const Hash256* SparseMerkleTree::NodeTable::Find(uint64_t prefix) const {
  if (prefix == kFree) return has_max_ ? &max_ : nullptr;
  if (slots_.empty()) return nullptr;
  for (size_t i = Home(prefix);; i = Next(i)) {
    if (slots_[i].prefix == prefix) return &slots_[i].hash;
    if (slots_[i].prefix == kFree) return nullptr;
  }
}

void SparseMerkleTree::NodeTable::Prefetch(uint64_t prefix) const {
  if (!slots_.empty()) __builtin_prefetch(&slots_[Home(prefix)]);
}

void SparseMerkleTree::NodeTable::Set(uint64_t prefix, const Hash256& hash) {
  if (prefix == kFree) {
    has_max_ = true;
    max_ = hash;
    return;
  }
  // Keep the load at most 4/5 so a probe always meets a free slot soon.
  if (5 * (size_ + 1) > 4 * slots_.size()) Grow();
  size_t i = Home(prefix);
  while (slots_[i].prefix != kFree && slots_[i].prefix != prefix) i = Next(i);
  if (slots_[i].prefix == kFree) ++size_;
  slots_[i] = {prefix, hash};
}

void SparseMerkleTree::NodeTable::Erase(uint64_t prefix) {
  if (prefix == kFree) {
    has_max_ = false;
    return;
  }
  if (slots_.empty()) return;
  size_t hole = Home(prefix);
  while (slots_[hole].prefix != prefix) {
    if (slots_[hole].prefix == kFree) return;
    hole = Next(hole);
  }
  // Backward shift: pull each later entry of the run into the hole unless
  // its home lies cyclically in (hole, j], where it would become unreachable.
  const size_t n = slots_.size();
  for (size_t j = Next(hole); slots_[j].prefix != kFree; j = Next(j)) {
    const size_t home = Home(slots_[j].prefix);
    if ((j + n - home) % n >= (j + n - hole) % n) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].prefix = kFree;
  --size_;
}

void SparseMerkleTree::NodeTable::Grow() {
  // 3/2 growth keeps the load in [8/15, 4/5] once the table is large: about
  // the bytes per node of a node-based map, without its allocations.
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() < 4 ? 4 : old.size() + old.size() / 2, Slot{});
  for (const Slot& s : old) {
    if (s.prefix == kFree) continue;
    size_t i = Home(s.prefix);
    while (slots_[i].prefix != kFree) i = Next(i);
    slots_[i] = s;
  }
}

SparseMerkleTree::SparseMerkleTree() : nodes_(kDepth + 1) {}

Hash256 SparseMerkleTree::NodeAt(int level, uint64_t prefix) const {
  const Hash256* hash = nodes_[level].Find(prefix);
  return hash != nullptr ? *hash : Defaults()[level];
}

void SparseMerkleTree::StoreNode(int level, uint64_t prefix,
                                 const Hash256& hash) {
  if (hash == Defaults()[level]) {
    nodes_[level].Erase(prefix);
  } else {
    nodes_[level].Set(prefix, hash);
  }
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
    StoreNode(level, prefix, hash);
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
    parents.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
      // Large levels miss the cache on every probe; start fetching the
      // slots (own and sibling) of a frontier node a few nodes ahead.
      if (i + kPrefetchAhead < frontier.size()) {
        const uint64_t ahead = frontier[i + kPrefetchAhead].first;
        nodes_[level].Prefetch(ahead);
        nodes_[level].Prefetch(ahead ^ 1);
      }
      const auto& [prefix, hash] = frontier[i];
      StoreNode(level, prefix, hash);
      if ((prefix & 1) == 0 && i + 1 < frontier.size() &&
          frontier[i + 1].first == (prefix | 1)) {
        const Hash256& right = frontier[++i].second;
        StoreNode(level, prefix | 1, right);
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
  StoreNode(0, 0, frontier.front().second);
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
    if (hash != Defaults()[level]) nodes_[level].Set(prefix, hash);
    const Hash256& sibling = proof.siblings[level - 1];
    if (sibling != Defaults()[level]) nodes_[level].Set(prefix ^ 1, sibling);
    hash = (prefix & 1) ? InnerHash(sibling, hash) : InnerHash(hash, sibling);
    prefix >>= 1;
  }
  nodes_[0].Set(0, hash);
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
