#ifndef PORYGON_STATE_SMT_H_
#define PORYGON_STATE_SMT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace porygon::state {

/// Membership/absence proof: one sibling hash per level, root-adjacent first.
struct MerkleProof {
  std::vector<crypto::Hash256> siblings;  // Depth entries.
  /// Serialized size in bytes, for the bandwidth model (storage nodes ship
  /// proofs alongside states, §IV-C1(c)).
  size_t WireSize() const { return siblings.size() * sizeof(crypto::Hash256); }

  Bytes Encode() const;
  static Result<MerkleProof> Decode(ByteView data);
};

/// Sparse Merkle tree of fixed depth over 64-bit keys. Absent keys hash to a
/// per-level default, so the tree is O(occupied keys) in memory while proofs
/// behave as if all 2^64 leaves existed. Leaf hash =
/// H(0x00 || key_le || value); inner = H(0x01 || left || right).
///
/// This is the authenticated index over accounts that storage nodes maintain
/// and stateless nodes verify: Get/Update with Merkle paths, root
/// computation, and per-update incremental rehashing (depth hashes per
/// write).
class SparseMerkleTree {
 public:
  static constexpr int kDepth = 64;

  SparseMerkleTree();

  /// Sets `key` to `value` (empty value deletes the leaf).
  void Put(uint64_t key, ByteView value);
  void Delete(uint64_t key) { Put(key, ByteView()); }

  /// Applies many writes and rehashes each affected tree path once,
  /// level by level. For a block of k updates this costs
  /// O(k + distinct-path-nodes) hashes instead of O(k * depth) — the
  /// difference between microseconds and milliseconds per committed block
  /// (see BM_SmtPutBatch in bench/micro_state). Last write wins for
  /// duplicate keys.
  void PutBatch(const std::vector<std::pair<uint64_t, Bytes>>& writes);

  /// Returns the value (NotFound if absent).
  Result<Bytes> Get(uint64_t key) const;

  /// Current root hash.
  crypto::Hash256 Root() const;

  /// Proof for `key` (valid for both membership and absence).
  MerkleProof Prove(uint64_t key) const;

  /// Verifies that `value` (empty = absent) is the value of `key` under
  /// `root`. Static: verification needs no tree, only the proof — this is
  /// what stateless nodes run.
  static bool Verify(const crypto::Hash256& root, uint64_t key, ByteView value,
                     const MerkleProof& proof);

  /// Builds a *partial* tree from a proof: verifies (key, value, proof)
  /// against `expected_root`, then stores the leaf, every node on its path,
  /// and every sibling hash. After injecting proofs for all accounts a
  /// block touches, a stateless node can PutBatch updated values and read
  /// the correct new Root() without ever holding the full state — this is
  /// the Execution Phase of a stateless ESC member (§IV-C1(c)).
  Status InjectProof(uint64_t key, ByteView value, const MerkleProof& proof,
                     const crypto::Hash256& expected_root);

  /// Number of live leaves.
  size_t LeafCount() const { return leaves_.size(); }

  /// Iterates live (key, value) pairs in unspecified order.
  void ForEach(const std::function<void(uint64_t, ByteView)>& fn) const;

 private:
  static crypto::Hash256 LeafHash(uint64_t key, ByteView value);
  static const std::array<crypto::Hash256, kDepth + 1>& Defaults();

  // One level's prefix -> hash map: open addressing with linear probing,
  // hashes stored inline in the slots, backward-shift erase (no
  // tombstones). A write on a path touches one entry per level, so a flat
  // table saves an allocation per node and a pointer chase per sibling read.
  class NodeTable {
   public:
    const crypto::Hash256* Find(uint64_t prefix) const;
    void Set(uint64_t prefix, const crypto::Hash256& hash);
    void Erase(uint64_t prefix);
    // Starts loading the slot where a probe for `prefix` begins.
    void Prefetch(uint64_t prefix) const;

   private:
    // Marks a free slot. The one real prefix equal to it (key UINT64_MAX,
    // leaf level only) lives in `max_` instead.
    static constexpr uint64_t kFree = ~uint64_t{0};
    struct Slot {
      uint64_t prefix = kFree;
      crypto::Hash256 hash{};
    };
    size_t Home(uint64_t prefix) const;
    size_t Next(size_t i) const;
    void Grow();

    std::vector<Slot> slots_;
    size_t size_ = 0;  // Occupied slots.
    bool has_max_ = false;
    crypto::Hash256 max_{};
  };

  // Node hash at (level, prefix); falls back to the level default.
  crypto::Hash256 NodeAt(int level, uint64_t prefix) const;
  // Writes `hash` at (level, prefix), or erases the entry when it equals
  // the level default (absent nodes read as the default).
  void StoreNode(int level, uint64_t prefix, const crypto::Hash256& hash);

  // nodes_[level] holds the non-default nodes of one level. Level 0 is the
  // root (prefix 0), level kDepth are leaves (prefix == key).
  std::vector<NodeTable> nodes_;
  std::unordered_map<uint64_t, Bytes> leaves_;
};

}  // namespace porygon::state

#endif  // PORYGON_STATE_SMT_H_
