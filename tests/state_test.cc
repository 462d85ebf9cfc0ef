// Sparse Merkle tree and sharded-state tests: proofs, roots, determinism,
// shard routing, and the OC's stateless root aggregation.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "common/rng.h"
#include "state/account.h"
#include "state/sharded_state.h"
#include "state/smt.h"

namespace porygon::state {
namespace {

using crypto::Hash256;

TEST(AccountTest, EncodeDecodeRoundTrip) {
  Account a{12345, 67};
  auto decoded = DecodeAccount(EncodeAccount(a));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, a);
}

TEST(AccountTest, DecodeRejectsBadSizes) {
  EXPECT_FALSE(DecodeAccount(ToBytes("short")).ok());
  Bytes too_long(17, 0);
  EXPECT_FALSE(DecodeAccount(too_long).ok());
}

TEST(AccountTest, ShardAssignmentUsesLastBits) {
  EXPECT_EQ(ShardOfAccount(0b10110, 2), 0b10u);
  EXPECT_EQ(ShardOfAccount(0b10110, 3), 0b110u);
  EXPECT_EQ(ShardOfAccount(12345, 0), 0u);
}

TEST(SmtTest, EmptyTreeHasDeterministicRoot) {
  SparseMerkleTree a, b;
  EXPECT_EQ(a.Root(), b.Root());
  EXPECT_EQ(a.LeafCount(), 0u);
}

TEST(SmtTest, PutChangesRootDeleteRestoresIt) {
  SparseMerkleTree tree;
  Hash256 empty_root = tree.Root();
  tree.Put(42, ToBytes("value"));
  EXPECT_NE(tree.Root(), empty_root);
  tree.Delete(42);
  EXPECT_EQ(tree.Root(), empty_root);
  EXPECT_EQ(tree.LeafCount(), 0u);
}

TEST(SmtTest, GetReturnsStoredValue) {
  SparseMerkleTree tree;
  tree.Put(7, ToBytes("seven"));
  auto v = tree.Get(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, ToBytes("seven"));
  EXPECT_FALSE(tree.Get(8).ok());
}

TEST(SmtTest, RootIsOrderIndependent) {
  SparseMerkleTree a, b;
  a.Put(1, ToBytes("one"));
  a.Put(2, ToBytes("two"));
  a.Put(3, ToBytes("three"));
  b.Put(3, ToBytes("three"));
  b.Put(1, ToBytes("one"));
  b.Put(2, ToBytes("two"));
  EXPECT_EQ(a.Root(), b.Root());
}

TEST(SmtTest, MembershipProofVerifies) {
  SparseMerkleTree tree;
  tree.Put(100, ToBytes("alpha"));
  tree.Put(200, ToBytes("beta"));
  auto proof = tree.Prove(100);
  EXPECT_TRUE(
      SparseMerkleTree::Verify(tree.Root(), 100, ToBytes("alpha"), proof));
  // Wrong value fails.
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 100, ToBytes("gamma"), proof));
  // Wrong key fails.
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 101, ToBytes("alpha"), proof));
}

TEST(SmtTest, AbsenceProofVerifies) {
  SparseMerkleTree tree;
  tree.Put(100, ToBytes("alpha"));
  auto proof = tree.Prove(555);
  EXPECT_TRUE(SparseMerkleTree::Verify(tree.Root(), 555, ByteView(), proof));
  // Claiming a value for an absent key fails.
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 555, ToBytes("x"), proof));
}

TEST(SmtTest, TamperedProofRejected) {
  SparseMerkleTree tree;
  for (uint64_t k = 0; k < 50; ++k) {
    tree.Put(k * 977, ToBytes("v" + std::to_string(k)));
  }
  auto proof = tree.Prove(977);
  proof.siblings[30][5] ^= 0x01;
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 977, ToBytes("v1"), proof));
}

TEST(SmtTest, AdjacentKeysDoNotCollide) {
  // Keys differing in the lowest bit share all but the last sibling.
  SparseMerkleTree tree;
  tree.Put(8, ToBytes("even"));
  tree.Put(9, ToBytes("odd"));
  EXPECT_TRUE(SparseMerkleTree::Verify(tree.Root(), 8, ToBytes("even"),
                                       tree.Prove(8)));
  EXPECT_TRUE(SparseMerkleTree::Verify(tree.Root(), 9, ToBytes("odd"),
                                       tree.Prove(9)));
}

class SmtRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmtRandomTest, MatchesReferenceAndProofsHold) {
  Rng rng(GetParam());
  SparseMerkleTree tree;
  std::map<uint64_t, std::string> reference;

  for (int op = 0; op < 500; ++op) {
    uint64_t key = rng.NextU64() % 1000;
    if (rng.NextBernoulli(0.3)) {
      tree.Delete(key);
      reference.erase(key);
    } else {
      std::string value = "v" + std::to_string(rng.NextU64() % 10000);
      tree.Put(key, ToBytes(value));
      reference[key] = value;
    }
  }

  EXPECT_EQ(tree.LeafCount(), reference.size());
  Hash256 root = tree.Root();
  for (const auto& [key, value] : reference) {
    auto stored = tree.Get(key);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, ToBytes(value));
    EXPECT_TRUE(
        SparseMerkleTree::Verify(root, key, ToBytes(value), tree.Prove(key)));
  }
  // A rebuilt tree from the reference has the same root.
  SparseMerkleTree rebuilt;
  for (const auto& [key, value] : reference) rebuilt.Put(key, ToBytes(value));
  EXPECT_EQ(rebuilt.Root(), root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtRandomTest, ::testing::Values(5, 6, 7));

class SmtBatchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmtBatchTest, PutBatchMatchesSequentialPuts) {
  Rng rng(GetParam());
  SparseMerkleTree sequential, batched;
  // Pre-populate both identically.
  for (int i = 0; i < 50; ++i) {
    uint64_t k = rng.NextU64() % 400;
    Bytes v = ToBytes("init" + std::to_string(i));
    sequential.Put(k, v);
    batched.Put(k, v);
  }
  // Random batch with duplicates and deletions.
  std::vector<std::pair<uint64_t, Bytes>> writes;
  for (int i = 0; i < 200; ++i) {
    uint64_t k = rng.NextU64() % 400;
    Bytes v = rng.NextBernoulli(0.2) ? Bytes()
                                     : ToBytes("w" + std::to_string(i));
    writes.emplace_back(k, v);
    // Sibling leaves (k, k^1) dirty in the same batch.
    if (i % 10 == 0) {
      writes.emplace_back(k ^ 1, ToBytes("s" + std::to_string(i)));
    }
  }
  // A key that holds a value before the batch and whose last write in the
  // batch is a delete, after an earlier write to it in the same batch.
  const uint64_t deleted = writes.front().first;
  sequential.Put(deleted, ToBytes("pre"));
  batched.Put(deleted, ToBytes("pre"));
  writes.emplace_back(deleted, ToBytes("overwritten"));
  writes.emplace_back(deleted, Bytes());
  for (const auto& [k, v] : writes) sequential.Put(k, v);
  batched.PutBatch(writes);

  EXPECT_EQ(sequential.Root(), batched.Root());
  EXPECT_EQ(sequential.LeafCount(), batched.LeafCount());
  EXPECT_FALSE(batched.Get(deleted).ok());
  // Every stored node on each touched path, not only the root, must match:
  // a stale node below the root shows up in a proof.
  for (const auto& [k, v] : writes) {
    for (uint64_t key : {k, k ^ 1}) {
      EXPECT_TRUE(sequential.Prove(key).siblings ==
                  batched.Prove(key).siblings)
          << "proofs differ for key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtBatchTest, ::testing::Values(41, 42, 43));

// The tree is history-independent: whatever sequence of writes produced a
// live set, every stored node must equal the one a fresh tree builds from
// that set alone. A stale or lost node-table entry (say, a botched
// backward-shift erase) shows up in Root() or in some proof.
class SmtReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmtReferenceTest, RandomOpMixMatchesFreshTree) {
  Rng rng(GetParam());
  SparseMerkleTree tree;
  std::map<uint64_t, Bytes> live;
  std::set<uint64_t> touched;
  // Dense keys 4*i+s (one residue per shard, as ShardedState lays them out,
  // with all four residues mixed so sibling leaves both get written), plus
  // the two extreme keys.
  auto pick_key = [&]() -> uint64_t {
    uint64_t key;
    switch (rng.NextU64() % 64) {
      case 0:
        key = 0;
        break;
      case 1:
        key = UINT64_MAX;
        break;
      default:
        key = 4 * (rng.NextU64() % 4096) + rng.NextU64() % 4;
    }
    touched.insert(key);
    return key;
  };
  auto apply = [&](uint64_t key, const Bytes& value) {
    if (value.empty()) {
      live.erase(key);
    } else {
      live[key] = value;
    }
  };

  for (int step = 0; step < 4000; ++step) {
    const uint64_t key = pick_key();
    const Bytes value = ToBytes(std::to_string(step));
    switch (rng.NextU64() % 8) {
      case 0:
      case 1:
      case 2:
        tree.Put(key, value);
        apply(key, value);
        break;
      case 3:
      case 4:
        tree.Delete(key);
        apply(key, Bytes());
        break;
      case 5:
      case 6: {
        std::vector<std::pair<uint64_t, Bytes>> writes;
        writes.emplace_back(key, value);
        const int extra = static_cast<int>(rng.NextU64() % 32);
        for (int i = 0; i < extra; ++i) {
          writes.emplace_back(
              pick_key(), rng.NextBernoulli(0.4)
                              ? Bytes()
                              : ToBytes(std::to_string(step) + "." +
                                        std::to_string(i)));
        }
        tree.PutBatch(writes);
        for (const auto& [k, v] : writes) apply(k, v);
        break;
      }
      default: {
        // Re-inject the key's own proof, membership or absence: it must
        // rewrite the stored path with the very same nodes.
        auto it = live.find(key);
        const Bytes current = it == live.end() ? Bytes() : it->second;
        ASSERT_TRUE(
            tree.InjectProof(key, current, tree.Prove(key), tree.Root()).ok());
      }
    }
  }

  SparseMerkleTree fresh;
  for (const auto& [k, v] : live) fresh.Put(k, v);
  EXPECT_EQ(tree.Root(), fresh.Root());
  EXPECT_EQ(tree.LeafCount(), fresh.LeafCount());
  for (uint64_t key : touched) {
    for (uint64_t k : {key, key ^ 1}) {
      EXPECT_TRUE(tree.Prove(k).siblings == fresh.Prove(k).siblings)
          << "proofs differ for key " << k;
      EXPECT_EQ(tree.Get(k).ok(), live.count(k) > 0) << "key " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtReferenceTest,
                         ::testing::Values(71, 72, 73));

TEST(ShardedStateTest, AccountsRouteToTheirShard) {
  ShardedState st(2);  // 4 shards.
  st.PutAccount(0b100, {10, 0});  // Shard 0.
  st.PutAccount(0b101, {20, 0});  // Shard 1.
  st.PutAccount(0b110, {30, 0});  // Shard 2.
  EXPECT_EQ(st.ShardAccountCount(0), 1u);
  EXPECT_EQ(st.ShardAccountCount(1), 1u);
  EXPECT_EQ(st.ShardAccountCount(2), 1u);
  EXPECT_EQ(st.ShardAccountCount(3), 0u);
  EXPECT_EQ(st.TotalAccountCount(), 3u);
  EXPECT_EQ(st.GetOrDefault(0b101).balance, 20u);
  EXPECT_EQ(st.GetOrDefault(0xdead00).balance, 0u);  // Default.
}

TEST(ShardedStateTest, GlobalRootMatchesAggregatedShardRoots) {
  ShardedState st(3);
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    st.PutAccount(rng.NextU64() % 5000, {rng.NextU64() % 1000, 0});
  }
  std::vector<Hash256> roots;
  for (int s = 0; s < st.shard_count(); ++s) roots.push_back(st.ShardRoot(s));
  EXPECT_EQ(ShardedState::AggregateRoots(roots), st.GlobalRoot());
}

TEST(ShardedStateTest, UpdateInOneShardOnlyChangesThatShardRoot) {
  ShardedState st(2);
  st.PutAccount(4, {1, 0});   // Shard 0.
  st.PutAccount(5, {1, 0});   // Shard 1.
  auto root0_before = st.ShardRoot(0);
  auto root1_before = st.ShardRoot(1);
  st.PutAccount(8, {99, 0});  // Shard 0 again.
  EXPECT_NE(st.ShardRoot(0), root0_before);
  EXPECT_EQ(st.ShardRoot(1), root1_before);
}

TEST(ShardedStateTest, AccountProofsVerifyAgainstShardRoot) {
  ShardedState st(2);
  Account acc{500, 3};
  st.PutAccount(42, acc);
  auto proof = st.ProveAccount(42);
  uint32_t shard = st.ShardOf(42);
  EXPECT_TRUE(ShardedState::VerifyAccount(st.ShardRoot(shard), 42, acc, proof));
  Account wrong{501, 3};
  EXPECT_FALSE(
      ShardedState::VerifyAccount(st.ShardRoot(shard), 42, wrong, proof));
  // Absence of another account in the same shard.
  auto absent = st.ProveAccount(42 + 4);  // Same shard (same last 2 bits).
  EXPECT_TRUE(
      ShardedState::VerifyAbsence(st.ShardRoot(shard), 42 + 4, absent));
}

TEST(ShardedStateTest, AggregateRootsHandlesOddCounts) {
  std::vector<Hash256> one{crypto::Sha256::Hash(ToBytes("a"))};
  EXPECT_EQ(ShardedState::AggregateRoots(one), one[0]);
  std::vector<Hash256> three{crypto::Sha256::Hash(ToBytes("a")),
                             crypto::Sha256::Hash(ToBytes("b")),
                             crypto::Sha256::Hash(ToBytes("c"))};
  // Just determinism and no crash.
  EXPECT_EQ(ShardedState::AggregateRoots(three),
            ShardedState::AggregateRoots(three));
}

}  // namespace
}  // namespace porygon::state
