// Transaction / block / pool / pipeline-schedule tests.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "tx/blocks.h"
#include "tx/transaction.h"
#include "tx/txpool.h"

namespace porygon::tx {
namespace {

Transaction Make(uint64_t from, uint64_t to, uint64_t amount,
                 uint64_t nonce) {
  Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  t.submitted_at = 123456;
  return t;
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction t = Make(10, 20, 500, 3);
  t.signature.fill(0xCD);
  auto decoded = Transaction::Decode(t.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, t);
}

TEST(TransactionTest, IdCoversBodyNotSignature) {
  Transaction a = Make(1, 2, 3, 4);
  Transaction b = a;
  b.signature.fill(0xFF);
  EXPECT_EQ(a.Id(), b.Id());  // Signature excluded.
  b.amount = 99;
  EXPECT_NE(a.Id(), b.Id());  // Body included.
}

TEST(TransactionTest, IdHashesTheEncodedBody) {
  Transaction t = Make(0x0102030405060708, 20, 500, 3);
  t.signature.fill(0xCD);
  const Bytes wire = t.Encode();
  ASSERT_EQ(wire.size(), 40u + t.signature.size());
  EXPECT_EQ(t.Id(), crypto::Sha256::Hash(ByteView(wire.data(), 40)));
}

TEST(TransactionTest, CrossShardDetection) {
  EXPECT_FALSE(Make(2, 4, 1, 0).IsCrossShard(1));  // Even/even.
  EXPECT_TRUE(Make(2, 3, 1, 0).IsCrossShard(1));
  EXPECT_FALSE(Make(2, 3, 1, 0).IsCrossShard(0));  // One shard: never.
}

TEST(BlockTest, SealAndVerifyHeader) {
  TransactionBlock block;
  block.header.shard = 1;
  block.header.round_created = 7;
  for (int i = 0; i < 5; ++i) {
    block.transactions.push_back(Make(i, i + 1, 10, 0));
  }
  block.SealHeader();
  EXPECT_EQ(block.header.tx_count, 5u);
  EXPECT_TRUE(block.BodyMatchesHeader());

  // Tampering with the body breaks the seal.
  block.transactions[2].amount = 999;
  EXPECT_FALSE(block.BodyMatchesHeader());
}

TEST(BlockTest, EncodeDecodeRoundTrip) {
  TransactionBlock block;
  block.header.creator_storage_node = 3;
  block.header.round_created = 9;
  block.header.shard = 2;
  block.transactions = {Make(1, 2, 3, 0), Make(4, 5, 6, 1)};
  block.SealHeader();

  auto decoded = TransactionBlock::Decode(block.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.Id(), block.header.Id());
  EXPECT_EQ(decoded->transactions.size(), 2u);
  EXPECT_TRUE(decoded->BodyMatchesHeader());
}

TEST(ProposalBlockTest, EncodeDecodeRoundTrip) {
  ProposalBlock b;
  b.height = 12;
  b.round = 12;
  b.prev_hash = crypto::Sha256::Hash(ToBytes("prev"));
  b.shard_tx_blocks = {{crypto::Sha256::Hash(ToBytes("b1"))}, {}};
  b.shard_updates = {{}, {{42, {100, 1}}}};
  b.discarded = {crypto::Sha256::Hash(ToBytes("bad"))};
  b.shard_roots = {crypto::Sha256::Hash(ToBytes("r0")),
                   crypto::Sha256::Hash(ToBytes("r1"))};
  b.state_root = crypto::Sha256::Hash(ToBytes("root"));
  b.ordering_threshold = 0.1;
  b.execution_threshold = 0.7;

  auto decoded = ProposalBlock::Decode(b.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Hash(), b.Hash());
  EXPECT_EQ(decoded->shard_updates[1][0].account, 42u);
  EXPECT_EQ(decoded->discarded.size(), 1u);
  EXPECT_EQ(decoded->ordering_threshold, 0.1);
}

TEST(ProposalBlockTest, OversizedCountsAreCorruption) {
  // A forged 2^40 count at each list of a block with one empty shard (at
  // byte 80, after height, prev_hash, round and leader): shards, L[0],
  // update shards, U[0], discarded, shard roots. Each must hit the count
  // bound before it sizes an allocation.
  ProposalBlock b;
  b.shard_tx_blocks = {{}};
  b.shard_updates = {{}};
  const Bytes valid = b.Encode();
  for (size_t at = 80; at <= 85; ++at) {
    Encoder forged;
    forged.PutFixed(ByteView(valid.data(), at));
    forged.PutVarint(uint64_t{1} << 40);
    forged.PutFixed(Bytes(16, 0));
    const Status s = ProposalBlock::Decode(forged.buffer()).status();
    EXPECT_TRUE(s.IsCorruption()) << at;
    EXPECT_EQ(s.message(), "element count exceeds input") << at;
  }
}

TEST(ProposalBlockTest, HashChangesWithContent) {
  ProposalBlock a;
  a.height = 1;
  ProposalBlock b = a;
  b.height = 2;
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(TxPoolTest, DeduplicatesAndBucketsByShard) {
  TxPool pool(1);
  Transaction t = Make(2, 4, 10, 0);  // Shard 0 (even sender).
  EXPECT_TRUE(pool.Add(t));
  EXPECT_FALSE(pool.Add(t));  // Duplicate id.
  EXPECT_TRUE(pool.Add(Make(3, 4, 10, 0)));  // Shard 1.
  EXPECT_EQ(pool.PendingInShard(0), 1u);
  EXPECT_EQ(pool.PendingInShard(1), 1u);
  EXPECT_EQ(pool.PendingTotal(), 2u);
}

TEST(TxPoolTest, PackBlockDrainsFifoUpToLimit) {
  TxPool pool(0);
  for (int i = 0; i < 10; ++i) pool.Add(Make(1, 2, 100 + i, i));
  TransactionBlock block = pool.PackBlock(0, 4, /*creator=*/7, /*round=*/3);
  EXPECT_EQ(block.transactions.size(), 4u);
  EXPECT_EQ(block.transactions[0].amount, 100u);  // FIFO order.
  EXPECT_EQ(block.header.creator_storage_node, 7u);
  EXPECT_TRUE(block.BodyMatchesHeader());
  EXPECT_EQ(pool.PendingTotal(), 6u);
}

}  // namespace
}  // namespace porygon::tx

namespace porygon::core {
namespace {

TEST(PipelineScheduleTest, MatchesPaperFigure4) {
  PipelineSchedule schedule(3);
  // EC formed at round 5: witness 5, cross-batch 6, execute at 7.
  EXPECT_EQ(schedule.ExecutionRound(5), 7u);
  EXPECT_TRUE(schedule.IsAlive(5, 5));
  EXPECT_TRUE(schedule.IsAlive(5, 7));
  EXPECT_FALSE(schedule.IsAlive(5, 8));
  EXPECT_FALSE(schedule.IsAlive(5, 4));
  EXPECT_EQ(schedule.ConcurrentCommittees(), 3);
  EXPECT_EQ(schedule.WitnessBatches(5), (std::vector<uint64_t>{5, 6}));
}

TEST(PipelineScheduleTest, CommitRounds) {
  PipelineSchedule schedule;
  // §IV-D2: intra-shard witnessed in round i commits at i+3; cross at i+5.
  EXPECT_EQ(schedule.IntraShardCommitRound(10), 13u);
  EXPECT_EQ(schedule.CrossShardCommitRound(10), 15u);
}

TEST(PipelineScheduleTest, PhaseNames) {
  EXPECT_STREQ(PhaseName(Phase::kWitness), "Witness");
  EXPECT_STREQ(PhaseName(Phase::kOrdering), "Ordering");
  EXPECT_STREQ(PhaseName(Phase::kExecution), "Execution");
  EXPECT_STREQ(PhaseName(Phase::kCommit), "Commit");
}

}  // namespace
}  // namespace porygon::core
