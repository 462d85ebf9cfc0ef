// End-to-end integration tests: a full Porygon deployment over the
// discrete-event network — witness, ordering (BA*), sharded execution,
// cross-shard coordination, and commit.

#include <gtest/gtest.h>

#include "core/system.h"

namespace porygon::core {
namespace {

SystemOptions SmallOptions() {
  SystemOptions opt;
  opt.params.shard_bits = 1;          // 2 shards.
  // With cohort rotation, each round's fresh EC holds ~(N - OC)/3 nodes
  // split over shards; thresholds must fit that cohort size.
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 7;
  return opt;
}

tx::Transaction Transfer(uint64_t from, uint64_t to, uint64_t amount,
                         uint64_t nonce) {
  tx::Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  return t;
}

TEST(SystemIntegrationTest, CommitsIntraShardTransactions) {
  PorygonSystem sys(SmallOptions());
  sys.CreateAccounts(40, 10'000);

  // Intra-shard transfers: same parity = same shard under 1 bit.
  int submitted = 0;
  for (uint64_t from = 1; from <= 20; ++from) {
    uint64_t to = from + 20;  // Same parity -> same shard.
    ASSERT_TRUE(sys.SubmitTransaction(Transfer(from, to, 5, 0)).ok());
    ++submitted;
  }

  sys.Run(10);
  const SystemMetrics m = sys.metrics();
  EXPECT_EQ(m.committed_blocks(), 10u);
  EXPECT_EQ(m.committed_intra_txs(), static_cast<uint64_t>(submitted));
  EXPECT_EQ(m.replay_mismatches(), 0u);
  EXPECT_EQ(m.failed_txs(), 0u);

  // The canonical state reflects the transfers.
  for (uint64_t from = 1; from <= 20; ++from) {
    EXPECT_EQ(sys.canonical_state().GetOrDefault(from).balance, 9'995u);
    EXPECT_EQ(sys.canonical_state().GetOrDefault(from + 20).balance,
              10'005u);
  }
}

TEST(SystemIntegrationTest, CommitsCrossShardTransactions) {
  PorygonSystem sys(SmallOptions());
  sys.CreateAccounts(40, 10'000);

  // Cross-shard transfers: different parity.
  int submitted = 0;
  for (uint64_t from = 1; from <= 10; ++from) {
    uint64_t to = from + 21;  // Different parity -> other shard.
    ASSERT_TRUE(sys.SubmitTransaction(Transfer(from, to, 7, 0)).ok());
    ++submitted;
  }

  sys.Run(12);
  const SystemMetrics m = sys.metrics();
  EXPECT_EQ(m.committed_cross_txs(), static_cast<uint64_t>(submitted));
  EXPECT_EQ(m.replay_mismatches(), 0u);

  for (uint64_t from = 1; from <= 10; ++from) {
    EXPECT_EQ(sys.canonical_state().GetOrDefault(from).balance, 9'993u);
    EXPECT_EQ(sys.canonical_state().GetOrDefault(from + 21).balance,
              10'007u);
  }
}

TEST(SystemIntegrationTest, MixedWorkloadConservesTotalBalance) {
  PorygonSystem sys(SmallOptions());
  sys.CreateAccounts(60, 1'000);
  Rng rng(99);
  std::map<uint64_t, uint64_t> nonces;
  int submitted = 0;
  for (int i = 0; i < 120; ++i) {
    uint64_t from = 1 + rng.NextBelow(60);
    uint64_t to = 1 + rng.NextBelow(60);
    if (from == to) continue;
    if (sys.SubmitTransaction(Transfer(from, to, 1, nonces[from])).ok()) {
      ++nonces[from];
      ++submitted;
    }
  }
  sys.Run(14);

  const SystemMetrics m = sys.metrics();
  EXPECT_GT(m.committed_intra_txs() + m.committed_cross_txs(), 0u);
  EXPECT_EQ(m.replay_mismatches(), 0u);

  uint64_t total = 0;
  for (uint64_t id = 1; id <= 60; ++id) {
    total += sys.canonical_state().GetOrDefault(id).balance;
  }
  EXPECT_EQ(total, 60u * 1'000u);  // Transfers conserve balance.
}

TEST(SystemIntegrationTest, LatenciesFollowThePipelineSchedule) {
  SystemOptions opt = SmallOptions();
  PorygonSystem sys(opt);
  sys.CreateAccounts(40, 10'000);
  for (uint64_t from = 1; from <= 10; ++from) {
    sys.SubmitTransaction(Transfer(from, from + 20, 1, 0));
  }
  sys.Run(10);
  const SystemMetrics m = sys.metrics();
  ASSERT_GT(m.BlockLatency().count, 0u);
  ASSERT_GT(m.CommitLatency().count, 0u);
  double block = m.BlockLatency().mean;
  double commit = m.CommitLatency().mean;
  // Intra-shard txs commit 3 rounds after witnessing (§IV-D2): the
  // commit latency is roughly 3-4 block intervals.
  EXPECT_GT(commit, 2.0 * block);
  EXPECT_LT(commit, 5.5 * block);
  // User-perceived latency includes mempool wait, so it is larger still.
  EXPECT_GE(m.UserLatency().mean, commit);
}

TEST(SystemIntegrationTest, RunsWithFourShards) {
  SystemOptions opt = SmallOptions();
  opt.params.shard_bits = 2;  // 4 shards.
  opt.num_stateless_nodes = 32;
  opt.params.witness_threshold = 2;
  PorygonSystem sys(opt);
  sys.CreateAccounts(80, 10'000);
  Rng rng(5);
  std::map<uint64_t, uint64_t> nonces;
  for (int i = 0; i < 100; ++i) {
    uint64_t from = 1 + rng.NextBelow(80);
    uint64_t to = 1 + rng.NextBelow(80);
    if (from == to) continue;
    if (sys.SubmitTransaction(Transfer(from, to, 1, nonces[from])).ok()) {
      ++nonces[from];
    }
  }
  sys.Run(14);
  EXPECT_GT(sys.metrics().committed_intra_txs() +
                sys.metrics().committed_cross_txs(),
            0u);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

TEST(SystemIntegrationTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    PorygonSystem sys(SmallOptions());
    sys.CreateAccounts(40, 10'000);
    for (uint64_t from = 1; from <= 12; ++from) {
      sys.SubmitTransaction(Transfer(from, from + 20, 3, 0));
    }
    sys.Run(8);
    return std::make_tuple(sys.metrics().committed_intra_txs(),
                           sys.metrics().committed_cross_txs(),
                           sys.canonical_state().GlobalRoot(),
                           sys.sim_seconds());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(SystemIntegrationTest, FaithfulExecutionMatchesFastPath) {
  // The faithful mode (real proofs, per-member PartialState execution)
  // must commit the same state as the fast path.
  auto run_with = [](bool faithful) {
    SystemOptions opt = SmallOptions();
    opt.faithful_execution = faithful;
    PorygonSystem sys(opt);
    sys.CreateAccounts(40, 10'000);
    for (uint64_t from = 1; from <= 10; ++from) {
      sys.SubmitTransaction(Transfer(from, from + 20, 5, 0));  // Intra.
      sys.SubmitTransaction(Transfer(from + 20, from + 1, 2, 0));  // Cross.
    }
    sys.Run(12);
    return std::make_pair(sys.metrics().committed_intra_txs() +
                              sys.metrics().committed_cross_txs(),
                          sys.canonical_state().GlobalRoot());
  };
  auto fast = run_with(false);
  auto faithful = run_with(true);
  EXPECT_EQ(fast.first, faithful.first);
  EXPECT_EQ(fast.second, faithful.second);
}

TEST(SystemIntegrationTest, MaliciousStorageCannotStallHonestBlocks) {
  // One of three storage nodes withholds bodies; its blocks are never
  // witnessed, but blocks from honest storage nodes commit (Theorem 2).
  SystemOptions opt = SmallOptions();
  opt.num_storage_nodes = 3;
  opt.adversary =  // 1 of 3.
      AdversarySpec::Parse("storage:withhold,beta:0.34").value();
  opt.adversary.seed = opt.seed;
  PorygonSystem sys(opt);
  sys.CreateAccounts(40, 10'000);
  for (uint64_t from = 1; from <= 20; ++from) {
    sys.SubmitTransaction(Transfer(from, from + 20, 1, 0));
  }
  sys.Run(12);
  // Roughly 1/3 of transactions landed in the malicious node's mempool and
  // never became available; the rest commit.
  EXPECT_GT(sys.metrics().committed_intra_txs(), 8u);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

TEST(SystemIntegrationTest, ToleratesSilentStatelessMinority) {
  SystemOptions opt = SmallOptions();
  opt.num_stateless_nodes = 24;
  opt.adversary = AdversarySpec::Parse("stateless:silent,alpha:0.2").value();
  opt.adversary.seed = opt.seed;
  PorygonSystem sys(opt);
  sys.CreateAccounts(40, 10'000);
  for (uint64_t from = 1; from <= 16; ++from) {
    sys.SubmitTransaction(Transfer(from, from + 20, 1, 0));
  }
  sys.Run(12);
  EXPECT_GT(sys.metrics().committed_intra_txs(), 0u);
}

TEST(SystemIntegrationTest, StatelessFootprintStaysFlat) {
  PorygonSystem sys(SmallOptions());
  sys.CreateAccounts(40, 10'000);
  Rng rng(3);
  std::map<uint64_t, uint64_t> nonces;
  for (int i = 0; i < 200; ++i) {
    uint64_t from = 1 + rng.NextBelow(40);
    uint64_t to = 1 + rng.NextBelow(40);
    if (from == to) continue;
    if (sys.SubmitTransaction(Transfer(from, to, 1, nonces[from])).ok()) {
      ++nonces[from];
    }
  }
  sys.Run(12);
  // Every stateless node's modeled footprint stays small (<< the chain).
  for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
    EXPECT_LT(sys.stateless_node(i)->StorageFootprintBytes(), 6u << 20);
  }
}

TEST(SystemIntegrationTest, SubmitTransactionReportsRejections) {
  PorygonSystem sys(SmallOptions());
  sys.CreateAccounts(40, 10'000);

  EXPECT_TRUE(sys.SubmitTransaction(Transfer(1, 21, 5, 0)).ok());

  // Resubmitting the identical transaction is a duplicate.
  Status dup = sys.SubmitTransaction(Transfer(1, 21, 5, 0));
  EXPECT_TRUE(dup.IsAlreadyExists());

  // Malformed transactions never reach the mempool.
  EXPECT_TRUE(sys.SubmitTransaction(Transfer(0, 21, 5, 0)).IsInvalidArgument());
  EXPECT_TRUE(sys.SubmitTransaction(Transfer(1, 0, 5, 0)).IsInvalidArgument());
  EXPECT_TRUE(sys.SubmitTransaction(Transfer(7, 7, 5, 0)).IsInvalidArgument());

  // Rejections are visible in the registry.
  const obs::MetricsRegistry* reg = sys.metrics_registry();
  EXPECT_EQ(reg->CounterValue("porygon.rejected_txs",
                              {{"reason", "duplicate"}}),
            1u);
  EXPECT_EQ(reg->CounterValue("porygon.rejected_txs", {{"reason", "invalid"}}),
            3u);
  EXPECT_EQ(reg->CounterValue("porygon.submitted_txs", {}), 1u);
}

TEST(SystemIntegrationTest, OptionsValidateCatchesBadConfigs) {
  EXPECT_TRUE(SmallOptions().Validate().ok());

  SystemOptions opt = SmallOptions();
  opt.num_stateless_nodes = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  opt = SmallOptions();
  opt.oc_size = opt.num_stateless_nodes + 1;  // OC cannot exceed population.
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  opt = SmallOptions();
  opt.adversary.alpha = 1.5;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  opt = SmallOptions();
  opt.params.block_tx_limit = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  opt = SmallOptions();
  opt.mean_session_s = -1.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(SystemIntegrationTest, MetricsExportIsDeterministic) {
  auto export_once = [] {
    PorygonSystem sys(SmallOptions());
    sys.CreateAccounts(40, 10'000);
    for (uint64_t from = 1; from <= 12; ++from) {
      (void)sys.SubmitTransaction(Transfer(from, from + 20, 3, 0));
      (void)sys.SubmitTransaction(Transfer(from + 20, from + 1, 2, 0));
    }
    sys.Run(10);
    return std::make_pair(sys.metrics().ToJson(), sys.metrics().ToCsv());
  };
  auto a = export_once();
  auto b = export_once();
  EXPECT_EQ(a.first, b.first);    // Byte-identical JSON.
  EXPECT_EQ(a.second, b.second);  // Byte-identical CSV.

  // The export covers all instrumented layers.
  EXPECT_NE(a.first.find("net.sent_bytes"), std::string::npos);
  EXPECT_NE(a.first.find("porygon.phase_seconds"), std::string::npos);
  EXPECT_NE(a.first.find("db.wal_bytes"), std::string::npos);
  EXPECT_NE(a.first.find("consensus.decisions"), std::string::npos);
  EXPECT_NE(a.first.find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace porygon::core
