// State-substrate microbenchmarks: sparse Merkle tree single vs batched
// updates (the ablation motivating PutBatch), proofs, and the LSM engine.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "state/smt.h"
#include "storage/db.h"
#include "storage/env.h"

namespace {
using namespace porygon;
using namespace porygon::state;

void BM_SmtPutSingle(benchmark::State& state) {
  Rng rng(1);
  SparseMerkleTree tree;
  for (int i = 0; i < 10000; ++i) {
    tree.Put(rng.NextU64() % 1'000'000, ToBytes("init"));
  }
  uint64_t k = 0;
  for (auto _ : state) {
    tree.Put(k++ % 1'000'000, ToBytes("value"));
  }
}
BENCHMARK(BM_SmtPutSingle);

void BM_SmtPutBatch(benchmark::State& state) {
  // Batched path amortizes shared path levels: compare items/second here
  // against BM_SmtPutSingle.
  Rng rng(2);
  SparseMerkleTree tree;
  for (int i = 0; i < 10000; ++i) {
    tree.Put(rng.NextU64() % 1'000'000, ToBytes("init"));
  }
  const size_t batch = state.range(0);
  std::vector<std::pair<uint64_t, Bytes>> writes;
  for (size_t i = 0; i < batch; ++i) {
    writes.emplace_back(rng.NextU64() % 1'000'000, ToBytes("value"));
  }
  for (auto _ : state) {
    tree.PutBatch(writes);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SmtPutBatch)->Arg(100)->Arg(1000)->Arg(8000);

void BM_SmtPutBatchShard(benchmark::State& state) {
  // Shaped like one shard of the transfer workload: ~60k live accounts
  // with ids = 1 (mod 4) below 2^20, rewritten by 1,300-write blocks. The
  // 10k-leaf trees above fit in cache and hide node-table churn; this one
  // does not.
  Rng rng(5);
  auto account_id = [&rng] { return 4 * (rng.NextU64() % (1u << 18)) + 1; };
  std::vector<std::pair<uint64_t, Bytes>> init;
  for (int i = 0; i < 65536; ++i) {
    init.emplace_back(account_id(), ToBytes("balance-and-nonce"));
  }
  SparseMerkleTree tree;
  tree.PutBatch(init);
  // Rotate through fixed blocks that rewrite live accounts, each with its
  // own value, so every block changes the leaves it touches.
  constexpr size_t kBlockWrites = 1300;
  std::vector<std::vector<std::pair<uint64_t, Bytes>>> blocks(8);
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t i = 0; i < kBlockWrites; ++i) {
      blocks[b].emplace_back(init[rng.NextU64() % init.size()].first,
                             ToBytes("block-value-" + std::to_string(b)));
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    tree.PutBatch(blocks[next]);
    next = (next + 1) % blocks.size();
  }
  benchmark::DoNotOptimize(tree.Root());
  state.SetItemsProcessed(state.iterations() * kBlockWrites);
  state.counters["leaves"] = static_cast<double>(tree.LeafCount());
}
BENCHMARK(BM_SmtPutBatchShard);

void BM_SmtProveVerify(benchmark::State& state) {
  Rng rng(3);
  SparseMerkleTree tree;
  for (int i = 0; i < 10000; ++i) {
    tree.Put(i, ToBytes("v" + std::to_string(i)));
  }
  auto root = tree.Root();
  uint64_t k = 0;
  for (auto _ : state) {
    uint64_t key = k++ % 10000;
    auto proof = tree.Prove(key);
    benchmark::DoNotOptimize(SparseMerkleTree::Verify(
        root, key, ToBytes("v" + std::to_string(key)), proof));
  }
}
BENCHMARK(BM_SmtProveVerify);

void BM_DbPut(benchmark::State& state) {
  storage::MemEnv env;
  auto db = storage::Db::Open(&env, "db");
  Rng rng(4);
  uint64_t k = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(k++);
    (void)(*db)->Put(ToBytes(key), ToBytes("value-payload-16B"));
  }
}
BENCHMARK(BM_DbPut);

void BM_DbGet(benchmark::State& state) {
  storage::MemEnv env;
  auto db = storage::Db::Open(&env, "db");
  for (int i = 0; i < 20000; ++i) {
    (void)(*db)->Put(ToBytes("key" + std::to_string(i)), ToBytes("value"));
  }
  (void)(*db)->Flush();
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*db)->Get(ToBytes("key" + std::to_string(k++ % 20000))));
  }
}
BENCHMARK(BM_DbGet);

}  // namespace

BENCHMARK_MAIN();
