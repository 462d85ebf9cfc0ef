// Fig 9(a): storage consumption as block height grows (~1,000-tx blocks,
// 100 nodes). ByShard full nodes must keep complete block contents, so
// their footprint grows linearly with height; Porygon's stateless nodes
// keep only verification material (block header + committee keys) and stay
// flat (~5 MB in the paper's deployment).

#include "baselines/byshard.h"
#include "bench_util.h"

int main() {
  using namespace porygon;
  bench::PrintHeader(
      "Fig 9(a): storage vs block height (paper: ByShard grows; Porygon "
      "stateless nodes flat ~5 MB)");
  bench::PrintRow({"height", "byshard_node_bytes", "porygon_stateless_bytes"});

  const int shard_bits = 2;

  // ByShard: run in height increments, sampling a full node's disk.
  baselines::ByshardOptions bopt;
  bopt.shard_bits = shard_bits;
  bopt.nodes_per_shard = 10;
  bopt.block_tx_limit = 1000;
  bopt.seed = 12;
  baselines::ByshardSystem byshard(bopt);
  byshard.CreateAccounts(500'000, 1'000'000);
  workload::UniformTrafficModel bgen({.num_accounts = 500'000,
                                      .shard_bits = shard_bits,
                                      .cross_shard_ratio = 0.1,
                                      .seed = 9});

  // Porygon: same block budget; sample the max stateless-node footprint.
  core::SystemOptions popt;
  popt.params.shard_bits = shard_bits;
  popt.params.witness_threshold = 2;
  popt.params.execution_threshold = 2;
  popt.params.block_tx_limit = 1000;
  popt.num_storage_nodes = 2;
  popt.num_stateless_nodes = 100;
  popt.oc_size = 8;
  popt.blocks_per_shard_round = 1;
  popt.seed = 12;
  core::PorygonSystem porygon(popt);
  porygon.CreateAccounts(500'000, 1'000'000);
  workload::UniformTrafficModel pgen({.num_accounts = 500'000,
                                      .shard_bits = shard_bits,
                                      .cross_shard_ratio = 0.1,
                                      .seed = 9});

  for (int step = 1; step <= 6; ++step) {
    for (int r = 0; r < 4; ++r) {
      for (const auto& t : bgen.Batch(1000 * (1 << shard_bits))) {
        byshard.SubmitTransaction(t);
      }
      byshard.Run(1);
      porygon.SubmitBatch(pgen.Batch(1000 * (1 << shard_bits)));
      porygon.Run(1);
    }
    uint64_t porygon_max = 0;
    for (int i = 0; i < porygon.num_stateless_nodes(); ++i) {
      porygon_max = std::max(
          porygon_max, porygon.stateless_node(i)->StorageFootprintBytes());
    }
    bench::PrintRow({std::to_string(step * 4),
                     std::to_string(byshard.NodeStorageBytes(0)),
                     std::to_string(porygon_max)});
  }
  return 0;
}
