// Fig 9(b): per-phase network usage of Porygon's stateless nodes versus a
// ByShard full node (10 shards / 100 nodes in the paper; 8 shards here).
// The paper reports each Porygon phase consuming 50-80% less bandwidth
// than the full node's per-round traffic, because the 3D design spreads
// work across phases and committees.

#include "baselines/byshard.h"
#include "bench_util.h"

int main() {
  using namespace porygon;
  bench::PrintHeader(
      "Fig 9(b): network usage per phase vs ByShard full node (paper: each "
      "phase 50-80% below the full node)");

  const int shard_bits = 3;

  core::SystemOptions opt;
  opt.params.shard_bits = shard_bits;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 1000;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 100;
  opt.oc_size = 10;
  opt.blocks_per_shard_round = 1;
  opt.seed = 19;
  core::PorygonSystem sys(opt);
  sys.CreateAccounts(500'000, 1'000'000);
  workload::UniformTrafficModel gen({.num_accounts = 500'000,
                                     .shard_bits = shard_bits,
                                     .cross_shard_ratio = 0.1,
                                     .seed = 10});
  size_t per_round =
      opt.params.block_tx_limit * (size_t{1} << shard_bits);
  bench::RunSaturated(&sys, &gen, 8, per_round);
  auto phases = sys.StatelessPhaseTraffic();

  baselines::ByshardOptions bopt;
  bopt.shard_bits = shard_bits;
  bopt.nodes_per_shard = 12;
  bopt.block_tx_limit = 1000;
  bopt.seed = 19;
  baselines::ByshardSystem byshard(bopt);
  byshard.CreateAccounts(500'000, 1'000'000);
  workload::UniformTrafficModel bgen({.num_accounts = 500'000,
                                      .shard_bits = shard_bits,
                                      .cross_shard_ratio = 0.1,
                                      .seed = 10});
  for (int r = 0; r < 10; ++r) {
    for (const auto& t : bgen.Batch(per_round)) byshard.SubmitTransaction(t);
    byshard.Run(1);
  }
  double full_node = byshard.MeanNodeTrafficPerRound();

  const char* names[4] = {"Witness", "Ordering", "Execution", "Commit"};
  bench::PrintRow({"phase", "bytes/node/round", "vs_full_node"});
  for (int p = 0; p < 4; ++p) {
    double bytes = phases.count(p) ? phases[p] : 0;
    double pct = full_node > 0 ? 100.0 * (1.0 - bytes / full_node) : 0;
    bench::PrintRow({names[p], bench::FmtInt(bytes),
                     "-" + bench::Fmt(pct, 0) + "%"});
  }
  bench::PrintRow({"ByShard full node", bench::FmtInt(full_node), "baseline"});
  return 0;
}
