// Fig 7(c): dimension-by-dimension ablation on the prototype. The paper's
// bars: 1D baseline (2 storage + 10 stateless nodes, no pipelining or
// sharding) reaches 740 TPS; adding pipelining lifts it to 1,020 TPS;
// adding shards (10 more nodes each) scales further.
//
// Rows here: the 1D baseline is the Blockene-style sequential committee
// built on the same substrates; 2D is Porygon with a single shard
// (pipelining only); 3D adds 2 and 4 shards (powers of two).

#include "baselines/blockene.h"
#include "bench_util.h"

namespace {
porygon::bench::RunSummary RunPorygonShards(int shard_bits, int nodes) {
  using namespace porygon;
  core::SystemOptions opt;
  opt.params.shard_bits = shard_bits;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 2000;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = nodes;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 1;
  opt.seed = 11;
  core::PorygonSystem sys(opt);
  sys.CreateAccounts(500'000, 1'000'000);
  workload::UniformTrafficModel gen({.num_accounts = 500'000,
                                     .shard_bits = shard_bits,
                                     .cross_shard_ratio = 0.1,
                                     .seed = 3});
  size_t per_round =
      opt.params.block_tx_limit * (size_t{1} << shard_bits);
  return bench::RunSaturated(&sys, &gen, 8, per_round);
}
}  // namespace

int main() {
  using namespace porygon;
  bench::PrintHeader(
      "Fig 7(c): optimization ablation, prototype (paper: 1D 740 TPS -> "
      "+pipelining 1,020 TPS -> +2 shards -> +5 shards)");
  bench::PrintRow({"configuration", "nodes", "TPS"});

  {
    baselines::BlockeneOptions opt;
    opt.num_storage_nodes = 2;
    opt.num_stateless_nodes = 10;
    opt.committee_size = 10;
    opt.block_tx_limit = 2000;
    baselines::BlockeneSystem sys(opt);
    sys.CreateAccounts(500'000, 1'000'000);
    workload::UniformTrafficModel gen(
        {.num_accounts = 500'000, .shard_bits = 0, .seed = 3});
    double tps = bench::DriveOpenLoopTps(&sys, &gen, 10, 2000);
    bench::PrintRow({"1D:Baseline", "10", bench::FmtInt(tps)});
  }

  auto two_d = RunPorygonShards(/*shard_bits=*/0, /*nodes=*/13);
  bench::PrintRow({"2D:+Pipelining", "13", bench::FmtInt(two_d.tps)});

  auto three_d2 = RunPorygonShards(/*shard_bits=*/1, /*nodes=*/22);
  bench::PrintRow({"3D:+2 shards", "22", bench::FmtInt(three_d2.tps)});

  auto three_d4 = RunPorygonShards(/*shard_bits=*/2, /*nodes=*/40);
  bench::PrintRow({"3D:+4 shards", "40", bench::FmtInt(three_d4.tps)});
  return 0;
}
