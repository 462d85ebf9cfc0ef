// Fig 7(a): prototype scalability. The paper increases shards 10 -> 30
// (10 stateless nodes per shard, so 100 -> 300 nodes, 2 storage nodes) and
// reports linearly increasing throughput (7,240 -> 21,090 TPS), block
// creation latency rising only 4.5 -> 4.7 s, commit latency stable ~13 s,
// and user-perceived latency 20 -> 21 s.
//
// Shards here are powers of two (accounts shard by the last N bits), so the
// sweep is 8 / 16 / 32 shards at 10 nodes per shard. Accepts the shared
// cross-cutting flags; `--dissemination=tree` reruns the sweep with the
// aggregation-relay strategy to measure the fan-in fix.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace porygon;
  bench::Args args;
  if (Status st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  bench::PrintHeader(
      "Fig 7(a): Porygon prototype scalability (paper: 7,240->21,090 TPS; "
      "block 4.5->4.7 s; commit ~13 s; user 20->21 s)");
  if (args.has_dissemination()) {
    std::printf("dissemination: %s\n",
                args.Dissemination().ToString().c_str());
  }
  // The critical-path columns diagnose the fan-in flattening (ROADMAP
  // item 1): at 32 shards the dominant edge is the OC leader's downlink.
  bench::PrintRow({"shards", "nodes", "TPS", "block_lat_s", "commit_lat_s",
                   "user_lat_s", "dominant_edge", "oc_dl_util"});

  for (int shard_bits : {3, 4, 5}) {
    const int shards = 1 << shard_bits;

    core::SystemOptions opt = bench::ScaledOptions(shard_bits);
    if (Status st = args.ApplyOptions(&opt); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }

    core::PorygonSystem sys(opt);
    if (Status st = args.ApplyFaults(&sys); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    const uint64_t accounts = 1'000'000;
    sys.CreateAccounts(accounts, 1'000'000);
    workload::UniformTrafficModel gen({.num_accounts = accounts,
                                       .shard_bits = shard_bits,
                                       .cross_shard_ratio = 0.1,
                                       .seed = 7});

    size_t per_round = opt.blocks_per_shard_round * opt.params.block_tx_limit *
                       static_cast<size_t>(shards);
    auto r = bench::RunSaturated(&sys, &gen, 8, per_round);
    bench::PrintRow({std::to_string(shards),
                     std::to_string(opt.num_stateless_nodes),
                     bench::FmtInt(r.tps), bench::Fmt(r.block_latency_s),
                     bench::Fmt(r.commit_latency_s),
                     bench::Fmt(r.user_latency_s), r.dominant_edge,
                     bench::Fmt(r.oc_downlink_util, 3)});
  }
  return 0;
}
