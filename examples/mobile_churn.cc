// Mobile-churn scenario: resource-limited devices joining and leaving (the
// population Porygon targets — the paper's stateless nodes are provisioned
// like smartphones: 1 MB/s, ~5 MB storage). Compares Porygon against the
// Blockene-style baseline under shrinking session lengths, reproducing the
// Fig 8(d) story at example scale.
//
//   ./example_mobile_churn

#include <cstdio>

#include "baselines/blockene.h"
#include "core/system.h"
#include "workload/traffic.h"

namespace {
double RunPorygon(double mean_session_s) {
  using namespace porygon;
  core::SystemOptions options;
  options.params.shard_bits = 1;
  options.params.witness_threshold = 2;
  options.params.execution_threshold = 2;
  options.params.block_tx_limit = 500;
  options.num_storage_nodes = 2;
  options.num_stateless_nodes = 40;
  options.oc_size = 6;
  options.mean_session_s = mean_session_s;
  options.seed = 5;

  core::PorygonSystem system(options);
  system.CreateAccounts(100'000, 1'000'000);
  workload::UniformTrafficModel gen({.num_accounts = 100'000,
                                     .shard_bits = 1,
                                     .cross_shard_ratio = 0.1,
                                     .seed = 4});
  for (int r = 0; r < 12; ++r) {
    system.SubmitBatch(gen.Batch(2000));
    system.Run(1);
  }
  return system.metrics().Tps(system.sim_seconds());
}

double RunBlockene(double mean_session_s) {
  using namespace porygon;
  baselines::BlockeneOptions options;
  options.num_stateless_nodes = 40;
  options.committee_size = 10;
  options.committee_tenure_rounds = 50;
  options.block_tx_limit = 1000;
  options.mean_session_s = mean_session_s;
  options.seed = 5;

  baselines::BlockeneSystem system(options);
  system.CreateAccounts(100'000, 1'000'000);
  workload::UniformTrafficModel gen(
      {.num_accounts = 100'000, .shard_bits = 0, .seed = 4});
  for (int r = 0; r < 12; ++r) {
    for (const auto& t : gen.Batch(1000)) system.SubmitTransaction(t);
    system.Run(1);
  }
  return system.metrics().Tps(system.sim_seconds());
}
}  // namespace

int main() {
  std::printf("Throughput under churn (mean node session length):\n\n");
  std::printf("%-14s%-16s%-16s\n", "session", "porygon_tps", "blockene_tps");
  for (double session_s : {20.0, 60.0, 0.0}) {
    double porygon = RunPorygon(session_s);
    double blockene = RunBlockene(session_s);
    char label[32];
    if (session_s == 0) {
      std::snprintf(label, sizeof(label), "infinite");
    } else {
      std::snprintf(label, sizeof(label), "%.0f s", session_s);
    }
    std::printf("%-14s%-16.0f%-16.0f\n", label, porygon, blockene);
  }
  std::printf(
      "\nPorygon's ECs live 3 rounds, so departures cost a node-round;\n"
      "Blockene's 50-block committees stall whole rounds when members "
      "leave.\n");
  return 0;
}
