// Export probe: runs one small, fixed-seed deployment and writes every
// sim-derived export to a directory, so two builds of the simulator can be
// compared byte for byte (scripts/export_diff.sh drives it).
//
//   export_probe <out_dir> <rounds|tick> <direct|tree>
//                <clean|faulty|faithful|tamper> <trace|notrace|tracecap>
//
//   rounds   Run(1) per round, submitting a batch before each.
//   tick     sim-time open loop: every 0.1 s submit the tick's transactions
//            and Run(1 << 30, tick_end) — calls Run() in the middle of rounds.
//   faulty   2% message loss, storage node 1 crashed at 8 s, recovered at 16 s.
//   faithful storage nodes ship real Merkle proofs and every ESC member
//            verifies them and executes on its own PartialState.
//   tamper   faithful, plus `storage:tamper-state`: corrupted storage nodes
//            doctor the account values of their state replies.
//   tracecap tracing with a 400-span budget, exhausted mid-run.
//
// Writes metrics.json, reports.json, trace.json and global_root.hex. Compute
// threads follow PORYGON_THREADS. Only long-standing public API is used, so
// the same source compiles against older revisions of the library.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/system.h"
#include "net/dissemination.h"
#include "net/fault.h"
#include "workload/traffic.h"

namespace {

using namespace porygon;  // NOLINT: a single-purpose tool.

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  return static_cast<bool>(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: export_probe <out_dir> <rounds|tick> <direct|tree> "
               "<clean|faulty|faithful|tamper> <trace|notrace|tracecap>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) return Usage();
  const std::string out_dir = argv[1];
  const bool tick = std::strcmp(argv[2], "tick") == 0;
  const std::string faults = argv[4];
  const bool faulty = faults == "faulty";

  core::SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 3;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 33;
  const std::string trace = argv[5];
  opt.trace.enabled = trace != "notrace";
  opt.trace.sample_transactions = 8;
  if (trace == "tracecap") opt.trace.max_spans = 400;
  auto dissemination = net::DisseminationSpec::Parse(argv[3]);
  if (!dissemination.ok()) return Usage();
  opt.dissemination = *dissemination;
  if (faults == "faithful" || faults == "tamper") opt.faithful_execution = true;
  if (faults == "tamper") {
    auto adversary = core::AdversarySpec::Parse("storage:tamper-state");
    if (!adversary.ok()) return Usage();
    opt.adversary = *adversary;
  }
  if (Status s = opt.Validate(); !s.ok()) {
    std::fprintf(stderr, "export_probe: %s\n", s.ToString().c_str());
    return 1;
  }

  core::PorygonSystem sys(opt);
  if (faulty) {
    auto plan = net::FaultPlan::Parse("loss:0.02,crash:1:8,recover:1:16");
    if (!plan.ok()) return 1;
    plan->seed = 77;
    if (Status s = sys.InjectFaults(*plan); !s.ok()) {
      std::fprintf(stderr, "export_probe: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const uint64_t accounts = 1000;
  sys.CreateAccounts(accounts, 1'000'000);
  workload::UniformTrafficModel gen({.num_accounts = accounts,
                                     .shard_bits = opt.params.shard_bits,
                                     .cross_shard_ratio = 0.2,
                                     .seed = 7});
  if (tick) {
    // 40 tx/s for 60 s of sim time.
    for (int t = 1; t <= 600; ++t) {
      sys.SubmitBatch(gen.Batch(4));
      sys.Run(1 << 30, static_cast<net::SimTime>(t) * 100'000);
    }
  } else {
    for (int r = 0; r < 12; ++r) {
      sys.SubmitBatch(gen.Batch(100));
      sys.Run(1, net::FromSeconds(120));
    }
  }

  const crypto::Hash256 root = sys.canonical_state().GlobalRoot();
  std::string hex;
  for (uint8_t b : root) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  hex += "\n";
  const bool ok =
      WriteFile(out_dir + "/metrics.json", sys.metrics().ToJson()) &&
      WriteFile(out_dir + "/reports.json",
                sys.critical_path().ReportsJson()) &&
      WriteFile(out_dir + "/trace.json", sys.tracer()->ExportChromeJson()) &&
      WriteFile(out_dir + "/global_root.hex", hex);
  return ok ? 0 : 1;
}
