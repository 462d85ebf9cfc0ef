#include "workload/scenario.h"

#include <cstdio>
#include <memory>

#include "core/system.h"
#include "net/fault.h"
#include "workload/traffic.h"

namespace porygon::workload {

namespace {

std::string F(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string U(uint64_t v) { return std::to_string(v); }

uint64_t RejectedCount(const obs::MetricsRegistry& reg, const char* reason) {
  const obs::Counter* c =
      reg.FindCounter("porygon.rejected_txs", {{"reason", reason}});
  return c == nullptr ? 0 : c->value();
}

}  // namespace

Result<std::string> RunScenarioCell(const ScenarioCell& cell,
                                    const ScenarioOptions& opt) {
  PORYGON_ASSIGN_OR_RETURN(Spec spec, Spec::Parse(cell.workload));
  spec.shard_bits = opt.shard_bits;

  core::SystemOptions sys_opt;
  sys_opt.params.shard_bits = opt.shard_bits;
  sys_opt.params.witness_threshold = 2;
  sys_opt.params.execution_threshold = 2;
  sys_opt.params.block_tx_limit = opt.block_tx_limit;
  sys_opt.num_storage_nodes = opt.num_storage_nodes;
  sys_opt.num_stateless_nodes = opt.num_stateless_nodes;
  sys_opt.oc_size = opt.oc_size;
  sys_opt.seed = opt.system_seed;
  sys_opt.worker_threads = opt.worker_threads;
  if (!cell.adversary.empty()) {
    PORYGON_ASSIGN_OR_RETURN(sys_opt.adversary,
                             core::AdversarySpec::Parse(cell.adversary));
    PORYGON_RETURN_IF_ERROR(sys_opt.Validate());
  }
  if (!cell.dissemination.empty()) {
    PORYGON_ASSIGN_OR_RETURN(
        sys_opt.dissemination,
        net::DisseminationSpec::Parse(cell.dissemination));
    PORYGON_RETURN_IF_ERROR(sys_opt.Validate());
  }

  core::PorygonSystem sys(sys_opt);
  if (!cell.faults.empty()) {
    PORYGON_ASSIGN_OR_RETURN(net::FaultPlan plan,
                             net::FaultPlan::Parse(cell.faults));
    PORYGON_RETURN_IF_ERROR(sys.InjectFaults(plan));
  }
  sys.CreateAccountsLazy(spec.num_accounts, opt.account_balance);

  std::unique_ptr<TrafficModel> model = spec.BuildModel();
  std::unique_ptr<ArrivalProcess> arrival = spec.BuildArrival();
  const int warmup = 4;
  for (int r = 0; r < opt.rounds + warmup; ++r) {
    const size_t n = arrival->CountFor(sys.sim_seconds(), opt.est_round_s,
                                       opt.offered_tps);
    sys.SubmitBatch(model->Batch(n));
    sys.Run(1);
  }

  const core::SystemMetrics m = sys.metrics();
  const obs::HistogramSummary lat = m.UserLatency();
  const uint64_t committed = m.committed_txs();
  const uint64_t discarded = m.discarded_txs();
  const double conflict_rate =
      committed + discarded > 0
          ? static_cast<double>(discarded) /
                static_cast<double>(committed + discarded)
          : 0.0;
  const obs::MetricsRegistry& reg = *sys.metrics_registry();

  std::string row = "{";
  row += "\"workload\":\"" + spec.ToString() + "\"";
  row += ",\"faults\":\"" + cell.faults + "\"";
  row += ",\"adversary\":\"" +
         (cell.adversary.empty() ? std::string()
                                 : sys_opt.adversary.ToString()) +
         "\"";
  row += ",\"dissemination\":\"" + sys_opt.dissemination.ToString() + "\"";
  row += ",\"model\":" + model->Describe();
  row += ",\"arrival\":" + arrival->Describe();
  row += ",\"rounds\":" + std::to_string(opt.rounds);
  row += ",\"offered_tps\":" + F(opt.offered_tps);
  row += ",\"committed_txs\":" + U(committed);
  row += ",\"tps\":" + F(m.Tps(sys.sim_seconds()));
  row += ",\"latency_s\":{\"mean\":" + F(lat.mean) +
         ",\"p50\":" + F(lat.p50) + ",\"p95\":" + F(lat.p95) +
         ",\"p99\":" + F(lat.p99) + "}";
  row += ",\"discarded_txs\":" + U(discarded);
  row += ",\"failed_txs\":" + U(m.failed_txs());
  row += ",\"conflict_rate\":" + F(conflict_rate);
  row += ",\"rejected\":{\"duplicate\":" + U(RejectedCount(reg, "duplicate")) +
         ",\"invalid\":" + U(RejectedCount(reg, "invalid")) +
         ",\"unavailable\":" + U(RejectedCount(reg, "unavailable")) + "}";
  row += ",\"replay_mismatches\":" + U(m.replay_mismatches());
  row += ",\"evidence\":" +
         U(cell.adversary.empty() ? 0 : sys.adversary()->evidence());
  // Critical-path attribution: the run's modal dominant segment/edge, the
  // OC-leader downlink utilization, and per-direction queue-delay
  // percentiles — all sim-derived, byte-identical per seed at any thread
  // count like every other field in the row.
  const obs::CriticalPathAnalyzer& cp = sys.critical_path();
  row += ",\"dominant_segment\":\"" + cp.DominantSegmentMode() + "\"";
  row += ",\"dominant_edge\":\"" + cp.DominantEdgeMode() + "\"";
  row += ",\"oc_downlink_util\":" +
         F(cp.MeanUtilization("oc_leader.downlink"));
  const auto queue_triple = [&reg](const char* dir) {
    obs::HistogramSummary q;
    if (const obs::Histogram* h =
            reg.FindHistogram("net.queue_delay_seconds", {{"dir", dir}})) {
      q = h->Summary();
    }
    return "{\"p50\":" + F(q.p50) + ",\"p95\":" + F(q.p95) +
           ",\"p99\":" + F(q.p99) + "}";
  };
  row += ",\"queue_delay_s\":{\"up\":" + queue_triple("up") +
         ",\"down\":" + queue_triple("down") + "}";
  row += "}";
  return row;
}

std::vector<ScenarioCell> DefaultScenarioMatrix() {
  // Every workload family under clean, faulty, and adversarial operation.
  // Account spaces differ per family so the matrix exercises both small
  // (contended) and million-account (lazily funded) regimes.
  const std::string uniform = "uniform,accounts:20000,cross:0.2,seed:11";
  const std::string zipf = "zipf:0.99,accounts:1000000,seed:11";
  const std::string flash =
      "flashcrowd:64,accounts:100000,hot:0.9,rotate:2000,"
      "arrival:bursty,period:20,duty:0.25,peak:4,seed:11";
  const std::string contract =
      "contract:4,accounts:50000,contracts:16,seed:11";
  const std::string faults = "loss:0.02,jitter:300,seed:5";
  const std::string adversary = "stateless:equivocate,alpha:0.2,seed:9";
  std::vector<ScenarioCell> cells;
  for (const std::string& w : {uniform, zipf, flash, contract}) {
    cells.push_back({w, "", "", ""});
    cells.push_back({w, faults, "", ""});
    cells.push_back({w, "", adversary, ""});
  }
  // Tree dissemination rides the matrix too: the aggregation-relay
  // strategy under the two headline workloads, clean and adversarial, so
  // snapshots track both strategies' throughput over time.
  cells.push_back({uniform, "", "", "tree"});
  cells.push_back({zipf, "", "", "tree"});
  cells.push_back({uniform, "", adversary, "tree"});
  return cells;
}

}  // namespace porygon::workload
