#ifndef PORYGON_BENCH_BENCH_UTIL_H_
#define PORYGON_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction harnesses. Each bench
// binary regenerates one table or figure from the paper's §VI and prints
// the same series, labelled with the paper's reported values where
// available so the shape comparison is immediate.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "net/dissemination.h"
#include "net/fault.h"
#include "net/topology.h"
#include "workload/traffic.h"

namespace porygon::bench {

/// One CLI parser for every bench/example binary. The cross-cutting spec
/// flags are accepted uniformly everywhere:
///
///   --workload=<spec>       workload::Spec::Parse clause grammar
///   --faults=<spec>         net::FaultPlan::Parse clause grammar
///   --adversary=<spec>      core::AdversarySpec::Parse clause grammar
///   --dissemination=<spec>  net::DisseminationSpec::Parse clause grammar
///   --trace-out=<file>      enable tracing, export Chrome JSON after run
///
/// Per-binary flags are declared with Declare("--rounds=") before Parse and
/// read back with Value(). Specs are validated eagerly, so a typo fails at
/// the command line instead of silently running the default scenario; any
/// undeclared `--flag` is an error instead of a silent ignore.
class Args {
 public:
  Args& Declare(const std::string& prefix) {
    declared_.emplace_back(prefix, "");
    return *this;
  }

  Status Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;  // Positional args pass through.
      std::string value;
      if (Match(arg, "--workload=", &value)) {
        PORYGON_ASSIGN_OR_RETURN(workload_, workload::Spec::Parse(value));
      } else if (Match(arg, "--faults=", &value)) {
        PORYGON_ASSIGN_OR_RETURN(faults_, net::FaultPlan::Parse(value));
      } else if (Match(arg, "--adversary=", &value)) {
        PORYGON_ASSIGN_OR_RETURN(adversary_,
                                 core::AdversarySpec::Parse(value));
      } else if (Match(arg, "--dissemination=", &value)) {
        PORYGON_ASSIGN_OR_RETURN(dissemination_,
                                 net::DisseminationSpec::Parse(value));
      } else if (Match(arg, "--trace-out=", &value)) {
        trace_out_ = value;
      } else if (!MatchDeclared(arg)) {
        return Status::InvalidArgument("unknown flag: " + arg);
      }
    }
    return Status::Ok();
  }

  bool has_workload() const { return workload_.has_value(); }
  /// The parsed --workload spec, or `fallback` when the flag was absent.
  workload::Spec WorkloadOr(const workload::Spec& fallback) const {
    return workload_.value_or(fallback);
  }
  bool has_faults() const { return faults_.has_value(); }
  bool has_adversary() const { return adversary_.has_value(); }
  bool has_dissemination() const { return dissemination_.has_value(); }
  /// The parsed --dissemination spec; `direct` when the flag was absent.
  net::DisseminationSpec Dissemination() const {
    return dissemination_.value_or(net::DisseminationSpec{});
  }
  const std::string& trace_out() const { return trace_out_; }

  /// Value of a declared per-binary flag; empty when absent.
  std::string Value(const std::string& prefix) const {
    for (const auto& [p, v] : declared_) {
      if (p == prefix) return v;
    }
    return "";
  }

  /// Folds --adversary and --trace-out into `options` and re-validates, so
  /// a spec that is well-formed but infeasible for this deployment (e.g.
  /// corruption above the committee threshold) fails before construction.
  Status ApplyOptions(core::SystemOptions* options) const {
    if (!trace_out_.empty()) options->trace.enabled = true;
    if (dissemination_.has_value()) {
      options->dissemination = *dissemination_;
      PORYGON_RETURN_IF_ERROR(options->Validate());
    }
    if (adversary_.has_value()) {
      options->adversary = *adversary_;
      PORYGON_RETURN_IF_ERROR(options->Validate());
    }
    return Status::Ok();
  }

  /// Arms --faults against a constructed system (no-op when absent).
  Status ApplyFaults(core::PorygonSystem* system) const {
    if (!faults_.has_value()) return Status::Ok();
    return system->InjectFaults(*faults_);
  }

 private:
  static bool Match(const std::string& arg, const char* prefix,
                    std::string* value) {
    const std::string p(prefix);
    if (arg.rfind(p, 0) != 0) return false;
    *value = arg.substr(p.size());
    return true;
  }

  bool MatchDeclared(const std::string& arg) {
    for (auto& [prefix, value] : declared_) {
      if (arg.rfind(prefix, 0) == 0) {
        value = arg.substr(prefix.size());
        return true;
      }
    }
    return false;
  }

  std::vector<std::pair<std::string, std::string>> declared_;
  std::optional<workload::Spec> workload_;
  std::optional<net::FaultPlan> faults_;
  std::optional<core::AdversarySpec> adversary_;
  std::optional<net::DisseminationSpec> dissemination_;
  std::string trace_out_;
};

/// The standard scaled deployment every figure driver was hand-rolling:
/// `1 << shard_bits` shards at `nodes_per_shard` stateless nodes each over
/// a two-node storage tier, thresholds 2/2, 2000-tx blocks, two blocks per
/// shard round, seed 42. Drivers override individual fields after the call.
inline core::SystemOptions ScaledOptions(int shard_bits,
                                         int nodes_per_shard = 10) {
  const net::Topology topo = net::Topology::Scaled(shard_bits,
                                                   nodes_per_shard);
  core::SystemOptions opt;
  opt.params.shard_bits = shard_bits;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 2000;
  opt.params.storage_connections = 2;
  opt.params.storage_bps = topo.storage_bps();
  opt.params.stateless_bps = topo.stateless_bps();
  opt.num_storage_nodes = topo.storage_nodes();
  opt.num_stateless_nodes = topo.stateless_nodes();
  opt.oc_size = 10;
  opt.blocks_per_shard_round = 2;
  opt.seed = 42;
  return opt;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%-18s", c.c_str());
  std::printf("\n");
}

inline std::string Fmt(double v, int digits = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

inline std::string FmtInt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

inline double MeanOf(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double v : xs) sum += v;
  return sum / static_cast<double>(xs.size());
}

/// Headline numbers for one Porygon run, read off the metrics facade and
/// the critical-path analyzer.
struct RunSummary {
  double tps = 0;
  double block_latency_s = 0;
  double commit_latency_s = 0;
  double user_latency_s = 0;
  double user_latency_p99_s = 0;
  uint64_t committed_txs = 0;
  /// Most frequent dominant latency segment / bottleneck edge across the
  /// run's round reports (e.g. "downlink_queue" / "oc_leader.downlink").
  std::string dominant_segment;
  std::string dominant_edge;
  /// Mean busy-time fraction of the OC leader's downlink per round window
  /// (0..1) — the fan-in bottleneck ROADMAP item 1 targets.
  double oc_downlink_util = 0;
  /// Per-message queueing delay (seconds) on uplinks / downlinks:
  /// p50/p95/p99 of net.queue_delay_seconds.
  obs::HistogramSummary queue_delay_up_s;
  obs::HistogramSummary queue_delay_down_s;
};

/// Reads the headline numbers for a finished run from the system's
/// metrics facade.
inline RunSummary Summarize(const core::PorygonSystem& sys) {
  const core::SystemMetrics m = sys.metrics();
  RunSummary out;
  out.tps = m.Tps(sys.sim_seconds());
  out.block_latency_s = m.BlockLatency().mean;
  out.commit_latency_s = m.CommitLatency().mean;
  out.user_latency_s = m.UserLatency().mean;
  out.user_latency_p99_s = m.UserLatency().p99;
  out.committed_txs = m.committed_txs();
  const obs::CriticalPathAnalyzer& cp = sys.critical_path();
  out.dominant_segment = cp.DominantSegmentMode();
  out.dominant_edge = cp.DominantEdgeMode();
  out.oc_downlink_util = cp.MeanUtilization("oc_leader.downlink");
  const obs::MetricsRegistry& reg = sys.metrics_registry();
  if (const obs::Histogram* h =
          reg.FindHistogram("net.queue_delay_seconds", {{"dir", "up"}})) {
    out.queue_delay_up_s = h->Summary();
  }
  if (const obs::Histogram* h =
          reg.FindHistogram("net.queue_delay_seconds", {{"dir", "down"}})) {
    out.queue_delay_down_s = h->Summary();
  }
  return out;
}

/// Drives a Porygon prototype run under saturating load: before each round,
/// tops the mempool up so every shard can fill its blocks, then runs one
/// round. Returns the sustained TPS over the measured window.
inline RunSummary RunSaturated(core::PorygonSystem* sys,
                               workload::TrafficModel* gen, int rounds,
                               size_t txs_per_round) {
  // Warmup fills the pipeline (first commits lag by the pipeline depth).
  const int warmup = 4;
  for (int r = 0; r < rounds + warmup; ++r) {
    sys->SubmitBatch(gen->Batch(txs_per_round));
    sys->Run(1);
  }
  return Summarize(*sys);
}

/// Drives a Porygon run open-loop: each round offers `offered_tps` worth
/// of transactions sized by the estimated round duration, regardless of
/// whether the system keeps up. With an `arrival` process, the per-round
/// offer follows its rate curve over sim time (mean stays `offered_tps`).
inline RunSummary RunOpenLoop(core::PorygonSystem* sys,
                              workload::TrafficModel* gen, int rounds,
                              double offered_tps, double est_round_s,
                              const workload::ArrivalProcess* arrival =
                                  nullptr) {
  const int warmup = 4;
  const size_t flat = static_cast<size_t>(offered_tps * est_round_s);
  for (int r = 0; r < rounds + warmup; ++r) {
    size_t n = flat;
    if (arrival != nullptr) {
      n = arrival->CountFor(sys->sim_seconds(), est_round_s, offered_tps);
    }
    sys->SubmitBatch(gen->Batch(n));
    sys->Run(1);
  }
  return Summarize(*sys);
}

/// Open-loop driver for the baseline systems (Blockene/ByShard), whose
/// SubmitTransaction still returns bool and whose metrics are plain
/// structs. Returns the achieved TPS.
template <typename System>
double DriveOpenLoopTps(System* sys, workload::TrafficModel* gen,
                        int rounds, size_t txs_per_round) {
  for (int r = 0; r < rounds; ++r) {
    for (const auto& t : gen->Batch(txs_per_round)) {
      (void)sys->SubmitTransaction(t);
    }
    sys->Run(1);
  }
  return sys->metrics().Tps(sys->sim_seconds());
}

/// Real (host) elapsed time for a bench section. Wall clock lives only in
/// bench binaries — simulation outputs stay wall-clock-free so same-seed
/// runs export byte-identical artifacts.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Host-side run provenance stamped next to a metrics export: how long the
/// run took in real time, how many pool worker threads it used, and — when
/// the run was adversarial — the canonical `--adversary=` spec plus the
/// evidence count honest nodes collected (so an archived JSON names the
/// attack it survived).
struct BenchStamp {
  double wall_ms = 0;
  int worker_threads = 0;
  std::string adversary_spec;
  uint64_t adversary_evidence = 0;
  /// Canonical `--dissemination=` spec of the run (empty = default direct),
  /// so an archived JSON names the message-flow strategy it measured.
  std::string dissemination_spec;
};

/// Dumps the system's full metrics registry as JSON to `path` (stdout on
/// failure is silent: benches treat the export as best-effort). With a
/// `stamp`, the registry JSON is wrapped in an envelope carrying the
/// wall-clock provenance plus the run's critical-path attribution:
/// {"bench": {...}, "critical_path": {...}, "metrics": {...}}. Only the
/// envelope's bench block varies run-to-run; the critical_path and
/// metrics blocks are sim-derived and stay byte-identical for a given
/// seed and config at any thread count.
inline bool WriteMetricsJson(const core::PorygonSystem& sys,
                             const std::string& path,
                             const BenchStamp* stamp = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string json = sys.metrics().ToJson();
  if (stamp != nullptr) {
    char head[384];
    std::string extra;
    if (!stamp->adversary_spec.empty()) {
      extra += ",\"adversary\":\"" + stamp->adversary_spec +
               "\",\"evidence\":" +
               std::to_string(stamp->adversary_evidence);
    }
    if (!stamp->dissemination_spec.empty()) {
      extra += ",\"dissemination\":\"" + stamp->dissemination_spec + "\"";
    }
    std::snprintf(head, sizeof(head),
                  "{\"bench\":{\"wall_ms\":%.3f,\"worker_threads\":%d%s},\n",
                  stamp->wall_ms, stamp->worker_threads, extra.c_str());
    const obs::CriticalPathAnalyzer& cp = sys.critical_path();
    const auto triple = [&sys](const char* dir) {
      obs::HistogramSummary q;
      if (const obs::Histogram* h = sys.metrics_registry().FindHistogram(
              "net.queue_delay_seconds", {{"dir", dir}})) {
        q = h->Summary();
      }
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "{\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g}", q.p50, q.p95,
                    q.p99);
      return std::string(buf);
    };
    char cp_head[128];
    std::snprintf(cp_head, sizeof(cp_head), "\"oc_downlink_util\":%.6g",
                  cp.MeanUtilization("oc_leader.downlink"));
    const std::string cp_block =
        "\"critical_path\":{\"dominant_segment\":\"" +
        cp.DominantSegmentMode() + "\",\"dominant_edge\":\"" +
        cp.DominantEdgeMode() + "\"," + cp_head +
        ",\"queue_delay_s\":{\"up\":" + triple("up") +
        ",\"down\":" + triple("down") + "}},\n";
    json = std::string(head) + cp_block + "\"metrics\":" + json + "}";
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

/// Dumps the system's span buffer as Chrome trace_event JSON to `path` —
/// open it at https://ui.perfetto.dev. Empty unless the run was configured
/// with SystemOptions::trace.enabled. Deterministic: same seed and config
/// produce byte-identical files.
inline bool WriteTraceJson(core::PorygonSystem* sys, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string json = sys->tracer()->ExportChromeJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace porygon::bench

#endif  // PORYGON_BENCH_BENCH_UTIL_H_
