// One benchmark run of one workload against the public PorygonSystem API.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> [--reps <r>]
//                    [--window-scale <f>]
//
// Load is open loop in sim time: every kTickS of sim time the driver takes
// ArrivalProcess::CountFor(t, tick, rate) transactions from the workload's
// TrafficModel, submits them with SubmitBatch, and advances the simulator to
// the next tick. Each repetition builds a fresh deployment (its seeds derived
// from --seed and the repetition index), warms it up until the pipeline has
// filled, then measures a fixed sim-time window. Window length is
// seconds * window-scale * the workload's sim-seconds-per-wall-second rate,
// split over the repetitions, so sim metrics repeat exactly for a seed while
// the wall time stays near --seconds on a 4-core x86-64 host.
//
// Every repetition ends with the correctness gate; a failure exits 1 and
// prints no metrics. On success the last stdout line is one JSON object of
// raw results, which run.py turns into the benchmark's output line. Built
// with PERFBENCH_TRACED (and the wrappers of wrap.cc), the binary also
// records spans over the measured window and reports per-layer self times.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/system.h"
#include "net/dissemination.h"
#include "net/fault.h"
#include "stats.h"
#include "workload/soak.h"
#include "workload/traffic.h"
#ifdef PERFBENCH_TRACED
#include "spans.h"
#endif

namespace {

using namespace porygon;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr double kTickS = 0.1;
// Committed rounds before the window opens: the cross-shard pipeline
// commits a round's transactions four rounds after it lists them, so by the
// eighth commit every stage carries load.
constexpr size_t kWarmupRounds = 8;
constexpr double kMaxWarmupS = 600;
// Worker threads of the compute pool, fixed so wall metrics compare across
// runs; 0 runs every task on the event-loop thread, which also keeps the
// summed per-layer self time within the run's wall time.
constexpr int kWorkerThreads = 0;
constexpr uint64_t kBalance = 1'000'000;

struct WorkloadDef {
  const char* name;
  const char* workload;       // workload::Spec clause grammar.
  const char* faults;         // net::FaultPlan grammar; "" = clean.
  const char* adversary;      // core::AdversarySpec grammar; "" = honest.
  const char* dissemination;  // net::DisseminationSpec grammar.
  bool wide;                  // bench::ScaledOptions(5), else matrix shape.
  double offered_tps;
  uint64_t epoch_length;
  // Sim seconds simulated per wall second on the reference host; sizes
  // the window so a run lasts about --seconds there.
  double sim_per_wall;
};

constexpr WorkloadDef kWorkloads[] = {
    {"transfer", "uniform,accounts:1000000,cross:0.2", "", "", "direct",
     false, 1000, 0, 9.5},
    {"hotspot", "zipf:0.99,accounts:1000000", "", "", "direct", false, 400,
     0, 20},
    {"chaos", "uniform,accounts:1000000,cross:0.2",
     "loss:0.02,dup:0.02,jitter:300", "stateless:equivocate,storage:withhold",
     "direct", false, 200, 25, 45},
    {"wide", "uniform,accounts:1000000,cross:0.1", "", "", "tree", true, 300,
     0, 20},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string Key(const std::string& name, const obs::Labels& labels) {
  std::string k = name;
  for (const auto& [lk, lv] : labels) k += "|" + lk + "=" + lv;
  return k;
}

/// Point-in-time copy of everything the window metrics difference.
struct Snapshot {
  std::map<std::string, uint64_t> counters;  // Key(name, labels) -> value.
  std::map<std::string, std::vector<uint64_t>> buckets;
  std::map<std::string, double> sums;  // Histogram sums, same keys.
  double sim_s = 0;
  size_t chain = 0;
  Clock::time_point wall;

  static Snapshot Take(const core::PorygonSystem& sys) {
    Snapshot s;
    const obs::MetricsRegistry& reg = sys.metrics_registry();
    reg.VisitCounters([&s](const std::string& n, const obs::Labels& l,
                           const obs::Counter& c) {
      s.counters[Key(n, l)] = c.value();
    });
    reg.VisitHistograms([&s](const std::string& n, const obs::Labels& l,
                             const obs::Histogram& h) {
      s.buckets[Key(n, l)] = h.bucket_counts();
      s.sums[Key(n, l)] = h.sum();
    });
    s.sim_s = sys.sim_seconds();
    s.chain = sys.chain().size();
    s.wall = Clock::now();
    return s;
  }

  /// Sum over every label set of counter `name`.
  uint64_t Sum(const std::string& name) const {
    uint64_t v = 0;
    for (auto it = counters.lower_bound(name);
         it != counters.end() && it->first.compare(0, name.size(), name) == 0;
         ++it) {
      if (it->first.size() == name.size() || it->first[name.size()] == '|') {
        v += it->second;
      }
    }
    return v;
  }
  uint64_t At(const std::string& key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
  }
  std::vector<uint64_t> Buckets(const std::string& key) const {
    auto it = buckets.find(key);
    return it == buckets.end() ? std::vector<uint64_t>{} : it->second;
  }
};

struct Hist {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  double max = 0;
};

Hist WindowHist(const core::PorygonSystem& sys, const Snapshot& a,
                const Snapshot& b, const std::string& name,
                const obs::Labels& labels) {
  Hist h;
  const obs::Histogram* live =
      sys.metrics_registry().FindHistogram(name, labels);
  if (live == nullptr) return h;
  h.bounds = live->bounds();
  h.max = live->max();
  const std::string key = Key(name, labels);
  h.counts = perfbench::DiffBuckets(a.Buckets(key), b.Buckets(key));
  return h;
}

double P(const Hist& h, double p) {
  return perfbench::WindowedPercentile(h.bounds, h.counts, p, h.max);
}

struct RepResult {
  double setup_s = 0;
  double window_sim_s = 0;
  double window_wall_s = 0;
  perfbench::TxAccounting acct;  // Window outcomes.
  double c2c_txs = 0;            // Commit-to-commit goodput numerator.
  double c2c_s = 0;              // ... and its sim interval.
  double max_gap_s = 0;
  Hist latency;
  std::map<std::string, double> layers;
#ifdef PERFBENCH_TRACED
  perfbench::trace::Summary trace;
#endif
};

class Deployment {
 public:
  Deployment(const WorkloadDef& def, uint64_t seed, double window_s)
      : def_(def), seed_(seed), window_s_(window_s) {}

  /// Builds, warms up and measures one deployment. Returns false (with a
  /// message on stderr) when a correctness check fails.
  bool Execute(RepResult* out) {
    const Clock::time_point setup_start = Clock::now();
    core::SystemOptions opt = def_.wide ? bench::ScaledOptions(5)
                                        : MatrixOptions();
    opt.seed = Mix(seed_);
    opt.worker_threads = kWorkerThreads;
    opt.epoch_length = def_.epoch_length;
    if (!Parse(net::DisseminationSpec::Parse(def_.dissemination),
               &opt.dissemination)) {
      return false;
    }
    if (*def_.adversary != '\0' &&
        !Parse(core::AdversarySpec::Parse(def_.adversary), &opt.adversary)) {
      return false;
    }
    if (Status s = opt.Validate(); !s.ok()) return Fail(s.ToString());
    core::PorygonSystem sys(opt);
    if (*def_.faults != '\0') {
      net::FaultPlan plan;
      if (!Parse(net::FaultPlan::Parse(def_.faults), &plan)) return false;
      plan.seed = Mix(seed_ ^ 0xfa17);
      if (Status s = sys.InjectFaults(plan); !s.ok()) {
        return Fail(s.ToString());
      }
    }
    workload::Spec spec;
    if (!Parse(workload::Spec::Parse(def_.workload), &spec)) return false;
    spec.shard_bits = opt.params.shard_bits;
    spec.seed = Mix(seed_ ^ 0x10ad);
    sys.CreateAccountsLazy(spec.num_accounts, kBalance);
    model_ = spec.BuildModel();
    arrival_ = spec.BuildArrival();

    while (sys.chain().size() < kWarmupRounds + 1) {
      if (!Tick(&sys, nullptr) || next_due_ > kMaxWarmupS) {
        return Fail("warm-up did not commit " +
                    std::to_string(kWarmupRounds) + " rounds");
      }
    }
    out->setup_s = Secs(Clock::now() - setup_start);

#ifdef PERFBENCH_TRACED
    perfbench::trace::SetEnabled(true);
#endif
    const Snapshot a = Snapshot::Take(sys);
    const uint64_t submitted_before = submitted_;
    const uint64_t rejected_before = rejected_;
    std::vector<std::pair<double, uint64_t>> ticks;
    ticks.emplace_back(a.sim_s, sys.metrics().committed_txs());
    const double end = a.sim_s + window_s_;
    while (next_due_ < end - 1e-9) {
      if (!Tick(&sys, &ticks)) return Fail("event queue drained");
    }
    const Snapshot b = Snapshot::Take(sys);
#ifdef PERFBENCH_TRACED
    perfbench::trace::SetEnabled(false);
    out->trace = perfbench::trace::Collect();
#endif

    out->window_sim_s = b.sim_s - a.sim_s;
    out->window_wall_s = Secs(b.wall - a.wall);
#ifdef PERFBENCH_TRACED
    // With every task on this thread, self times partition the traced
    // spans, which all lie inside the window.
    uint64_t self_ns = 0;
    for (const auto& k : out->trace.kinds) self_ns += k.self_ns;
    if (out->trace.overflowed) return Fail("span buffer overflowed");
    if (static_cast<double>(self_ns) * 1e-9 > out->window_wall_s) {
      return Fail("per-layer self times exceed the window's wall time");
    }
#endif
    perfbench::TxAccounting& w = out->acct;
    w.submitted = submitted_ - submitted_before;
    w.rejected = rejected_ - rejected_before;
    w.committed = b.Sum("porygon.committed_txs") -
                  a.Sum("porygon.committed_txs");
    w.discarded = b.Sum("porygon.discarded_txs") -
                  a.Sum("porygon.discarded_txs");
    w.failed = b.Sum("porygon.failed_txs") - a.Sum("porygon.failed_txs");
    out->max_gap_s = perfbench::MaxCommitGap(ticks, a.sim_s, b.sim_s);
    CommitToCommit(ticks, &out->c2c_txs, &out->c2c_s);
    out->latency = WindowHist(sys, a, b, "porygon.latency_seconds",
                              {{"kind", "user"}});
    Layers(sys, a, b, out);
    return Gate(&sys, out);
  }

 private:
  static core::SystemOptions MatrixOptions() {
    // The scenario-matrix deployment (workload::ScenarioOptions defaults).
    core::SystemOptions opt;
    opt.params.shard_bits = 2;
    opt.params.witness_threshold = 2;
    opt.params.execution_threshold = 2;
    opt.params.block_tx_limit = 1000;
    opt.num_storage_nodes = 2;
    opt.num_stateless_nodes = 40;
    opt.oc_size = 8;
    return opt;
  }

  template <typename T>
  bool Parse(Result<T> r, T* out) {
    if (!r.ok()) return Fail(r.status().ToString());
    *out = std::move(r).value();
    return true;
  }

  bool Fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: %s: %s\n", def_.name, what.c_str());
    return false;
  }

  /// Submits the transactions due in [next_due, next_due + tick) and
  /// advances the simulator past the tick's end.
  bool Tick(core::PorygonSystem* sys,
            std::vector<std::pair<double, uint64_t>>* ticks) {
    const size_t n = arrival_->CountFor(next_due_, kTickS, def_.offered_tps);
    const Clock::time_point t0 = Clock::now();
    std::vector<tx::Transaction> batch = model_->Batch(n);
    const Clock::time_point t1 = Clock::now();
    const std::vector<Status> statuses = sys->SubmitBatch(batch);
    const Clock::time_point t2 = Clock::now();
    if (ticks != nullptr) {
      batch_s_ += Secs(t1 - t0);
      submit_s_ += Secs(t2 - t1);
      window_generated_ += n;
      lag_s_ = std::max(lag_s_, sys->sim_seconds() - next_due_);
    }
    submitted_ += n;
    for (const Status& s : statuses) rejected_ += s.ok() ? 0 : 1;
    next_due_ += kTickS;
    sys->Run(1 << 30, static_cast<net::SimTime>(next_due_ * 1e6 + 0.5));
    if (ticks != nullptr) {
      ticks->emplace_back(sys->sim_seconds(), sys->metrics().committed_txs());
    }
    return sys->sim_seconds() >= next_due_;
  }

  /// Committed transactions between the first and the last commit seen in
  /// the window, and the sim time between them: a rate free of the
  /// quantisation a window edge cuts into a round.
  static void CommitToCommit(
      const std::vector<std::pair<double, uint64_t>>& ticks, double* txs,
      double* secs) {
    size_t first = 0;
    size_t last = 0;
    for (size_t i = 1; i < ticks.size(); ++i) {
      if (ticks[i].second > ticks[i - 1].second) {
        if (first == 0) first = i;
        last = i;
      }
    }
    *txs = first == 0 ? 0 : static_cast<double>(ticks[last].second -
                                                ticks[first].second);
    *secs = first == 0 ? 0 : ticks[last].first - ticks[first].first;
  }

  void Layers(const core::PorygonSystem& sys, const Snapshot& a,
              const Snapshot& b, RepResult* out) {
    std::map<std::string, double>& L = out->layers;
    const perfbench::TxAccounting& w = out->acct;
    const double rounds = static_cast<double>(b.chain - a.chain);
    const double ctx = static_cast<double>(w.committed);
    const auto d = [&](const std::string& name) {
      return static_cast<double>(b.Sum(name) - a.Sum(name));
    };
    const auto dk = [&](const std::string& key) {
      return static_cast<double>(b.At(key) - a.At(key));
    };
    const auto per = [](double x, double base) {
      return base > 0 ? x / base : 0.0;
    };

    L["bench.sim_speed_x"] = per(out->window_sim_s, out->window_wall_s);
    L["bench.generator_lag_s"] = lag_s_;
    L["bench.backlog_txs"] =
        static_cast<double>(submitted_) -
        static_cast<double>(rejected_ + b.Sum("porygon.committed_txs") +
                            b.Sum("porygon.discarded_txs") +
                            b.Sum("porygon.failed_txs"));
    L["workload.batch_us_per_tx"] = per(batch_s_ * 1e6, window_generated_);
    L["core.submit_us_per_tx"] = per(submit_s_ * 1e6, window_generated_);

    L["net.events_per_round"] = per(d("sim.events_drained"), rounds);
    L["net.msgs_per_ctx"] = per(d("net.sent_messages"), ctx);
    L["net.bytes_per_ctx"] = per(d("net.sent_bytes"), ctx);
    L["net.queue_delay_up_p99_s"] = P(
        WindowHist(sys, a, b, "net.queue_delay_seconds", {{"dir", "up"}}), 99);
    L["net.queue_delay_down_p99_s"] = P(
        WindowHist(sys, a, b, "net.queue_delay_seconds", {{"dir", "down"}}),
        99);
    L["net.dropped_messages"] = d("net.dropped_messages");

    L["consensus.decisions_per_instance"] =
        per(d("consensus.decisions"), d("consensus.instances"));
    L["consensus.timeouts_per_round"] = per(d("consensus.timeouts"), rounds);
    L["consensus.step_syncs"] = d("consensus.step_syncs");
    L["consensus.cert_adoptions"] = d("consensus.cert_adoptions");
    L["consensus.votes_per_decision"] =
        per(d("consensus.votes_cast"), d("consensus.decisions"));

    L["core.round_interval_s"] = per(out->window_sim_s, rounds);
    // Phase durations mostly fall inside one registry bucket, where a
    // percentile only reads back the bucket's midpoint; the windowed mean
    // (sum and count differenced) resolves them. The witness phase is
    // left out: the program observes it once per run.
    for (const char* phase : {"ordering", "execution", "commit"}) {
      const std::string key = Key("porygon.phase_seconds", {{"phase", phase}});
      const auto sum = [&key](const Snapshot& s) {
        auto it = s.sums.find(key);
        return it == s.sums.end() ? 0.0 : it->second;
      };
      L[std::string("core.phase_mean_s.") + phase] =
          per(sum(b) - sum(a),
              static_cast<double>(perfbench::BucketTotal(perfbench::DiffBuckets(
                  a.Buckets(key), b.Buckets(key)))));
    }
    CriticalPath(sys, a.sim_s, b.sim_s, &L);
    L["core.discard_ratio"] =
        per(static_cast<double>(w.discarded),
            static_cast<double>(w.committed + w.discarded + w.failed));
    const double hits = d("core.exec_cache_hits");
    L["core.exec_cache_hit_ratio"] =
        per(hits, hits + d("core.exec_cache_misses"));
    for (const char* f : {"request_timeouts", "rotations", "retransmits",
                          "resyncs", "requeued_txs"}) {
      L[std::string("core.failover.") + f + "_per_round"] =
          per(d(std::string("core.failover.") + f), rounds);
    }
    L["core.empty_rounds"] = d("porygon.empty_rounds");
    L["core.epochs"] = d("core.epochs");
    L["adversary.evidence"] = d("adversary.evidence");

    for (const char* phase : {"exec", "verify", "accounts"}) {
      L[std::string("runtime.tasks.") + phase + "_per_round"] =
          per(dk(Key("runtime.tasks", {{"phase", phase}})), rounds);
    }
    L["storage.wal_bytes_per_round"] = per(d("db.wal_bytes"), rounds);
    L["storage.compactions"] = d("db.compactions");
    L["storage.bloom_negative_ratio"] =
        per(d("db.bloom_negatives"), d("db.bloom_checks"));
#ifdef PERFBENCH_TRACED
    SpanLayers(out->trace, rounds, ctx, &L);
#endif
  }

  static void CriticalPath(const core::PorygonSystem& sys, double t0,
                           double t1, std::map<std::string, double>* L) {
    // Propagation (a fixed hop-latency model) and consensus wait (zero
    // without faults) are left out: constant on every workload here.
    double seg[4] = {};
    double up = 0;
    double down = 0;
    double n = 0;
    for (const obs::RoundReport& r : sys.critical_path().reports()) {
      const double c = net::ToSeconds(r.marks.commit);
      if (c <= t0 || c > t1) continue;
      n += 1;
      seg[0] += net::ToSeconds(r.compute_us);
      seg[1] += net::ToSeconds(r.serialization_us);
      seg[2] += net::ToSeconds(r.uplink_queue_us);
      seg[3] += net::ToSeconds(r.downlink_queue_us);
      for (size_t i = 0; i < r.links.size() && i < r.link_util_pm.size();
           ++i) {
        if (r.links[i].link == "oc_leader.uplink") {
          up += r.link_util_pm[i] / 1000.0;
        } else if (r.links[i].link == "oc_leader.downlink") {
          down += r.link_util_pm[i] / 1000.0;
        }
      }
    }
    const char* names[4] = {"compute", "serialization", "uplink_queue",
                            "downlink_queue"};
    for (int i = 0; i < 4; ++i) {
      (*L)[std::string("core.cp.") + names[i] + "_s"] =
          n > 0 ? seg[i] / n : 0;
    }
    (*L)["net.oc_leader_uplink_util"] = n > 0 ? up / n : 0;
    (*L)["net.oc_leader_downlink_util"] = n > 0 ? down / n : 0;
  }

#ifdef PERFBENCH_TRACED
  static void SpanLayers(const perfbench::trace::Summary& t, double rounds,
                         double ctx, std::map<std::string, double>* L) {
    namespace pt = perfbench::trace;
    const auto calls = [&t](std::initializer_list<pt::Kind> ks) {
      double v = 0;
      for (pt::Kind k : ks) v += static_cast<double>(t.kinds[k].calls);
      return v;
    };
    const auto self_s = [&t](std::initializer_list<pt::Kind> ks) {
      double v = 0;
      for (pt::Kind k : ks) v += static_cast<double>(t.kinds[k].self_ns);
      return v * 1e-9;
    };
    const auto per = [](double x, double base) {
      return base > 0 ? x / base : 0.0;
    };
    const auto sha = {pt::kSha256Update, pt::kSha256Finish, pt::kSha256Hash,
                      pt::kSha256HashPair};
    const auto verify = {pt::kVerifyBatch, pt::kVerifyProofBatch};
    const auto codec = {pt::kTxEncode,       pt::kTxDecode,
                        pt::kTxBlockEncode,  pt::kTxBlockDecode,
                        pt::kProposalEncode, pt::kProposalHash};
    const auto pool = {pt::kPoolAdd, pt::kPoolPackBlock};
    const auto smt = {pt::kSmtPut, pt::kSmtPutBatch, pt::kSmtRoot,
                      pt::kSmtProve};
    const auto sharded = {pt::kShardedGetAccount, pt::kShardedPutAccountBatch,
                          pt::kShardedGlobalRoot};
    const auto db = {pt::kDbPut, pt::kDbWrite, pt::kDbGet};
    const auto ba = {pt::kBaOnVote, pt::kBaOnVotes, pt::kBaOnTimeout};
    const auto sortition = {pt::kSortitionAssign, pt::kSortitionVerify};

    (*L)["crypto.sha256_calls_per_ctx"] = per(calls(sha), ctx);
    (*L)["crypto.sha256_self_s"] = self_s(sha);
    (*L)["crypto.verify_calls_per_round"] = per(calls(verify), rounds);
    (*L)["crypto.verify_self_s"] = self_s(verify);
    (*L)["tx.id_calls_per_ctx"] = per(calls({pt::kTxId}), ctx);
    (*L)["tx.id_self_s"] = self_s({pt::kTxId});
    (*L)["tx.codec_self_s"] = self_s(codec);
    (*L)["tx.pool_self_s"] = self_s(pool);
    const double smt_keys =
        static_cast<double>(t.kinds[pt::kSmtPut].items +
                            t.kinds[pt::kSmtPutBatch].items);
    (*L)["state.smt_put_calls_per_ctx"] = per(smt_keys, ctx);
    (*L)["state.smt_put_us"] =
        per(static_cast<double>(t.kinds[pt::kSmtPut].inclusive_ns +
                                t.kinds[pt::kSmtPutBatch].inclusive_ns) *
                1e-3,
            smt_keys);
    (*L)["state.smt_self_s"] = self_s(smt);
    (*L)["state.sharded_self_s"] = self_s(sharded);
    (*L)["storage.db_self_s"] = self_s(db);
    (*L)["common.encoder_calls_per_ctx"] = per(calls({pt::kEncoderPut}), ctx);
    (*L)["net.event_loop_self_s"] = self_s({pt::kEventRunNext});
    (*L)["net.send_self_s"] = self_s({pt::kNetSend});
    (*L)["consensus.self_s"] = self_s(ba);
    (*L)["core.coordinator_self_s"] = self_s({pt::kFilterAndLock});
    (*L)["core.exec_self_s"] = self_s({pt::kShardExecute});
    (*L)["core.sortition_self_s"] = self_s(sortition);
    (*L)["runtime.parallel_for_self_s"] = self_s({pt::kParallelFor});

    // Calls per module, so every traced layer reports a count beside its
    // self time.
    for (int k = 0; k < pt::kNumKinds; ++k) {
      (*L)[std::string(pt::KindModule(static_cast<pt::Kind>(k))) + ".calls"] +=
          static_cast<double>(t.kinds[k].calls);
    }
  }
#endif

  /// The correctness gate: chain integrity, replay roots, evidence only
  /// against corrupted nodes, and the transaction accounting identity, both
  /// over the whole run and over the window.
  bool Gate(core::PorygonSystem* sys, RepResult* out) {
    workload::InvariantChecker checker;
    for (Status s : {checker.CheckChainIntegrity(*sys),
                     checker.CheckNoReplayMismatches(*sys),
                     checker.CheckEvidenceOnlyAgainstMalicious(*sys)}) {
      if (!s.ok()) return Fail(s.ToString());
    }
    const core::SystemMetrics m = sys->metrics();
    const obs::MetricsRegistry& reg = *sys->metrics_registry();
    perfbench::TxAccounting run;
    run.submitted = submitted_;
    run.rejected = rejected_;
    run.committed = m.committed_txs();
    run.discarded = m.discarded_txs();
    run.failed = m.failed_txs();
    if (run.resolved() > run.submitted) {
      return Fail("accounting: more transactions resolved than submitted");
    }
    // committed + discarded + failed + rejected + in-flight == submitted,
    // where in-flight is what is left. Transactions still waiting in a
    // storage node's pool are unresolved, so in-flight can never be smaller
    // than the fullest pool.
    const uint64_t in_flight = run.submitted - run.resolved();
    uint64_t program_rejected = 0;
    for (const char* r : {"duplicate", "invalid", "unavailable"}) {
      program_rejected +=
          reg.CounterValue("porygon.rejected_txs", {{"reason", r}});
    }
    if (reg.CounterValue("porygon.submitted_txs") + program_rejected !=
            run.submitted ||
        program_rejected != run.rejected) {
      return Fail("accounting: admitted + rejected != submitted");
    }
    const obs::Histogram* lat = reg.FindHistogram("porygon.latency_seconds",
                                                  {{"kind", "user"}});
    if (lat == nullptr || lat->count() != run.committed) {
      return Fail("accounting: latency samples != committed transactions");
    }
    size_t pooled = 0;
    for (int i = 0; i < sys->num_storage_nodes(); ++i) {
      pooled = std::max(pooled, sys->storage_node(i)->pool_pending());
    }
    if (in_flight < pooled) {
      return Fail("accounting: in-flight count below pooled transactions");
    }
    const perfbench::TxAccounting& w = out->acct;
    if (perfbench::BucketTotal(out->latency.counts) != w.committed) {
      return Fail("accounting: window latency samples != window commits");
    }
    return true;
  }

  const WorkloadDef& def_;
  uint64_t seed_;
  double window_s_;
  std::unique_ptr<workload::TrafficModel> model_;
  std::unique_ptr<workload::ArrivalProcess> arrival_;
  double next_due_ = 0;
  uint64_t submitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t window_generated_ = 0;
  double batch_s_ = 0;
  double submit_s_ = 0;
  double lag_s_ = 0;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <transfer|hotspot|chaos|"
               "wide> --seed <n> --seconds <s> [--reps <r>] "
               "[--window-scale <f>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 1;
  double seconds = 0;
  int reps = 1;
  double scale = 1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      name = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--reps") {
      reps = std::atoi(v);
    } else if (flag == "--window-scale") {
      scale = std::atof(v);
    } else {
      return Usage();
    }
  }
  const WorkloadDef* def = FindWorkload(name);
  if (def == nullptr || seconds <= 0 || reps < 1 || scale <= 0) {
    return Usage();
  }
  const double window_s = seconds * scale * def->sim_per_wall / reps;

  std::vector<RepResult> results(reps);
  for (int r = 0; r < reps; ++r) {
    Deployment d(*def, Mix(seed * 0x100 + static_cast<uint64_t>(r)), window_s);
    if (!d.Execute(&results[r])) return 1;
  }

  // Pool the repetitions: counts and histograms add up; per-deployment
  // times (set-up, wall cost, worst gap) take the median.
  perfbench::TxAccounting acct;
  double c2c_txs = 0;
  double c2c_s = 0;
  std::vector<uint64_t> lat;
  double lat_max = 0;
  std::vector<double> setup, wall_us, gaps;
  for (const RepResult& r : results) {
    acct.submitted += r.acct.submitted;
    acct.committed += r.acct.committed;
    acct.discarded += r.acct.discarded;
    acct.failed += r.acct.failed;
    acct.rejected += r.acct.rejected;
    c2c_txs += r.c2c_txs;
    c2c_s += r.c2c_s;
    perfbench::AddBuckets(&lat, r.latency.counts);
    lat_max = std::max(lat_max, r.latency.max);
    setup.push_back(r.setup_s);
    wall_us.push_back(r.acct.committed > 0
                          ? r.window_wall_s * 1e6 /
                                static_cast<double>(r.acct.committed)
                          : 0);
    gaps.push_back(r.max_gap_s);
  }
  const std::vector<double>& bounds = results[0].latency.bounds;
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  std::string json = "{\"workload\":\"" + name + "\"";
  json += ",\"worker_threads\":" + std::to_string(kWorkerThreads);
  json += ",\"reps\":" + std::to_string(reps);
  json += ",\"window_sim_s\":" + Num(window_s);
  json += ",\"attempted\":" + std::to_string(acct.submitted);
  json += ",\"rejected\":" + std::to_string(acct.rejected);
  json += ",\"latency_samples\":" + std::to_string(perfbench::BucketTotal(lat));
  json += ",\"window_wall_s\":" + Num(results.back().window_wall_s);
  json += ",\"e2e\":{";
  json += "\"goodput_tps\":" + Num(c2c_s > 0 ? c2c_txs / c2c_s : 0);
  json += ",\"latency_p50_s\":" +
          Num(perfbench::WindowedPercentile(bounds, lat, 50, lat_max));
  json += ",\"latency_p99_s\":" +
          Num(perfbench::WindowedPercentile(bounds, lat, 99, lat_max));
  json += ",\"tx_fail_ratio\":" + Num(acct.FailShare());
  json += ",\"max_commit_gap_s\":" + Num(perfbench::Median(gaps));
  json += ",\"wall_us_per_committed_tx\":" + Num(perfbench::Median(wall_us));
  json += ",\"setup_s\":" + Num(perfbench::Median(setup));
  json += ",\"peak_rss_mb\":" + Num(usage.ru_maxrss / 1024.0);
  json += "},\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : results.back().layers) {
    json += (first ? "\"" : ",\"") + k + "\":" + Num(v);
    first = false;
  }
  json += "}";
#ifdef PERFBENCH_TRACED
  const perfbench::trace::Summary& t = results.back().trace;
  json += ",\"spans\":{\"stored\":" + std::to_string(t.stored_spans) +
          ",\"root_s\":" + Num(static_cast<double>(t.root_ns) * 1e-9) +
          ",\"kinds\":{";
  for (int k = 0; k < perfbench::trace::kNumKinds; ++k) {
    const auto& kt = t.kinds[k];
    json += std::string(k == 0 ? "\"" : ",\"") +
            perfbench::trace::KindName(static_cast<perfbench::trace::Kind>(k)) +
            "\":{\"calls\":" + std::to_string(kt.calls) +
            ",\"self_s\":" + Num(static_cast<double>(kt.self_ns) * 1e-9) + "}";
  }
  json += "}}";
#endif
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
