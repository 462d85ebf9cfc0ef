// Bandwidth ledger + per-round critical-path analyzer (obs/critical_path):
// queueing delay accounted separately from transmission time, synthetic
// bottleneck attribution, thread-count invariance of the round reports,
// the trace-sampling timing invariant, and the fan-in diagnosis the
// analyzer was built for (the OC leader's downlink absorbing witness and
// exec-result fan-in).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "net/dissemination.h"
#include "net/event_queue.h"
#include "net/network.h"
#include "obs/critical_path.h"
#include "workload/traffic.h"

namespace porygon {
namespace {

// --- Net-level ledger -------------------------------------------------------

TEST(CriticalPathTest, QueueingDelaySeparatedFromTransmission) {
  net::EventQueue events;
  net::SimNetwork net(&events, Rng(1));
  // 1 MB/s uplink sender; receiver with a 10x slower downlink, so arrivals
  // queue on the downlink while sends queue on the uplink.
  const net::NodeId a = net.AddNode({1e6, 1e6}, "client");
  const net::NodeId b = net.AddNode({1e6, 1e5}, "server");
  net.SetLatency(500, 0);
  net.SetHandler(b, [](const net::Message&) {});

  // Two back-to-back 1000-byte sends: tx time 1000 us each, so the second
  // waits exactly one transmission on the uplink.
  for (int i = 0; i < 2; ++i) {
    net::Message m;
    m.from = a;
    m.to = b;
    m.kind = 1;
    m.wire_size = 1000;
    net.Send(std::move(m));
  }
  events.RunUntilIdle();

  const net::LinkActivity& up = net.ActivityFor(a);
  EXPECT_EQ(up.bytes_up, 2000u);
  EXPECT_EQ(up.msgs_up, 2u);
  EXPECT_EQ(up.busy_up_us, 2000);   // Two transmissions.
  EXPECT_EQ(up.queue_up_us, 1000);  // Second send waited out the first.

  // Downlink: rx = 10,000 us each. First arrives at 1500 (queue 0); the
  // second arrives at 2500 while the downlink is busy until 11,500.
  const net::LinkActivity& down = net.ActivityFor(b);
  EXPECT_EQ(down.bytes_down, 2000u);
  EXPECT_EQ(down.msgs_down, 2u);
  EXPECT_EQ(down.busy_down_us, 20000);
  EXPECT_EQ(down.queue_down_us, 9000);
  EXPECT_EQ(net.RoleName(a), "client");
  EXPECT_EQ(net.RoleName(b), "server");
}

TEST(CriticalPathTest, SyntheticBottleneckNamesDominantEdge) {
  net::EventQueue events;
  net::SimNetwork net(&events, Rng(1));
  const net::NodeId a = net.AddNode({1e6, 1e6}, "client");
  const net::NodeId b = net.AddNode({1e6, 1e5}, "server");
  net.SetLatency(500, 0);
  net.SetHandler(b, [](const net::Message&) {});
  for (int i = 0; i < 20; ++i) {
    net::Message m;
    m.from = a;
    m.to = b;
    m.kind = 1;
    m.wire_size = 1000;
    net.Send(std::move(m));
  }
  events.RunUntilIdle();

  // Build the round window straight off the cumulative ledger (baseline
  // zero) and let the analyzer attribute it: the server's downlink is 10x
  // slower than everything else, so it must be named dominant.
  obs::CriticalPathAnalyzer cp;
  std::vector<obs::LinkWindow> links;
  const net::LinkActivity& up = net.ActivityFor(a);
  const net::LinkActivity& down = net.ActivityFor(b);
  links.push_back({"client.uplink", up.bytes_up, up.queue_up_us,
                   up.busy_up_us});
  links.push_back({"server.downlink", down.bytes_down, down.queue_down_us,
                   down.busy_down_us});
  const obs::RoundReport* rep =
      cp.CommitRound({.round = 1, .commit = events.now()}, {}, links);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->dominant_edge, "server.downlink");
  EXPECT_EQ(rep->dominant_segment, "downlink_queue");
  // The slow downlink was busy essentially the whole window.
  EXPECT_GT(rep->dominant_edge_share_pm, 900u);
  EXPECT_EQ(rep->downlink_queue_us, down.queue_down_us);
  EXPECT_EQ(rep->uplink_queue_us, up.queue_up_us);
  // Deterministic JSON carries the attribution.
  const std::string json = rep->ToJson();
  EXPECT_NE(json.find("\"dominant_edge\":\"server.downlink\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dominant_segment\":\"downlink_queue\""),
            std::string::npos);
}

TEST(CriticalPathTest, CommitRoundDecomposesMarksAndExecIntervals) {
  obs::CriticalPathAnalyzer cp;
  cp.SetPropagationModel(100, 2);
  const obs::RoundMarks marks{.round = 4,
                              .start = 1'000,
                              .witness_end = 1'500,
                              .decision = 2'100,
                              .commit = 3'000};
  // One interval straddling the start, one closed inside the window, one
  // still open (clipped at the commit), one entirely before the window.
  const std::vector<obs::ExecInterval> exec = {
      {.start = 800, .end = 1'200},
      {.start = 1'400, .end = 1'600},
      {.start = 2'500, .end = 0},
      {.start = 100, .end = 900},
  };
  const obs::RoundReport* rep = cp.CommitRound(marks, exec, {});
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->marks.round, 4u);
  EXPECT_EQ(rep->window_us, 2'000);
  EXPECT_EQ(rep->compute_us, 200 + 200 + 500);
  EXPECT_EQ(rep->consensus_wait_us, 600);
  EXPECT_EQ(rep->propagation_us, 200);
  EXPECT_EQ(rep->dominant_segment, "compute");
  EXPECT_EQ(rep->dominant_edge, "");

  // No witness mark: no consensus wait. Past max_reports: analyzed, not
  // retained.
  cp.set_max_reports(1);
  EXPECT_EQ(cp.CommitRound({.round = 5, .start = 3'000, .decision = 3'500,
                            .commit = 4'000},
                           {}, {}),
            nullptr);
  EXPECT_EQ(cp.reports().size(), 1u);
  EXPECT_EQ(cp.dropped_reports(), 1u);
}

TEST(CriticalPathTest, InflightHighWatermarkTracksAndResets) {
  net::EventQueue events;
  net::SimNetwork net(&events, Rng(1));
  const net::NodeId a = net.AddNode({1e6, 1e6}, "client");
  const net::NodeId b = net.AddNode({1e6, 1e6}, "server");
  net.SetLatency(500, 0);
  net.SetHandler(b, [](const net::Message&) {});
  for (int i = 0; i < 5; ++i) {
    net::Message m;
    m.from = a;
    m.to = b;
    m.kind = 1;
    m.wire_size = 100;
    net.Send(std::move(m));
  }
  EXPECT_EQ(net.InflightFor("server"), 5u);
  EXPECT_EQ(net.InflightHwmFor("server"), 5u);
  events.RunUntilIdle();
  EXPECT_EQ(net.InflightFor("server"), 0u);
  EXPECT_EQ(net.InflightHwmFor("server"), 5u);  // Sticky until reset.
  net.ResetInflightHighWatermarks();
  EXPECT_EQ(net.InflightHwmFor("server"), 0u);
}

// --- System-level -----------------------------------------------------------

struct SysArtifacts {
  std::string reports_json;
  std::string metrics_json;
  std::string trace_json;
  std::string dominant_edge;
  double sim_seconds = 0;
  crypto::Hash256 global_root{};
  size_t report_count = 0;
};

core::SystemOptions CompactOpts(int worker_threads, bool trace) {
  core::SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 33;
  opt.worker_threads = worker_threads;
  opt.trace.enabled = trace;
  opt.trace.sample_transactions = 8;
  return opt;
}

SysArtifacts Collect(const core::PorygonSystem& sys) {
  SysArtifacts out;
  out.reports_json = sys.critical_path().ReportsJson();
  out.metrics_json = sys.metrics().ToJson();
  out.trace_json = sys.tracer().ExportChromeJson();
  out.dominant_edge = sys.critical_path().DominantEdgeMode();
  out.sim_seconds = sys.sim_seconds();
  out.global_root = sys.canonical_state().GlobalRoot();
  out.report_count = sys.critical_path().reports().size();
  return out;
}

SysArtifacts RunCompact(int worker_threads, bool trace = false) {
  core::PorygonSystem sys(CompactOpts(worker_threads, trace));
  sys.CreateAccounts(60, 10'000);
  Rng rng(99);
  std::map<uint64_t, uint64_t> nonces;
  for (int i = 0; i < 80; ++i) {
    uint64_t from = 1 + rng.NextBelow(60);
    uint64_t to = 1 + rng.NextBelow(60);
    if (from == to) continue;
    tx::Transaction t;
    t.from = from;
    t.to = to;
    t.amount = 1;
    t.nonce = nonces[from];
    if (sys.SubmitTransaction(t).ok()) ++nonces[from];
  }
  sys.Run(8);
  return Collect(sys);
}

TEST(CriticalPathTest, RoundReportsAreThreadInvariant) {
  unsetenv("PORYGON_THREADS");
  const SysArtifacts serial = RunCompact(0);
  ASSERT_GE(serial.report_count, 8u);
  // Every report names a dominant segment and edge.
  EXPECT_NE(serial.reports_json.find("\"dominant_segment\":\""),
            std::string::npos);
  EXPECT_NE(serial.reports_json.find("\"dominant_edge\":\""),
            std::string::npos);
  // The ledger series and windowed gauges made it into the export.
  EXPECT_NE(serial.metrics_json.find("net.downlink_queue_us"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("net.queue_delay_seconds"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("net.link_utilization_pm"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("net.inflight_hwm"), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("sim.event_queue_depth_hwm"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("\"role\":\"oc_leader\""),
            std::string::npos);

  for (int threads : {1, 4}) {
    const SysArtifacts run = RunCompact(threads);
    EXPECT_EQ(run.reports_json, serial.reports_json) << threads << " threads";
    EXPECT_EQ(run.metrics_json, serial.metrics_json) << threads << " threads";
    EXPECT_EQ(run.sim_seconds, serial.sim_seconds) << threads << " threads";
  }
}

// Satellite: the TraceContext relay tail is observability metadata, not
// protocol traffic — enabling trace sampling must leave every modeled
// departure/delivery time, and therefore every sim-derived export, byte
// identical (DESIGN.md "Bandwidth ledger & critical path").
TEST(CriticalPathTest, TraceSamplingLeavesTimingByteIdentical) {
  unsetenv("PORYGON_THREADS");
  const SysArtifacts untraced = RunCompact(0, /*trace=*/false);
  const SysArtifacts traced = RunCompact(0, /*trace=*/true);
  EXPECT_EQ(traced.metrics_json, untraced.metrics_json);
  EXPECT_EQ(traced.reports_json, untraced.reports_json);
  EXPECT_EQ(traced.sim_seconds, untraced.sim_seconds);
  EXPECT_EQ(traced.global_root, untraced.global_root);
  // The utilization counter tracks were exported as Perfetto "C" events.
  EXPECT_NE(traced.trace_json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(traced.trace_json.find("util_pm.oc_leader.downlink"),
            std::string::npos);
}

// A sim-time open-loop driver: every 0.1 s tick submits that tick's
// transactions and calls Run(1 << 30, tick_end), so Run() lands in the
// middle of rounds — and can schedule a second start of a round still in
// flight. 30 s of sim time at 40 tx/s.
SysArtifacts RunTicks(const char* dissemination, int worker_threads,
                      bool trace) {
  core::SystemOptions opt = CompactOpts(worker_threads, trace);
  auto spec = net::DisseminationSpec::Parse(dissemination);
  EXPECT_TRUE(spec.ok());
  opt.dissemination = *spec;
  core::PorygonSystem sys(opt);
  sys.CreateAccounts(1000, 1'000'000);
  workload::UniformTrafficModel gen({.num_accounts = 1000,
                                     .shard_bits = 1,
                                     .cross_shard_ratio = 0.2,
                                     .seed = 7});
  for (int t = 1; t <= 300; ++t) {
    sys.SubmitBatch(gen.Batch(4));
    sys.Run(1 << 30, static_cast<net::SimTime>(t) * 100'000);
  }
  return Collect(sys);
}

// The round record's lifetime rules under mid-round Run() calls: every
// export stays byte-identical across compute-thread counts and with trace
// sampling on or off.
TEST(CriticalPathTest, MidRoundRunIsThreadAndTraceInvariant) {
  unsetenv("PORYGON_THREADS");
  for (const char* mode : {"direct", "tree"}) {
    const SysArtifacts serial = RunTicks(mode, 0, /*trace=*/false);
    ASSERT_GE(serial.report_count, 4u) << mode;
    for (const auto& [threads, trace] :
         {std::pair{4, false}, std::pair{0, true}, std::pair{4, true}}) {
      const SysArtifacts run = RunTicks(mode, threads, trace);
      EXPECT_EQ(run.metrics_json, serial.metrics_json)
          << mode << " threads=" << threads << " trace=" << trace;
      EXPECT_EQ(run.reports_json, serial.reports_json)
          << mode << " threads=" << threads << " trace=" << trace;
      EXPECT_EQ(run.global_root, serial.global_root)
          << mode << " threads=" << threads << " trace=" << trace;
    }
  }
}

// The diagnosis the analyzer exists for (ROADMAP item 1): under per-shard
// fan-in at scale, the OC leader's 1 MB/s downlink absorbs the witness
// bundles and exec results of every shard and becomes the dominant edge.
core::SystemOptions FanInOpts() {
  core::SystemOptions opt;
  opt.params.shard_bits = 5;  // 32 shards of fan-in (the fig7a top cell).
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 200;
  opt.params.storage_connections = 2;
  // Make storage links fat so the sharded fan-in, not the storage plane,
  // is the experiment variable (the fig7a sweep holds storage fixed too).
  opt.params.storage_bps = 1e9;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 96;  // 3 per shard keeps the test fast.
  opt.oc_size = 8;
  opt.blocks_per_shard_round = 2;
  opt.seed = 42;
  return opt;
}

void RunFanIn(core::PorygonSystem* sys) {
  const uint64_t accounts = 100'000;
  sys->CreateAccountsLazy(accounts, 1'000'000);
  workload::UniformTrafficModel gen({.num_accounts = accounts,
                                     .shard_bits = 5,
                                     .cross_shard_ratio = 0.1,
                                     .seed = 7});
  const size_t per_round = 2 * 200 * (1u << 5);
  for (int r = 0; r < 10; ++r) {
    sys->SubmitBatch(gen.Batch(per_round));
    sys->Run(1);
  }
}

TEST(CriticalPathTest, LeaderDownlinkDominatesUnderFanIn) {
  unsetenv("PORYGON_THREADS");
  core::PorygonSystem sys(FanInOpts());
  RunFanIn(&sys);

  const obs::CriticalPathAnalyzer& cp = sys.critical_path();
  ASSERT_FALSE(cp.reports().empty());
  EXPECT_EQ(cp.DominantEdgeMode(), "oc_leader.downlink");
  EXPECT_EQ(cp.DominantSegmentMode(), "downlink_queue");
  // The bottleneck carries a meaningful utilization figure: ~40% of the
  // window in steady-state rounds (warmup rounds dilute the mean).
  EXPECT_GT(cp.MeanUtilization("oc_leader.downlink"), 0.25);
  ASSERT_NE(cp.latest(), nullptr);
  EXPECT_GT(cp.latest()->dominant_edge_share_pm, 300u);
}

// The fix for that diagnosis: the same deployment under tree dissemination
// routes per-shard fan-in through aggregation relays, so the leader's
// downlink stops being the modal dominant edge and its utilization falls
// well below the star's (ISSUE: break the OC fan-in wall). Relay duty is
// attributed to its own node role in the ledger exports.
TEST(CriticalPathTest, TreeDisseminationRelievesLeaderDownlink) {
  unsetenv("PORYGON_THREADS");
  core::SystemOptions direct_opt = FanInOpts();
  core::PorygonSystem direct(direct_opt);
  RunFanIn(&direct);
  const double star_util =
      direct.critical_path().MeanUtilization("oc_leader.downlink");

  core::SystemOptions tree_opt = FanInOpts();
  auto spec = net::DisseminationSpec::Parse("tree");
  ASSERT_TRUE(spec.ok());
  tree_opt.dissemination = *spec;
  core::PorygonSystem tree(tree_opt);
  RunFanIn(&tree);

  const obs::CriticalPathAnalyzer& cp = tree.critical_path();
  ASSERT_FALSE(cp.reports().empty());
  EXPECT_NE(cp.DominantEdgeMode(), "oc_leader.downlink");
  // With this deployment's tiny 3-node EC cohorts the per-shard aggregates
  // still save ~40% of the leader's downlink (full 10-node cohorts, as in
  // fig7a, cut it by ~2.6x).
  EXPECT_LT(cp.MeanUtilization("oc_leader.downlink"), star_util * 0.75);
  // Aggregation still moves the bits somewhere useful: the run commits.
  EXPECT_GT(tree.metrics().committed_txs(), 0u);
  // Relay duty shows up as its own role in the per-role exports.
  EXPECT_NE(tree.metrics().ToJson().find("\"role\":\"relay\""),
            std::string::npos);
}

}  // namespace
}  // namespace porygon
