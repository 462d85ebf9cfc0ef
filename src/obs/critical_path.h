#ifndef PORYGON_OBS_CRITICAL_PATH_H_
#define PORYGON_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/sim_time.h"

namespace porygon::obs {

/// One direction of one (role-aggregated) link during one round window.
/// `link` is "role.uplink" or "role.downlink" (e.g. "oc_leader.downlink").
/// The round driver builds these by differencing net::LinkActivity
/// snapshots taken at round start and commit, carrying the *per-node
/// mean* of each role per direction: quorum thresholds mask straggling
/// members, and a max would inflate multi-node roles by order statistics
/// alone. Singleton roles (oc_leader) pass through exactly.
struct LinkWindow {
  std::string link;
  uint64_t bytes = 0;
  net::SimTime queue_us = 0;  ///< Queueing delay accumulated in the window.
  net::SimTime busy_us = 0;   ///< Transmission time accumulated in-window.
};

/// Sim-time phase boundaries of one round (0 = never observed), as the
/// round driver's record holds them: the same boundaries the round trace
/// lane records as spans, kept as plain marks so the analyzer works with
/// tracing off.
struct RoundMarks {
  uint64_t round = 0;
  net::SimTime start = 0;
  net::SimTime witness_end = 0;  ///< First block of the batch crossed Tw.
  net::SimTime decision = 0;     ///< Leader's BA* ordering decision.
  net::SimTime commit = 0;       ///< Proposal block applied at storage.
};

/// Decomposition of one committed round's latency. Segment values are raw
/// accumulated sim-time microseconds: queue/busy segments sum over every
/// message on the worst link, so a deeply oversubscribed link can exceed
/// the wall window — that excess is exactly the backlog signal the
/// dominant-segment attribution keys on. Shares and utilizations are
/// integer per-mille of the round window, clamped to 1000, so every field
/// (and the JSON) is float-free and byte-deterministic.
struct RoundReport {
  RoundMarks marks;
  net::SimTime window_us = 0;  ///< commit - start (the wall window).

  // Latency segments (see DESIGN.md "Bandwidth ledger & critical path").
  net::SimTime compute_us = 0;        ///< Execution-phase overlap in-window.
  net::SimTime serialization_us = 0;  ///< Busy time of the dominant edge.
  net::SimTime uplink_queue_us = 0;   ///< Worst uplink queueing delay.
  net::SimTime propagation_us = 0;    ///< Hop latency along the commit chain.
  net::SimTime downlink_queue_us = 0; ///< Worst downlink queueing delay.
  net::SimTime consensus_wait_us = 0; ///< Witness end -> ordering decision.

  /// Largest segment above, by raw value ("downlink_queue", ...); ties
  /// break in the field-declaration order above.
  std::string dominant_segment;
  /// Most utilized link this window — largest busy time, accumulated
  /// queueing delay breaking ties — e.g. "oc_leader.downlink", and its
  /// busy-time share of the window (per-mille, clamped) — the utilization
  /// figure of the bottleneck.
  std::string dominant_edge;
  uint32_t dominant_edge_share_pm = 0;

  /// Every link window, sorted by link name, each with its utilization
  /// (busy/window, per-mille, clamped to 1000).
  std::vector<LinkWindow> links;
  std::vector<uint32_t> link_util_pm;  ///< Parallel to `links`.

  /// Deterministic single-line JSON (integers and fixed strings only).
  std::string ToJson() const;
};

/// One execution-phase interval: the listing executed while a later
/// round's window is open (the pipeline overlaps them). `end` is 0 while the
/// phase is still open.
struct ExecInterval {
  net::SimTime start = 0;
  net::SimTime end = 0;
};

/// Per-round critical-path analyzer: a pure decomposition of one committed
/// round's window into latency segments, attributing the dominant edge from
/// the bandwidth-ledger windows it is handed. The round driver owns the
/// phase marks and execution intervals and passes them in at commit.
/// Purely sim-time-driven, so reports are byte-identical for a given seed
/// at any thread count.
///
/// Reports are bounded: after `max_reports` rounds, further commits are
/// analyzed but not retained (dropped_reports() counts them).
class CriticalPathAnalyzer {
 public:
  /// Propagation segment model: the commit chain crosses `hops`
  /// store-and-forward hops, each paying the base one-way latency.
  void SetPropagationModel(net::SimTime one_way_latency_us, int hops) {
    latency_us_ = one_way_latency_us;
    hops_ = hops;
  }
  void set_max_reports(size_t n) { max_reports_ = n; }

  /// Decomposes the window [marks.start, marks.commit] against the link
  /// ledger deltas and every execution interval the driver still tracks
  /// (open intervals are clipped at the commit), and returns the retained
  /// report (nullptr once past max_reports).
  const RoundReport* CommitRound(const RoundMarks& marks,
                                 const std::vector<ExecInterval>& exec,
                                 std::vector<LinkWindow> links);

  const std::vector<RoundReport>& reports() const { return reports_; }
  const RoundReport* latest() const {
    return reports_.empty() ? nullptr : &reports_.back();
  }
  uint64_t dropped_reports() const { return dropped_reports_; }

  /// All retained reports as {"rounds":[...]} — one deterministic blob.
  std::string ReportsJson() const;

  /// Most frequent dominant_segment / dominant_edge across retained
  /// reports (lexicographically smallest on ties; "" with no reports).
  std::string DominantSegmentMode() const;
  std::string DominantEdgeMode() const;
  /// Mean utilization (busy/window, 0..1) of `link` over the reports that
  /// saw it; 0 when never seen.
  double MeanUtilization(const std::string& link) const;

 private:
  net::SimTime latency_us_ = 500;
  int hops_ = 8;
  size_t max_reports_ = 4096;
  uint64_t dropped_reports_ = 0;
  std::vector<RoundReport> reports_;
};

}  // namespace porygon::obs

#endif  // PORYGON_OBS_CRITICAL_PATH_H_
