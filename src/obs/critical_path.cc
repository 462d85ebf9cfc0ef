#include "obs/critical_path.h"

#include <algorithm>
#include <map>

namespace porygon::obs {

namespace {

std::string U64(uint64_t v) { return std::to_string(v); }
std::string I64(int64_t v) { return std::to_string(v); }

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

uint32_t PerMille(net::SimTime part, net::SimTime whole) {
  if (whole <= 0) return 0;
  if (part <= 0) return 0;
  const uint64_t pm = static_cast<uint64_t>(part) * 1000 /
                      static_cast<uint64_t>(whole);
  return pm > 1000 ? 1000u : static_cast<uint32_t>(pm);
}

}  // namespace

std::string RoundReport::ToJson() const {
  std::string out = "{";
  out += "\"round\":" + U64(marks.round);
  out += ",\"start_us\":" + I64(marks.start);
  out += ",\"witness_end_us\":" + I64(marks.witness_end);
  out += ",\"decision_us\":" + I64(marks.decision);
  out += ",\"commit_us\":" + I64(marks.commit);
  out += ",\"window_us\":" + I64(window_us);
  out += ",\"segments\":{";
  out += "\"compute_us\":" + I64(compute_us);
  out += ",\"serialization_us\":" + I64(serialization_us);
  out += ",\"uplink_queue_us\":" + I64(uplink_queue_us);
  out += ",\"propagation_us\":" + I64(propagation_us);
  out += ",\"downlink_queue_us\":" + I64(downlink_queue_us);
  out += ",\"consensus_wait_us\":" + I64(consensus_wait_us);
  out += "}";
  out += ",\"dominant_segment\":\"" + dominant_segment + "\"";
  out += ",\"dominant_edge\":\"" + dominant_edge + "\"";
  out += ",\"dominant_edge_share_pm\":" + U64(dominant_edge_share_pm);
  out += ",\"links\":[";
  for (size_t i = 0; i < links.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"link\":\"" + links[i].link + "\"";
    out += ",\"bytes\":" + U64(links[i].bytes);
    out += ",\"queue_us\":" + I64(links[i].queue_us);
    out += ",\"busy_us\":" + I64(links[i].busy_us);
    out += ",\"util_pm\":" + U64(i < link_util_pm.size() ? link_util_pm[i] : 0);
    out += "}";
  }
  out += "]}";
  return out;
}

const RoundReport* CriticalPathAnalyzer::CommitRound(
    const RoundMarks& marks, const std::vector<ExecInterval>& exec,
    std::vector<LinkWindow> links) {
  RoundReport rep;
  rep.marks = marks;
  const net::SimTime commit = marks.commit;
  rep.window_us = commit > marks.start ? commit - marks.start : 0;

  // Consensus wait: the witnessed batch sitting in BA* until the leader's
  // ordering decision.
  if (marks.decision > marks.witness_end && marks.witness_end > 0) {
    rep.consensus_wait_us = marks.decision - marks.witness_end;
  }

  // Compute: execution-phase time overlapping this window. The pipeline
  // executes listing r-1 while round r's window is open, so this is the
  // execution work the window actually contains. Open intervals (no end
  // mark yet) are clipped at the commit.
  for (const ExecInterval& iv : exec) {
    const net::SimTime end = iv.end > 0 ? iv.end : commit;
    const net::SimTime lo = std::max(iv.start, marks.start);
    const net::SimTime hi = std::min(end, commit);
    if (hi > lo) rep.compute_us += hi - lo;
  }

  std::sort(links.begin(), links.end(),
            [](const LinkWindow& a, const LinkWindow& b) {
              return a.link < b.link;
            });

  // Queue segments: the worst (deepest-backlog) link per direction. The
  // dominant edge is the most *utilized* link — largest busy time — with
  // accumulated queueing delay as the tie-break. Busy time is the primary
  // key because summed queueing delay scales with message count: a 1%-
  // utilized link crossed by thousands of tiny messages can out-sum a
  // saturated link carrying the round's actual payload, and widening the
  // former would not move the commit. Ties (e.g. committee members that
  // receive the same broadcasts as their leader) fall to whoever queued
  // longer — the link the round actually waited on.
  const LinkWindow* dominant = nullptr;
  for (const LinkWindow& lw : links) {
    if (EndsWith(lw.link, ".uplink")) {
      rep.uplink_queue_us = std::max(rep.uplink_queue_us, lw.queue_us);
    } else if (EndsWith(lw.link, ".downlink")) {
      rep.downlink_queue_us = std::max(rep.downlink_queue_us, lw.queue_us);
    }
    if (dominant == nullptr || lw.busy_us > dominant->busy_us ||
        (lw.busy_us == dominant->busy_us &&
         lw.queue_us > dominant->queue_us)) {
      dominant = &lw;
    }
  }
  if (dominant != nullptr) {
    rep.dominant_edge = dominant->link;
    rep.serialization_us = dominant->busy_us;
    rep.dominant_edge_share_pm = PerMille(dominant->busy_us, rep.window_us);
  }
  rep.propagation_us = latency_us_ * hops_;

  rep.link_util_pm.reserve(links.size());
  for (const LinkWindow& lw : links) {
    rep.link_util_pm.push_back(PerMille(lw.busy_us, rep.window_us));
  }
  rep.links = std::move(links);

  // Dominant segment: argmax by raw value; ties break in declaration
  // order, so the attribution is total and deterministic.
  const std::pair<const char*, net::SimTime> segments[] = {
      {"compute", rep.compute_us},
      {"serialization", rep.serialization_us},
      {"uplink_queue", rep.uplink_queue_us},
      {"propagation", rep.propagation_us},
      {"downlink_queue", rep.downlink_queue_us},
      {"consensus_wait", rep.consensus_wait_us},
  };
  const char* best = segments[0].first;
  net::SimTime best_v = segments[0].second;
  for (const auto& [name, v] : segments) {
    if (v > best_v) {
      best = name;
      best_v = v;
    }
  }
  rep.dominant_segment = best;

  if (reports_.size() >= max_reports_) {
    ++dropped_reports_;
    return nullptr;
  }
  reports_.push_back(std::move(rep));
  return &reports_.back();
}

std::string CriticalPathAnalyzer::ReportsJson() const {
  std::string out = "{\"rounds\":[";
  for (size_t i = 0; i < reports_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    out += reports_[i].ToJson();
  }
  out += reports_.empty() ? "]}\n" : "\n]}\n";
  return out;
}

namespace {
std::string ModeOf(const std::vector<RoundReport>& reports,
                   std::string RoundReport::*field) {
  std::map<std::string, uint64_t> counts;
  for (const RoundReport& r : reports) {
    if (!(r.*field).empty()) ++counts[r.*field];
  }
  std::string best;
  uint64_t best_n = 0;
  for (const auto& [name, n] : counts) {
    if (n > best_n) {  // Ascending map order: first max wins ties.
      best = name;
      best_n = n;
    }
  }
  return best;
}
}  // namespace

std::string CriticalPathAnalyzer::DominantSegmentMode() const {
  return ModeOf(reports_, &RoundReport::dominant_segment);
}

std::string CriticalPathAnalyzer::DominantEdgeMode() const {
  return ModeOf(reports_, &RoundReport::dominant_edge);
}

double CriticalPathAnalyzer::MeanUtilization(const std::string& link) const {
  uint64_t sum_pm = 0;
  uint64_t seen = 0;
  for (const RoundReport& r : reports_) {
    for (size_t i = 0; i < r.links.size(); ++i) {
      if (r.links[i].link == link) {
        sum_pm += i < r.link_util_pm.size() ? r.link_util_pm[i] : 0;
        ++seen;
        break;
      }
    }
  }
  return seen == 0 ? 0.0
                   : static_cast<double>(sum_pm) /
                         (1000.0 * static_cast<double>(seen));
}

}  // namespace porygon::obs
