#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept free of simulator types so
// tests/stats_test.cc can pin it: windowed percentiles from diffed
// histogram bucket counts, commit-gap detection at tick resolution, the
// failure share of transaction outcomes, medians, and span self time.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Element-wise after - before of two snapshots of one histogram's bucket
/// counts (bounds().size() + 1 entries, the last being overflow). The
/// snapshots must come from the same series; a shorter `before` counts as
/// zeros.
inline std::vector<uint64_t> DiffBuckets(const std::vector<uint64_t>& before,
                                         const std::vector<uint64_t>& after) {
  std::vector<uint64_t> out(after.size(), 0);
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t b = i < before.size() ? before[i] : 0;
    out[i] = after[i] >= b ? after[i] - b : 0;
  }
  return out;
}

/// Adds bucket counts `add` into `sum` (pooling windows of several runs).
inline void AddBuckets(std::vector<uint64_t>* sum,
                       const std::vector<uint64_t>& add) {
  if (sum->size() < add.size()) sum->resize(add.size(), 0);
  for (size_t i = 0; i < add.size(); ++i) (*sum)[i] += add[i];
}

inline uint64_t BucketTotal(const std::vector<uint64_t>& counts) {
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  return n;
}

/// The p-th percentile (p in (0, 100)) of windowed bucket counts, linearly
/// interpolated inside the bucket holding the target rank — the same rule
/// as obs::Histogram::Percentile, applied to a diff. Bucket i spans
/// (bounds[i-1], bounds[i]]; the first starts at 0 and the overflow bucket
/// ends at `overflow_upper`. Returns 0 for an empty window.
inline double WindowedPercentile(const std::vector<double>& bounds,
                                 const std::vector<uint64_t>& counts,
                                 double p, double overflow_upper) {
  const uint64_t total = BucketTotal(counts);
  if (total == 0) return 0;
  double rank = p / 100.0 * static_cast<double>(total);
  if (rank < 1) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      const double lower = i == 0 ? 0 : bounds[i - 1];
      const double upper = i < bounds.size() ? bounds[i] : overflow_upper;
      const double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(counts[i]);
      return lower + frac * (upper - lower);
    }
    cumulative = next;
  }
  return overflow_upper;
}

/// Longest interval without a commit inside [window_start, window_end],
/// observed at tick resolution: `ticks` holds (tick end time, cumulative
/// committed count) samples in time order. A commit is seen at the first
/// tick whose count exceeds its predecessor's; the edges of the window
/// count as interval ends, so a window with no commit at all yields its
/// whole length.
inline double MaxCommitGap(
    const std::vector<std::pair<double, uint64_t>>& ticks,
    double window_start, double window_end) {
  double last = window_start;
  double gap = 0;
  for (size_t i = 1; i < ticks.size(); ++i) {
    const double t = ticks[i].first;
    if (t <= window_start || t > window_end) continue;
    if (ticks[i].second > ticks[i - 1].second) {
      gap = std::max(gap, t - last);
      last = t;
    }
  }
  return std::max(gap, window_end - last);
}

/// Transaction outcomes over a window. Every submitted transaction ends
/// committed, discarded (conflict filter), failed (execution) or rejected
/// (at submission), or is still in flight.
struct TxAccounting {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t discarded = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;

  uint64_t resolved() const { return committed + discarded + failed + rejected; }
  /// (discarded + failed + rejected) / resolved; 0 when nothing resolved.
  double FailShare() const {
    const uint64_t r = resolved();
    return r == 0 ? 0.0
                  : static_cast<double>(discarded + failed + rejected) /
                        static_cast<double>(r);
  }
};

/// Median of `xs` (mean of the middle pair for even sizes); 0 when empty.
inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// One recorded span: a call into a layer's entry point. `parent` indexes
/// the span that caused it (kNoParent for a root). `folded_ns` is time of
/// uninteresting leaf children (counted, not stored individually) that
/// ran on the span's own thread inside it.
struct Span {
  static constexpr uint32_t kNoParent = 0xffffffffu;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t folded_ns = 0;
  uint32_t parent = kNoParent;
  uint16_t kind = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children on the span's own thread never
/// overlap, but children on pool threads (parented to the dispatching
/// ParallelFor) may, so covered time is the union of child intervals,
/// clipped to the parent, plus the folded leaf time.
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<uint64_t> covered(spans.size(), 0);
  // Child indices grouped by parent, each group in start order.
  std::vector<uint32_t> kids;
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < spans.size()) kids.push_back(i);
  }
  std::sort(kids.begin(), kids.end(), [&spans](uint32_t a, uint32_t b) {
    return spans[a].parent != spans[b].parent
               ? spans[a].parent < spans[b].parent
               : spans[a].start_ns < spans[b].start_ns;
  });
  for (size_t g = 0; g < kids.size();) {
    const Span& p = spans[spans[kids[g]].parent];
    uint64_t union_ns = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;  // The merged interval being extended; empty if hi == lo.
    for (; g < kids.size() && &spans[spans[kids[g]].parent] == &p; ++g) {
      const Span& c = spans[kids[g]];
      const uint64_t c_lo = std::max(c.start_ns, p.start_ns);
      const uint64_t c_hi = std::min(c.end_ns, p.end_ns);
      if (c_hi <= c_lo) continue;
      if (c_lo > hi) {
        union_ns += hi - lo;
        lo = c_lo;
        hi = c_hi;
      } else {
        hi = std::max(hi, c_hi);
      }
    }
    covered[&p - spans.data()] = union_ns + (hi - lo);
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (uint32_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    const uint64_t cov = covered[i] + spans[i].folded_ns;
    self[i] = cov >= dur ? 0 : dur - cov;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
