// Tests of the benchmark's own arithmetic (stats.h) and span recorder
// (spans.h). Run: ctest --test-dir <build dir>, or the perfbench_tests
// binary directly.

#include "stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {
namespace {

void BusyFor(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(WindowedPercentile, InterpolatesInsideTheDiffedBucket) {
  const std::vector<double> bounds = {10, 15, 20, 30};
  // Before the window: 100 samples below 10 s. After: 40 more in (10,15],
  // 40 in (15,20], 20 in (20,30].
  const std::vector<uint64_t> before = {100, 0, 0, 0, 0};
  const std::vector<uint64_t> after = {100, 40, 40, 20, 0};
  const std::vector<uint64_t> w = DiffBuckets(before, after);
  EXPECT_EQ(w, (std::vector<uint64_t>{0, 40, 40, 20, 0}));
  // Rank 50 of 100 is the 10th of 40 samples in (15, 20]: 15 + 5 * 10/40.
  EXPECT_DOUBLE_EQ(WindowedPercentile(bounds, w, 50, 99), 16.25);
  // Rank 99 is the 19th of 20 in (20, 30].
  EXPECT_DOUBLE_EQ(WindowedPercentile(bounds, w, 99, 99), 29.5);
  // Undiffed, the pre-window samples would pull the median down to 10 s.
  EXPECT_DOUBLE_EQ(WindowedPercentile(bounds, after, 50, 99), 10.0);
}

TEST(WindowedPercentile, EmptyWindowAndOverflowBucket) {
  const std::vector<double> bounds = {1, 2};
  EXPECT_EQ(WindowedPercentile(bounds, {0, 0, 0}, 50, 5), 0);
  // Everything overflowed: interpolate up to the supplied upper end.
  EXPECT_DOUBLE_EQ(WindowedPercentile(bounds, {0, 0, 4}, 50, 6), 4.0);
}

TEST(WindowedPercentile, MatchesTheRegistryHistogramOverAWholeRun) {
  porygon::obs::Histogram h(porygon::obs::Histogram::LatencyBuckets());
  for (int i = 0; i < 1000; ++i) h.Observe(0.05 + 0.037 * (i % 700));
  const std::vector<uint64_t> none(h.bucket_counts().size(), 0);
  const std::vector<uint64_t> w = DiffBuckets(none, h.bucket_counts());
  // (The registry also clamps to the run's min/max, which a window does
  // not know; these percentiles fall where no clamp applies.)
  for (double p : {50.0, 90.0}) {
    EXPECT_DOUBLE_EQ(WindowedPercentile(h.bounds(), w, p, h.max()),
                     h.Percentile(p))
        << "p" << p;
  }
}

TEST(PooledBuckets, AddAcrossRuns) {
  std::vector<uint64_t> sum;
  AddBuckets(&sum, {1, 2, 3});
  AddBuckets(&sum, {4, 5, 6});
  EXPECT_EQ(sum, (std::vector<uint64_t>{5, 7, 9}));
  EXPECT_EQ(BucketTotal(sum), 21u);
}

TEST(MaxCommitGap, DetectsGapsAtTickResolution) {
  // (tick end, cumulative commits): commits seen at 10.3, 14.5 and 16.0.
  const std::vector<std::pair<double, uint64_t>> ticks = {
      {10.0, 5}, {10.1, 5}, {10.3, 9}, {12.0, 9},
      {14.5, 12}, {15.9, 12}, {16.0, 20}, {17.0, 20}};
  // Window [10, 17]: gaps 0.3, 4.2, 1.5 and the tail 1.0.
  EXPECT_NEAR(MaxCommitGap(ticks, 10.0, 17.0), 4.2, 1e-12);
  // A later window start cuts the gap that straddles it: 14.0 -> 14.5,
  // then 1.5 to 16.0.
  EXPECT_NEAR(MaxCommitGap(ticks, 14.0, 17.0), 1.5, 1e-12);
  // The open tail counts as a gap.
  EXPECT_NEAR(MaxCommitGap(ticks, 10.0, 30.0), 14.0, 1e-12);
}

TEST(MaxCommitGap, NoCommitIsTheWholeWindow) {
  const std::vector<std::pair<double, uint64_t>> ticks = {
      {5.0, 3}, {6.0, 3}, {7.0, 3}};
  EXPECT_DOUBLE_EQ(MaxCommitGap(ticks, 5.0, 7.0), 2.0);
}

TEST(TxAccounting, FailShareCountsEveryUnsuccessfulOutcome) {
  TxAccounting a;
  a.submitted = 1000;  // 100 still in flight.
  a.committed = 700;
  a.discarded = 150;
  a.failed = 40;
  a.rejected = 10;
  EXPECT_EQ(a.resolved(), 900u);
  // In-flight transactions are not in the base: they have no outcome yet.
  EXPECT_DOUBLE_EQ(a.FailShare(), 200.0 / 900.0);
  EXPECT_EQ(TxAccounting{}.FailShare(), 0.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(SelfTimes, NestedSpansOnOneThread) {
  // root [0,100] > a [10,40] > leaf [20,25]; root > b [50,90] with 15 ns
  // of folded leaves.
  std::vector<Span> s(4);
  s[0] = {0, 100, 0, Span::kNoParent, 0};
  s[1] = {10, 40, 0, 0, 1};
  s[2] = {20, 25, 0, 1, 2};
  s[3] = {50, 90, 15, 0, 3};
  const std::vector<uint64_t> self = SelfTimes(s);
  EXPECT_EQ(self, (std::vector<uint64_t>{30, 25, 5, 25}));
  uint64_t total = s[3].folded_ns;
  for (uint64_t v : self) total += v;
  EXPECT_EQ(total, 100u);  // With folded leaves, self times partition it.
}

TEST(SelfTimes, OverlappingPoolChildrenCountOnce) {
  // A ParallelFor [0,100] whose pool-thread children overlap each other
  // and run past its end: covered time is their clipped union [10,100].
  std::vector<Span> s(4);
  s[0] = {0, 100, 0, Span::kNoParent, 0};
  s[1] = {10, 60, 0, 0, 1};
  s[2] = {30, 80, 0, 0, 1};
  s[3] = {70, 120, 0, 0, 1};
  EXPECT_EQ(SelfTimes(s)[0], 10u);
}

TEST(SpanRecorder, NestsFoldsAndCounts) {
  trace::SetEnabled(true);
  {
    trace::Scope outer(trace::kEventRunNext);
    BusyFor(std::chrono::microseconds(200));
    {
      trace::Scope inner(trace::kTxId);
      trace::LeafScope hash(trace::kSha256Hash);
      BusyFor(std::chrono::microseconds(300));
    }
    trace::Count(trace::kEncoderPut);
    trace::Count(trace::kEncoderPut);
    trace::AddItems(trace::kSmtPutBatch, 7);
  }
  trace::SetEnabled(false);
  {
    trace::Scope ignored(trace::kTxId);  // Recording is off.
  }
  const trace::Summary t = trace::Collect();
  EXPECT_FALSE(t.overflowed);
  EXPECT_EQ(t.stored_spans, 2u);  // The leaf hash was folded.
  EXPECT_EQ(t.kinds[trace::kEventRunNext].calls, 1u);
  EXPECT_EQ(t.kinds[trace::kTxId].calls, 1u);
  EXPECT_EQ(t.kinds[trace::kSha256Hash].calls, 1u);
  EXPECT_EQ(t.kinds[trace::kEncoderPut].calls, 2u);
  EXPECT_EQ(t.kinds[trace::kSmtPutBatch].items, 7u);
  // Id's time is nearly all the folded hash, which is its own self time.
  EXPECT_GE(t.kinds[trace::kSha256Hash].self_ns, 300'000u);
  EXPECT_LT(t.kinds[trace::kTxId].self_ns,
            t.kinds[trace::kSha256Hash].self_ns);
  EXPECT_GE(t.kinds[trace::kEventRunNext].self_ns, 200'000u);
  uint64_t self = 0;
  for (const trace::KindTotals& k : t.kinds) self += k.self_ns;
  EXPECT_EQ(self, t.root_ns);  // One thread: self times sum to the root.
  // Collect drains the buffers.
  EXPECT_EQ(trace::Collect().stored_spans, 0u);
}

TEST(SpanRecorder, PoolThreadSpansParentToTheDispatcher) {
  trace::SetEnabled(true);
  {
    trace::Scope pf(trace::kParallelFor);
    trace::DispatchScope dispatch;
    std::thread worker([] {
      trace::Scope exec(trace::kShardExecute);
      BusyFor(std::chrono::microseconds(5000));
    });
    worker.join();
  }
  trace::SetEnabled(false);
  const trace::Summary t = trace::Collect();
  EXPECT_EQ(t.kinds[trace::kShardExecute].calls, 1u);
  // The worker's span is a child of the ParallelFor, not a root, so the
  // dispatcher's self time excludes the 5 ms it waited on the worker.
  EXPECT_EQ(t.root_ns, t.kinds[trace::kParallelFor].inclusive_ns);
  EXPECT_LT(t.kinds[trace::kParallelFor].self_ns,
            t.kinds[trace::kShardExecute].self_ns);
}

}  // namespace
}  // namespace perfbench
