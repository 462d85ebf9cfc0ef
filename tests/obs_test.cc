// Unit tests for the observability subsystem: instrument semantics,
// histogram bucket boundaries and percentile interpolation, labelled-series
// lookup, and the JSON/CSV exporters' shape and determinism.

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"

namespace porygon::obs {
namespace {

TEST(CounterTest, IncrementsAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetsAndAdds) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(10.5);
  g.Add(-0.5);
  EXPECT_EQ(g.value(), 10.0);
}

TEST(HistogramTest, CountsSumAndExtremes) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(3.0);
  h.Observe(10.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.75);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperEdges) {
  Histogram h({1.0, 2.0});
  h.Observe(1.0);  // le=1 bucket (upper edge inclusive).
  h.Observe(1.001);  // le=2 bucket.
  h.Observe(2.5);  // Overflow bucket.
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
}

TEST(HistogramTest, PercentilesInterpolateWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.Observe(0.5);
  h.Observe(7.0);
  // p50 falls deep inside the first bucket; p99+ approaches the outlier.
  EXPECT_LE(h.Percentile(50), 1.0);
  EXPECT_GT(h.Percentile(100), 1.0);
  EXPECT_LE(h.Percentile(100), 7.0);

  Histogram empty({1.0});
  EXPECT_EQ(empty.Percentile(50), 0.0);

  HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(RegistryTest, LabelledSeriesAreDistinctAndOrderInsensitive) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("net.bytes", {{"class", "storage"}});
  Counter* b = reg.GetCounter("net.bytes", {{"class", "stateless"}});
  Counter* plain = reg.GetCounter("net.bytes");
  EXPECT_NE(a, b);
  EXPECT_NE(a, plain);
  // Same series regardless of label order; repeated Get returns the
  // same instrument.
  Counter* c =
      reg.GetCounter("x", {{"k1", "v1"}, {"k2", "v2"}});
  EXPECT_EQ(c, reg.GetCounter("x", {{"k2", "v2"}, {"k1", "v1"}}));
  EXPECT_EQ(a, reg.GetCounter("net.bytes", {{"class", "storage"}}));

  a->Add(7);
  EXPECT_EQ(reg.CounterValue("net.bytes", {{"class", "storage"}}), 7u);
  EXPECT_EQ(reg.CounterValue("net.bytes", {{"class", "stateless"}}), 0u);
  EXPECT_EQ(reg.CounterValue("absent", {}), 0u);

  EXPECT_EQ(reg.FindCounter("net.bytes", {{"class", "storage"}}), a);
  EXPECT_EQ(reg.FindCounter("net.bytes", {{"class", "nope"}}), nullptr);
}

TEST(RegistryTest, VisitationFollowsCanonicalOrder) {
  MetricsRegistry reg;
  reg.GetCounter("b.metric");
  reg.GetCounter("a.metric", {{"z", "1"}});
  reg.GetCounter("a.metric", {{"a", "1"}});
  std::vector<std::string> names;
  reg.VisitCounters([&](const std::string& name, const Labels& labels,
                        const Counter&) {
    std::string key = name;
    for (const auto& [k, v] : labels) key += "|" + k + "=" + v;
    names.push_back(key);
  });
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a.metric|a=1");
  EXPECT_EQ(names[1], "a.metric|z=1");
  EXPECT_EQ(names[2], "b.metric");
}

TEST(ExportTest, JsonCoversEverySeriesAndIsDeterministic) {
  MetricsRegistry reg;
  reg.GetCounter("net.bytes", {{"class", "storage"}})->Add(128);
  reg.GetGauge("db.l0_tables", {{"node", "0"}})->Set(3);
  Histogram* h = reg.GetHistogram("latency", {0.5, 1.0}, {});
  h->Observe(0.25);
  h->Observe(2.0);

  std::string json = ExportJson(reg);
  EXPECT_NE(json.find("\"net.bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"storage\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":128"), std::string::npos);
  EXPECT_NE(json.find("\"db.l0_tables\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
  EXPECT_EQ(json, ExportJson(reg));  // Same registry -> same bytes.

  std::string csv = ExportCsv(reg);
  EXPECT_NE(csv.find("type,name,labels,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,net.bytes,class=storage,value,128"),
            std::string::npos);
  EXPECT_NE(csv.find("histogram,latency,,count,2"), std::string::npos);
  EXPECT_EQ(csv, ExportCsv(reg));
}

}  // namespace
}  // namespace porygon::obs
