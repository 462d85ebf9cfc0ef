#include "obs/metrics.h"

#include <algorithm>

namespace porygon::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  sum_ += v;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  // Rank of the target observation (1-based, fractional).
  double rank = p / 100.0 * static_cast<double>(count_);
  if (rank < 1) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    uint64_t next = cumulative + counts_[i];
    if (static_cast<double>(next) >= rank) {
      double lower = i == 0 ? 0 : bounds_[i - 1];
      double upper = i < bounds_.size() ? bounds_[i] : max_;
      // Interpolate linearly within the bucket by the fraction of its
      // population below the target rank.
      double frac = (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(counts_[i]);
      double v = lower + frac * (upper - lower);
      return std::min(std::max(v, min_), max_);
    }
    cumulative = next;
  }
  return max_;
}

HistogramSummary Histogram::Summary() const {
  HistogramSummary s;
  s.count = count_;
  s.mean = mean();
  s.p50 = Percentile(50);
  s.p95 = Percentile(95);
  s.p99 = Percentile(99);
  s.min = min();
  s.max = max();
  return s;
}

std::vector<double> Histogram::LatencyBuckets() {
  return {0.1, 0.25, 0.5, 1,  2,  3,  4,  5,   7.5, 10,
          15,  20,   30,  45, 60, 90, 120, 180, 300, 600};
}

Labels MetricsRegistry::SortedLabels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string MetricsRegistry::CanonicalKey(const std::string& name,
                                          const Labels& labels) {
  std::string key = name;
  key.push_back('|');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += labels[i].first;
    key.push_back('=');
    key += labels[i].second;
  }
  return key;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  Labels sorted = SortedLabels(labels);
  auto [it, inserted] = counters_.try_emplace(CanonicalKey(name, sorted));
  if (inserted) {
    it->second.name = name;
    it->second.labels = std::move(sorted);
    it->second.instrument = std::make_unique<Counter>();
  }
  return it->second.instrument.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  Labels sorted = SortedLabels(labels);
  auto [it, inserted] = gauges_.try_emplace(CanonicalKey(name, sorted));
  if (inserted) {
    it->second.name = name;
    it->second.labels = std::move(sorted);
    it->second.instrument = std::make_unique<Gauge>();
  }
  return it->second.instrument.get();
}

Gauge* MetricsRegistry::GetVolatileGauge(const std::string& name,
                                         const Labels& labels) {
  Labels sorted = SortedLabels(labels);
  auto [it, inserted] =
      volatile_gauges_.try_emplace(CanonicalKey(name, sorted));
  if (inserted) {
    it->second.name = name;
    it->second.labels = std::move(sorted);
    it->second.instrument = std::make_unique<Gauge>();
  }
  return it->second.instrument.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds,
                                         const Labels& labels) {
  Labels sorted = SortedLabels(labels);
  auto [it, inserted] = histograms_.try_emplace(CanonicalKey(name, sorted));
  if (inserted) {
    it->second.name = name;
    it->second.labels = std::move(sorted);
    it->second.instrument = std::make_unique<Histogram>(bounds);
  }
  return it->second.instrument.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  return GetHistogram(name, Histogram::LatencyBuckets(), labels);
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const Labels& labels) const {
  auto it = counters_.find(CanonicalKey(name, SortedLabels(labels)));
  return it == counters_.end() ? nullptr : it->second.instrument.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const Labels& labels) const {
  auto it = gauges_.find(CanonicalKey(name, SortedLabels(labels)));
  return it == gauges_.end() ? nullptr : it->second.instrument.get();
}

const Gauge* MetricsRegistry::FindVolatileGauge(const std::string& name,
                                                const Labels& labels) const {
  auto it = volatile_gauges_.find(CanonicalKey(name, SortedLabels(labels)));
  return it == volatile_gauges_.end() ? nullptr
                                      : it->second.instrument.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const Labels& labels) const {
  auto it = histograms_.find(CanonicalKey(name, SortedLabels(labels)));
  return it == histograms_.end() ? nullptr : it->second.instrument.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name,
                                       const Labels& labels) const {
  const Counter* c = FindCounter(name, labels);
  return c != nullptr ? c->value() : 0;
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const std::string&, const Labels&,
                             const Counter&)>& fn) const {
  for (const auto& [key, series] : counters_) {
    fn(series.name, series.labels, *series.instrument);
  }
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const std::string&, const Labels&, const Gauge&)>&
        fn) const {
  for (const auto& [key, series] : gauges_) {
    fn(series.name, series.labels, *series.instrument);
  }
}

void MetricsRegistry::VisitVolatileGauges(
    const std::function<void(const std::string&, const Labels&, const Gauge&)>&
        fn) const {
  for (const auto& [key, series] : volatile_gauges_) {
    fn(series.name, series.labels, *series.instrument);
  }
}

void MetricsRegistry::VisitHistograms(
    const std::function<void(const std::string&, const Labels&,
                             const Histogram&)>& fn) const {
  for (const auto& [key, series] : histograms_) {
    fn(series.name, series.labels, *series.instrument);
  }
}

}  // namespace porygon::obs
