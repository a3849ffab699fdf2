//===- Metrics.h - Process-wide metrics registry ----------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small operational-metrics layer: a registry of labeled counters, gauges
/// and fixed-bucket histograms, cheap enough to leave on everywhere. This is
/// *host-side* observability only — nothing recorded here may feed back into
/// compilation or simulation, so simulated results and comm profiles stay
/// bit-identical whether or not anyone is watching (the same contract as
/// TraceSink and the Statistics counters).
///
/// Design points:
///  - Instruments are identified by (name, label set). Requesting the same
///    identity twice returns a handle to the same instrument, so call sites
///    never coordinate registration.
///  - Handles are trivially copyable pointers and null-safe: a
///    default-constructed handle ignores updates, which lets subsystems keep
///    unconditional `Counter.inc()` calls with no registry wired up.
///  - Counter and histogram updates are thread-sharded: each shard is a
///    cache-line-isolated slot picked by hashed thread id, written with
///    relaxed atomics, and summed only at read time. Writers never contend
///    on a shared line unless two threads hash to the same shard.
///  - Histograms use a fixed log-linear bucketing (4 sub-buckets per power
///    of two, ~25% worst-case resolution; see support/LogLinear.h), so
///    memory is bounded and percentile queries are exact functions of the
///    recorded multiset.
///  - Exposition is pull-only: snapshotJson() for the `--serve` "metrics" op
///    and bench embedding, prometheusText() for scrape-style tooling. Both
///    render instruments in sorted (name, labels) order so output is
///    deterministic for a given set of recorded values.
///
/// The process-global registry (MetricsRegistry::global()) is what the
/// driver, pipeline, engines and serve loop record into; tests construct
/// private registries so unit expectations never see cross-test pollution.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_METRICS_H
#define EARTHCC_SUPPORT_METRICS_H

#include "support/LogLinear.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace earthcc {

namespace json {
class Value;
} // namespace json

/// One metric label, e.g. {"stage", "lower"}. Labels are sorted by key at
/// registration so {"a","1"},{"b","2"} and {"b","2"},{"a","1"} are the same
/// instrument.
using MetricLabel = std::pair<std::string, std::string>;
using MetricLabels = std::vector<MetricLabel>;

namespace metrics_detail {

/// Shard count for write-sharded instruments. A modest power of two: enough
/// that the service worker pool rarely collides, small enough that reading
/// (sum over shards) stays trivial.
constexpr unsigned NumShards = 8;

/// Index of the calling thread's shard (hashed thread id, cached per
/// thread).
unsigned shardIndex();

struct alignas(64) CounterShard {
  std::atomic<uint64_t> V{0};
};

struct CounterImpl;
struct GaugeImpl;
struct HistogramImpl;

} // namespace metrics_detail

/// Monotonic counter handle. Null-safe: a default-constructed handle drops
/// updates and reads 0.
class Counter {
public:
  Counter() = default;
  void inc(uint64_t Delta = 1) const;
  uint64_t value() const;
  explicit operator bool() const { return I != nullptr; }

private:
  friend class MetricsRegistry;
  explicit Counter(metrics_detail::CounterImpl *Impl) : I(Impl) {}
  metrics_detail::CounterImpl *I = nullptr;
};

/// Last-value gauge handle (single atomic; gauges are not hot-path).
class Gauge {
public:
  Gauge() = default;
  void set(int64_t V) const;
  void add(int64_t Delta) const;
  int64_t value() const;
  explicit operator bool() const { return I != nullptr; }

private:
  friend class MetricsRegistry;
  explicit Gauge(metrics_detail::GaugeImpl *Impl) : I(Impl) {}
  metrics_detail::GaugeImpl *I = nullptr;
};

/// Fixed-bucket histogram handle for non-negative integer samples
/// (typically nanoseconds): 4 exact buckets below 4, then 4 linear
/// sub-buckets per octave (bucketOf, bucketLowNs and NumBuckets come from
/// LogLinear<2>).
class Histogram : public LogLinear<2> {
public:
  Histogram() = default;
  void observe(uint64_t V) const;
  uint64_t count() const;
  uint64_t sum() const;
  uint64_t min() const; ///< 0 when empty.
  uint64_t max() const; ///< 0 when empty.
  /// Lower bound of the bucket holding the ceil(P% * count)-th smallest
  /// sample (0 < P <= 100); 0 when empty.
  uint64_t percentile(double P) const;
  explicit operator bool() const { return I != nullptr; }

private:
  friend class MetricsRegistry;
  explicit Histogram(metrics_detail::HistogramImpl *Impl) : I(Impl) {}
  metrics_detail::HistogramImpl *I = nullptr;
};

/// Registry of instruments. Registration and snapshotting take a mutex;
/// updates through handles are lock-free. Instruments live as long as the
/// registry, so handles must not outlive it (the global registry never
/// dies).
class MetricsRegistry {
public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  Counter counter(std::string Name, MetricLabels Labels = {});
  Gauge gauge(std::string Name, MetricLabels Labels = {});
  Histogram histogram(std::string Name, MetricLabels Labels = {});

  /// Zeroes every registered instrument (instruments stay registered).
  /// Test-only convenience; racing updates may survive the wipe.
  void reset();

  /// Snapshot as a json::Value object:
  /// {"counters": [{"name", "labels", "value"}...],
  ///  "gauges":   [{"name", "labels", "value"}...],
  ///  "histograms": [{"name", "labels", "count", "sum", "min", "max",
  ///                  "p50", "p95", "p99", "buckets": [[low, n]...]}...]}
  /// Zero-valued counters and empty histograms are included (they document
  /// which instruments exist); bucket lists carry only non-empty buckets.
  json::Value snapshot() const;

  /// snapshot() rendered as a JSON string.
  std::string snapshotJson() const;

  /// Prometheus text exposition (counters as `<prefix>_<name>_total`,
  /// histograms as cumulative `_bucket{le=...}` series plus `_sum`/`_count`;
  /// '.' and '-' in metric names become '_').
  std::string prometheusText(const std::string &Prefix = "earthcc") const;

  /// The process-wide registry.
  static MetricsRegistry &global();

private:
  struct Impl;
  Impl *M;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_METRICS_H
