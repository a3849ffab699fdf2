//===- Metrics.cpp - Process-wide metrics registry ------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Json.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

using namespace earthcc;

namespace earthcc {
namespace metrics_detail {

unsigned shardIndex() {
  // Hash once per thread; the cached value keeps the hot path to a
  // thread_local read.
  static thread_local unsigned Idx =
      static_cast<unsigned>(std::hash<std::thread::id>{}(
          std::this_thread::get_id())) %
      NumShards;
  return Idx;
}

struct CounterImpl {
  CounterShard Shards[NumShards];

  uint64_t value() const {
    uint64_t Sum = 0;
    for (const CounterShard &S : Shards)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }
  void reset() {
    for (CounterShard &S : Shards)
      S.V.store(0, std::memory_order_relaxed);
  }
};

struct GaugeImpl {
  std::atomic<int64_t> V{0};
};

/// One shard of a histogram: bucket counts plus count/sum/min/max, all
/// relaxed atomics. Min/max use CAS loops; samples land on one shard so
/// cross-shard writers rarely collide.
struct HistogramShard {
  alignas(64) std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
  std::atomic<uint64_t> Buckets[Histogram::NumBuckets] = {};
};

struct HistogramImpl {
  std::unique_ptr<HistogramShard[]> Shards =
      std::make_unique<HistogramShard[]>(NumShards);

  void observe(uint64_t V) {
    HistogramShard &S = Shards[shardIndex()];
    S.Count.fetch_add(1, std::memory_order_relaxed);
    S.Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t Cur = S.Min.load(std::memory_order_relaxed);
    while (V < Cur &&
           !S.Min.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
    Cur = S.Max.load(std::memory_order_relaxed);
    while (V > Cur &&
           !S.Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
    S.Buckets[Histogram::bucketOf(V)].fetch_add(1,
                                                std::memory_order_relaxed);
  }

  uint64_t count() const {
    uint64_t N = 0;
    for (unsigned I = 0; I != NumShards; ++I)
      N += Shards[I].Count.load(std::memory_order_relaxed);
    return N;
  }
  uint64_t sum() const {
    uint64_t N = 0;
    for (unsigned I = 0; I != NumShards; ++I)
      N += Shards[I].Sum.load(std::memory_order_relaxed);
    return N;
  }
  uint64_t min() const {
    uint64_t M = UINT64_MAX;
    for (unsigned I = 0; I != NumShards; ++I)
      M = std::min(M, Shards[I].Min.load(std::memory_order_relaxed));
    return M == UINT64_MAX ? 0 : M;
  }
  uint64_t max() const {
    uint64_t M = 0;
    for (unsigned I = 0; I != NumShards; ++I)
      M = std::max(M, Shards[I].Max.load(std::memory_order_relaxed));
    return M;
  }
  uint64_t bucket(unsigned B) const {
    uint64_t N = 0;
    for (unsigned I = 0; I != NumShards; ++I)
      N += Shards[I].Buckets[B].load(std::memory_order_relaxed);
    return N;
  }
  void reset() {
    for (unsigned I = 0; I != NumShards; ++I) {
      HistogramShard &S = Shards[I];
      S.Count.store(0, std::memory_order_relaxed);
      S.Sum.store(0, std::memory_order_relaxed);
      S.Min.store(UINT64_MAX, std::memory_order_relaxed);
      S.Max.store(0, std::memory_order_relaxed);
      for (auto &B : S.Buckets)
        B.store(0, std::memory_order_relaxed);
    }
  }
};

} // namespace metrics_detail
} // namespace earthcc

using namespace earthcc::metrics_detail;

//===----------------------------------------------------------------------===//
// Handles
//===----------------------------------------------------------------------===//

void Counter::inc(uint64_t Delta) const {
  if (I)
    I->Shards[shardIndex()].V.fetch_add(Delta, std::memory_order_relaxed);
}

uint64_t Counter::value() const { return I ? I->value() : 0; }

void Gauge::set(int64_t V) const {
  if (I)
    I->V.store(V, std::memory_order_relaxed);
}

void Gauge::add(int64_t Delta) const {
  if (I)
    I->V.fetch_add(Delta, std::memory_order_relaxed);
}

int64_t Gauge::value() const {
  return I ? I->V.load(std::memory_order_relaxed) : 0;
}

void Histogram::observe(uint64_t V) const {
  if (I)
    I->observe(V);
}

uint64_t Histogram::count() const { return I ? I->count() : 0; }
uint64_t Histogram::sum() const { return I ? I->sum() : 0; }
uint64_t Histogram::min() const { return I ? I->min() : 0; }
uint64_t Histogram::max() const { return I ? I->max() : 0; }

uint64_t Histogram::percentile(double P) const {
  if (!I)
    return 0;
  return LogLinear::percentile(
      P, I->count(), [this](unsigned B) { return I->bucket(B); }, I->max());
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// Canonical identity string: name + sorted "k=v" labels, '\x1f'-joined
/// (the separator can't appear in metric names we mint, and labels are
/// sorted so permutations collide).
std::string identityKey(const std::string &Name, const MetricLabels &Labels) {
  std::string Key = Name;
  for (const MetricLabel &L : Labels) {
    Key += '\x1f';
    Key += L.first;
    Key += '=';
    Key += L.second;
  }
  return Key;
}

std::string sanitizePromName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (C == '.' || C == '-')
      C = '_';
  return Out;
}

std::string promLabelSet(const MetricLabels &Labels,
                         const std::string &Extra = {}) {
  if (Labels.empty() && Extra.empty())
    return "";
  std::string Out = "{";
  bool First = true;
  for (const MetricLabel &L : Labels) {
    if (!First)
      Out += ",";
    First = false;
    Out += L.first + "=\"" + json::escape(L.second) + "\"";
  }
  if (!Extra.empty()) {
    if (!First)
      Out += ",";
    Out += Extra;
  }
  Out += "}";
  return Out;
}

json::Value labelsValue(const MetricLabels &Labels) {
  json::Value Obj = json::Value::object();
  for (const MetricLabel &L : Labels)
    Obj.members().emplace_back(L.first, json::Value::string(L.second));
  return Obj;
}

} // namespace

struct MetricsRegistry::Impl {
  template <typename T> struct Row {
    std::string Name;
    MetricLabels Labels;
    std::unique_ptr<T> Inst = std::make_unique<T>();
  };

  mutable std::mutex Mu;
  // map keyed by identity string; iteration order (sorted keys) is the
  // deterministic exposition order.
  std::map<std::string, Row<CounterImpl>> Counters;
  std::map<std::string, Row<GaugeImpl>> Gauges;
  std::map<std::string, Row<HistogramImpl>> Histograms;

  template <typename T>
  T *get(std::map<std::string, Row<T>> &Table, std::string Name,
         MetricLabels Labels) {
    std::sort(Labels.begin(), Labels.end());
    std::string Key = identityKey(Name, Labels);
    std::lock_guard<std::mutex> Lock(Mu);
    Row<T> &R = Table[Key];
    if (R.Name.empty()) {
      R.Name = std::move(Name);
      R.Labels = std::move(Labels);
    }
    return R.Inst.get();
  }
};

MetricsRegistry::MetricsRegistry() : M(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete M; }

Counter MetricsRegistry::counter(std::string Name, MetricLabels Labels) {
  return Counter(M->get(M->Counters, std::move(Name), std::move(Labels)));
}

Gauge MetricsRegistry::gauge(std::string Name, MetricLabels Labels) {
  return Gauge(M->get(M->Gauges, std::move(Name), std::move(Labels)));
}

Histogram MetricsRegistry::histogram(std::string Name, MetricLabels Labels) {
  return Histogram(M->get(M->Histograms, std::move(Name), std::move(Labels)));
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(M->Mu);
  for (auto &KV : M->Counters)
    KV.second.Inst->reset();
  for (auto &KV : M->Gauges)
    KV.second.Inst->V.store(0, std::memory_order_relaxed);
  for (auto &KV : M->Histograms)
    KV.second.Inst->reset();
}

json::Value MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M->Mu);
  json::Value Root = json::Value::object();

  json::Value Counters = json::Value::array();
  for (const auto &KV : M->Counters) {
    json::Value Row = json::Value::object();
    Row.members().emplace_back("name", json::Value::string(KV.second.Name));
    Row.members().emplace_back("labels", labelsValue(KV.second.Labels));
    Row.members().emplace_back(
        "value",
        json::Value::number(static_cast<double>(KV.second.Inst->value())));
    Counters.items().push_back(std::move(Row));
  }
  Root.members().emplace_back("counters", std::move(Counters));

  json::Value Gauges = json::Value::array();
  for (const auto &KV : M->Gauges) {
    json::Value Row = json::Value::object();
    Row.members().emplace_back("name", json::Value::string(KV.second.Name));
    Row.members().emplace_back("labels", labelsValue(KV.second.Labels));
    Row.members().emplace_back(
        "value", json::Value::number(static_cast<double>(
                     KV.second.Inst->V.load(std::memory_order_relaxed))));
    Gauges.items().push_back(std::move(Row));
  }
  Root.members().emplace_back("gauges", std::move(Gauges));

  json::Value Histograms = json::Value::array();
  for (const auto &KV : M->Histograms) {
    const HistogramImpl &H = *KV.second.Inst;
    Histogram View(KV.second.Inst.get());
    json::Value Row = json::Value::object();
    Row.members().emplace_back("name", json::Value::string(KV.second.Name));
    Row.members().emplace_back("labels", labelsValue(KV.second.Labels));
    Row.members().emplace_back(
        "count", json::Value::number(static_cast<double>(H.count())));
    Row.members().emplace_back(
        "sum", json::Value::number(static_cast<double>(H.sum())));
    Row.members().emplace_back(
        "min", json::Value::number(static_cast<double>(H.min())));
    Row.members().emplace_back(
        "max", json::Value::number(static_cast<double>(H.max())));
    Row.members().emplace_back(
        "p50", json::Value::number(static_cast<double>(View.percentile(50))));
    Row.members().emplace_back(
        "p95", json::Value::number(static_cast<double>(View.percentile(95))));
    Row.members().emplace_back(
        "p99", json::Value::number(static_cast<double>(View.percentile(99))));
    json::Value Buckets = json::Value::array();
    for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
      uint64_t N = H.bucket(B);
      if (!N)
        continue;
      json::Value Pair = json::Value::array();
      Pair.items().push_back(json::Value::number(
          static_cast<double>(Histogram::bucketLowNs(B))));
      Pair.items().push_back(json::Value::number(static_cast<double>(N)));
      Buckets.items().push_back(std::move(Pair));
    }
    Row.members().emplace_back("buckets", std::move(Buckets));
    Histograms.items().push_back(std::move(Row));
  }
  Root.members().emplace_back("histograms", std::move(Histograms));
  return Root;
}

std::string MetricsRegistry::snapshotJson() const { return snapshot().str(); }

std::string
MetricsRegistry::prometheusText(const std::string &Prefix) const {
  std::lock_guard<std::mutex> Lock(M->Mu);
  std::string Out;
  auto fullName = [&](const std::string &Name) {
    return Prefix + "_" + sanitizePromName(Name);
  };
  // One # TYPE line per metric name; the maps are sorted by identity key,
  // which groups same-name instruments together.
  std::string LastType;
  for (const auto &KV : M->Counters) {
    std::string N = fullName(KV.second.Name) + "_total";
    if (N != LastType) {
      Out += "# TYPE " + N + " counter\n";
      LastType = N;
    }
    Out += N + promLabelSet(KV.second.Labels) + " " +
           std::to_string(KV.second.Inst->value()) + "\n";
  }
  for (const auto &KV : M->Gauges) {
    std::string N = fullName(KV.second.Name);
    if (N != LastType) {
      Out += "# TYPE " + N + " gauge\n";
      LastType = N;
    }
    Out += N + promLabelSet(KV.second.Labels) + " " +
           std::to_string(KV.second.Inst->V.load(std::memory_order_relaxed)) +
           "\n";
  }
  for (const auto &KV : M->Histograms) {
    const HistogramImpl &H = *KV.second.Inst;
    std::string N = fullName(KV.second.Name);
    if (N != LastType) {
      Out += "# TYPE " + N + " histogram\n";
      LastType = N;
    }
    // Cumulative buckets over the non-empty slots; `le` is the inclusive
    // upper edge of each slot.
    uint64_t Cum = 0;
    for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
      uint64_t C = H.bucket(B);
      if (!C)
        continue;
      Cum += C;
      uint64_t Upper = B + 1 == Histogram::NumBuckets
                           ? UINT64_MAX
                           : Histogram::bucketLowNs(B + 1) - 1;
      Out += N + "_bucket" +
             promLabelSet(KV.second.Labels,
                          "le=\"" + std::to_string(Upper) + "\"") +
             " " + std::to_string(Cum) + "\n";
    }
    Out += N + "_bucket" + promLabelSet(KV.second.Labels, "le=\"+Inf\"") +
           " " + std::to_string(Cum) + "\n";
    Out += N + "_sum" + promLabelSet(KV.second.Labels) + " " +
           std::to_string(H.sum()) + "\n";
    Out += N + "_count" + promLabelSet(KV.second.Labels) + " " +
           std::to_string(H.count()) + "\n";
  }
  return Out;
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry *G = new MetricsRegistry();
  return *G;
}
