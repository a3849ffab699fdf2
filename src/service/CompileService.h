//===- CompileService.h - Persistent compile+simulate server ----*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The earthcc driver as a long-lived service. The Pipeline already does
/// compile-once/run-many with stage memoization *within* one caller; this
/// productionizes it *across* callers:
///
///  - Every artifact a request can produce — the verified SIMPLE module
///    with its memoized bytecode, the emitted Threaded-C text, remarks,
///    and the simulated result with, when the request asks for one
///    (RunRequest::RecordProfile), its per-site comm profile — is keyed
///    by the content hash of its request value (CompileRequest::keyBytes,
///    RunRequest::keyBytes; see driver/Request.h). Identical requests from
///    any number of concurrent clients share one cached artifact.
///
///  - Lookups are *single-flight*: the first request for a key computes
///    while every concurrent duplicate waits on the same shared future, so
///    N identical requests trigger exactly one compile (the hard guarantee
///    the dedup tests pin: executions == 1 regardless of interleaving).
///
///  - Completed artifacts live in an LRU cache under a byte budget;
///    in-flight entries and the most recently used artifact are never
///    evicted, so a hot request stays warm at any budget.
///
///  - Work is scheduled on a support/ThreadPool.h worker pool. submit()
///    returns a std::future immediately; the callback overloads invoke a
///    completion on the worker instead (the `--serve` loop uses those to
///    stream responses out of order). Per-request instrumentation rides
///    the request itself: the request's Trace sink is forwarded into a fresh
///    execution, and a service-level TraceSink (ServiceConfig::Trace)
///    receives one span per request with its cache outcome.
///
/// Determinism makes the cache sound: the simulator's results are a pure
/// function of (module, machine config) — identical across engines, node
/// schedules and host threads, which the engine-equivalence suite pins —
/// so replaying a cached response is observationally identical to
/// recomputing it, including the serialized comm profile byte for byte
/// (for each RecordProfile value, which is part of the key).
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SERVICE_COMPILESERVICE_H
#define EARTHCC_SERVICE_COMPILESERVICE_H

#include "driver/Pipeline.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace earthcc {

/// Configuration of one service instance.
struct ServiceConfig {
  /// Worker threads handling requests (0 = all hardware threads).
  unsigned Workers = 0;
  /// Byte budget for completed entries, each counted as its key bytes plus
  /// its artifact's approximate footprint. The most recently used entry
  /// survives even when it alone exceeds the budget.
  size_t CacheBudgetBytes = size_t(256) << 20;
  /// Service-level tracing: one 'X' span per handled request (name
  /// svc:compile / svc:run, args: key, hit). Non-owning; events are
  /// emitted under the service lock, so any sink is safe without its own
  /// synchronization. Not forwarded into pipelines — per-request run
  /// tracing goes through the RunRequest's Trace.
  TraceSink *Trace = nullptr;
  /// Metrics registry the service records into (request counters split by
  /// op and outcome, eviction counts, cache gauges, queue depth, and
  /// per-request latency histograms). Non-owning; null makes the service
  /// create a private registry, so unit tests that pin exact counts never
  /// see another instance's traffic. The `--serve` loop wires the process
  /// registry here so the "metrics" op sees service activity.
  MetricsRegistry *Metrics = nullptr;
};

/// Monotonic counters describing service activity. "Executions" are actual
/// computations (cache misses), "Hits" are completed-artifact lookups, and
/// "Waits" are single-flight joins onto a computation another request
/// started — Hits + Waits + Executions == Requests per class.
///
/// This struct is a point-in-time *view*: the backing store is the
/// service's metrics registry (`svc.requests{op,outcome}` etc.), so the
/// same numbers are visible through stats(), the serve "stats" op, and any
/// metrics exposition without double bookkeeping.
struct ServiceStats {
  uint64_t CompileRequests = 0;
  uint64_t CompileExecutions = 0;
  uint64_t CompileHits = 0;
  uint64_t CompileWaits = 0;
  uint64_t RunRequests = 0;
  uint64_t RunExecutions = 0;
  uint64_t RunHits = 0;
  uint64_t RunWaits = 0;
  uint64_t Evictions = 0;
  size_t CacheBytes = 0;   ///< Completed entries' footprint, keys included.
  size_t CacheEntries = 0; ///< Completed artifacts resident.
};

/// An immutable compiled artifact: everything the compile side of the
/// pipeline can produce for one CompileRequest. Shared by reference among
/// every request that hits its key; never mutated after publication.
struct CompiledArtifact {
  bool OK = false;
  std::string Messages;              ///< Diagnostics when !OK.
  std::shared_ptr<const Module> M;   ///< Verified module (bytecode memoized).
  RemarkStream Remarks;              ///< Optimizer remarks (profile join).
  std::string ThreadedC;             ///< Emitted text ("" if !OK).
  std::string KeyHex;                ///< Content address (compile key).
  size_t Bytes = 0;                  ///< Approximate footprint, key excluded.
};

/// An immutable simulated-run artifact for one (CompileRequest, RunRequest)
/// pair: the full deterministic result plus, when RunRequest::RecordProfile
/// is set, the serialized per-site comm profile (recorded by a
/// service-owned profiler on the fresh execution).
struct SimArtifact {
  bool OK = false;
  std::string Error;
  double TimeNs = 0.0;
  RtValue ExitValue;
  OpCounters Counters;
  uint64_t StepsExecuted = 0;
  std::vector<std::string> Output;
  /// profileReportJson over the run's profiler; empty when the request did
  /// not set RunRequest::RecordProfile or the run failed.
  std::string ProfileJson;
  std::string KeyHex; ///< Content address (compile key, then run key).
  size_t Bytes = 0;   ///< Approximate footprint, key excluded.
};

/// Response to a compile request.
struct CompileResponse {
  bool OK = false;
  std::string Messages;
  std::string Key;      ///< Compile key, 16 hex digits.
  bool CacheHit = false; ///< Served without executing a compile here.
  double WallNs = 0.0;  ///< Handler wall time (includes any dedup wait).
  std::shared_ptr<const CompiledArtifact> Artifact;
};

/// Response to a compile+run request.
struct RunResponse {
  bool OK = false;
  std::string Error;
  std::string Key;        ///< Combined run key, 16 hex digits.
  std::string CompileKey; ///< The underlying artifact's key.
  bool CacheHit = false;  ///< Simulated result served from cache.
  bool CompileCacheHit = false;
  double WallNs = 0.0;
  std::shared_ptr<const SimArtifact> Sim;
  std::shared_ptr<const CompiledArtifact> Artifact;
};

/// The long-lived compile+simulate server. Thread-safe; cheap to query.
/// Destruction drains every submitted request (futures and callbacks all
/// complete) before returning.
class CompileService {
public:
  explicit CompileService(ServiceConfig Config = {});
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  const ServiceConfig &config() const { return Cfg; }
  unsigned numWorkers() const { return Pool.numThreads(); }

  /// Compiles \p Req (or finds it in the cache). The future becomes ready
  /// when the artifact is available; identical concurrent requests share
  /// one compilation.
  std::future<CompileResponse> submitCompile(CompileRequest Req);
  /// Callback form: \p Done runs on a worker thread when the response is
  /// ready. Must not throw.
  void submitCompile(CompileRequest Req,
                     std::function<void(CompileResponse)> Done);

  /// Compiles (cached) and simulates (cached) in one request.
  std::future<RunResponse> submitRun(CompileRequest CReq, RunRequest RReq);
  void submitRun(CompileRequest CReq, RunRequest RReq,
                 std::function<void(RunResponse)> Done);

  ServiceStats stats() const;

  /// The registry this instance records into (ServiceConfig::Metrics, or
  /// the service-private one when none was wired).
  MetricsRegistry &metrics() { return *Reg; }

private:
  /// One cache entry: a compile or a run artifact, type-erased (the two
  /// kinds of key cannot collide; see lookup()). Pending until its owner
  /// publishes it; only published entries are on the LRU list.
  struct Entry {
    std::shared_future<std::shared_ptr<const void>> Fut;
    bool Done = false;
    size_t Bytes = 0; ///< Key plus artifact footprint.
    std::list<const std::string *>::iterator LruPos;
  };
  /// One op's request instruments: svc.requests{op,outcome} counters and
  /// the svc.request_ns histograms, [0] = miss, [1] = hit. Single-flight
  /// waits land in the hit histogram, as the response's CacheHit bit does.
  struct Outcomes {
    Counter Hits, Waits, Misses;
    Histogram ReqNs[2];
  };

  CompileResponse handleCompile(const CompileRequest &Req);
  RunResponse handleRun(const CompileRequest &CReq, const RunRequest &RReq);

  std::shared_ptr<const CompiledArtifact>
  getOrCompile(const CompileRequest &Req, const std::string &Key, bool &Hit);
  /// Single-flight lookup of \p Key: the published artifact, the one in
  /// flight, or \p Compute's result, which it publishes (protocol in the
  /// .cpp). \p Hit is false only when this call computed.
  template <class T, class ComputeFn>
  std::shared_ptr<const T> lookup(const std::string &Key, Outcomes &O,
                                  bool &Hit, ComputeFn &&Compute);
  /// Records a finished request's latency and its trace span; returns its
  /// wall time.
  double finishRequest(Outcomes &O, const char *What,
                       const std::string &KeyHex, bool Hit, double StartNs);
  double nowNs() const;

  ServiceConfig Cfg;
  /// Private registry when ServiceConfig::Metrics is null; kept ahead of
  /// the handles below, which point into it.
  std::unique_ptr<MetricsRegistry> OwnedReg;
  MetricsRegistry *Reg = nullptr;
  Outcomes CompileOutcomes, RunOutcomes;
  Counter EvictionCount;
  Gauge CacheBytesGauge, CacheEntriesGauge, QueueDepthGauge;

  mutable std::mutex Mu;
  /// Every entry by key bytes. The LRU list holds pointers to the map's
  /// keys, which stay put when the map rehashes (iterators would not).
  std::unordered_map<std::string, Entry> Table;
  std::list<const std::string *> Lru; ///< Published keys, least recent first.
  size_t CacheBytes = 0;
  std::chrono::steady_clock::time_point Epoch;
  /// Declared last: destroyed (joined, queue drained) before the caches
  /// and stats above, so in-flight handlers never touch dead members.
  ThreadPool Pool;
};

} // namespace earthcc

#endif // EARTHCC_SERVICE_COMPILESERVICE_H
