//===- CompileService.cpp - Persistent compile+simulate server -------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include "driver/ProfileReport.h"
#include "support/CommProfiler.h"

#include <exception>
#include <utility>

using namespace earthcc;

namespace {

/// Approximate resident footprint of a compiled artifact. The module's AST
/// and memoized bytecode are not directly measurable, so they are estimated
/// from the source size (SIMPLE stays within a small constant factor of the
/// surface program); the text products are exact.
size_t approxBytes(const CompiledArtifact &A, const CompileRequest &Req) {
  size_t B = sizeof(CompiledArtifact) + 512;
  B += A.Messages.size() + A.ThreadedC.size();
  if (A.M)
    B += Req.Source.size() * 8;
  return B;
}

size_t approxBytes(const SimArtifact &A) {
  size_t B = sizeof(SimArtifact) + 256;
  B += A.Error.size() + A.ProfileJson.size();
  for (const std::string &Line : A.Output)
    B += Line.size() + sizeof(std::string);
  B += A.WordsPerNode.size() * sizeof(size_t);
  return B;
}

/// The content address of one (compile, run) request pair: both canonical
/// serializations joined with a separator neither can contain unescaped at
/// record position (keyBytes records are `name=value;` with a version tag
/// first, so a 0x1F byte never starts a record).
std::string combinedKeyBytes(const std::string &CKey, const std::string &RKey) {
  std::string K;
  K.reserve(CKey.size() + 1 + RKey.size());
  K += CKey;
  K += '\x1f';
  K += RKey;
  return K;
}

} // namespace

CompileService::CompileService(ServiceConfig Config)
    : Cfg(Config),
      OwnedReg(Config.Metrics ? nullptr : new MetricsRegistry()),
      Reg(Config.Metrics ? Config.Metrics : OwnedReg.get()),
      Epoch(std::chrono::steady_clock::now()), Pool(Config.Workers) {
  // Registry-backed counters replacing the old ServiceStats fields. The
  // request total is derived (hit + wait + miss), never double-counted.
  CompileHits =
      Reg->counter("svc.requests", {{"op", "compile"}, {"outcome", "hit"}});
  CompileWaits =
      Reg->counter("svc.requests", {{"op", "compile"}, {"outcome", "wait"}});
  CompileExecs =
      Reg->counter("svc.requests", {{"op", "compile"}, {"outcome", "miss"}});
  RunHits = Reg->counter("svc.requests", {{"op", "run"}, {"outcome", "hit"}});
  RunWaits =
      Reg->counter("svc.requests", {{"op", "run"}, {"outcome", "wait"}});
  RunExecs =
      Reg->counter("svc.requests", {{"op", "run"}, {"outcome", "miss"}});
  EvictionCount = Reg->counter("svc.evictions");
  CacheBytesGauge = Reg->gauge("svc.cache_bytes");
  CacheEntriesGauge = Reg->gauge("svc.cache_entries");
  QueueDepthGauge = Reg->gauge("svc.queue_depth");
  CompileReqNs[0] = Reg->histogram(
      "svc.request_ns", {{"op", "compile"}, {"outcome", "miss"}});
  CompileReqNs[1] = Reg->histogram("svc.request_ns",
                                   {{"op", "compile"}, {"outcome", "hit"}});
  RunReqNs[0] =
      Reg->histogram("svc.request_ns", {{"op", "run"}, {"outcome", "miss"}});
  RunReqNs[1] =
      Reg->histogram("svc.request_ns", {{"op", "run"}, {"outcome", "hit"}});
}

CompileService::~CompileService() {
  // ThreadPool's destructor (it is the last member, destroyed first) lets
  // the workers drain the queue before joining, so every pending future and
  // callback completes while the caches are still alive.
}

double CompileService::nowNs() const {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

//===----------------------------------------------------------------------===//
// Submission
//===----------------------------------------------------------------------===//

// Queue depth counts submitted-but-unfinished requests (queued + running):
// +1 at submission, -1 when the handler's completion has been delivered.

std::future<CompileResponse> CompileService::submitCompile(CompileRequest Req) {
  auto Prom = std::make_shared<std::promise<CompileResponse>>();
  std::future<CompileResponse> Fut = Prom->get_future();
  QueueDepthGauge.add(1);
  Pool.run([this, Req = std::move(Req), Prom]() mutable {
    Prom->set_value(handleCompile(Req));
    QueueDepthGauge.add(-1);
  });
  return Fut;
}

void CompileService::submitCompile(CompileRequest Req,
                                   std::function<void(CompileResponse)> Done) {
  QueueDepthGauge.add(1);
  Pool.run([this, Req = std::move(Req), Done = std::move(Done)]() mutable {
    Done(handleCompile(Req));
    QueueDepthGauge.add(-1);
  });
}

std::future<RunResponse> CompileService::submitRun(CompileRequest CReq,
                                                   RunRequest RReq) {
  auto Prom = std::make_shared<std::promise<RunResponse>>();
  std::future<RunResponse> Fut = Prom->get_future();
  QueueDepthGauge.add(1);
  Pool.run(
      [this, CReq = std::move(CReq), RReq = std::move(RReq), Prom]() mutable {
        Prom->set_value(handleRun(CReq, RReq));
        QueueDepthGauge.add(-1);
      });
  return Fut;
}

void CompileService::submitRun(CompileRequest CReq, RunRequest RReq,
                               std::function<void(RunResponse)> Done) {
  QueueDepthGauge.add(1);
  Pool.run([this, CReq = std::move(CReq), RReq = std::move(RReq),
            Done = std::move(Done)]() mutable {
    Done(handleRun(CReq, RReq));
    QueueDepthGauge.add(-1);
  });
}

//===----------------------------------------------------------------------===//
// Request handlers (run on pool workers)
//===----------------------------------------------------------------------===//

CompileResponse CompileService::handleCompile(const CompileRequest &Req) {
  double Start = nowNs();
  CompileResponse Resp;
  Resp.Key = Req.keyHex();
  bool Hit = false;
  std::shared_ptr<const CompiledArtifact> Art = getOrCompile(Req, Hit);
  Resp.OK = Art->OK;
  Resp.Messages = Art->Messages;
  Resp.CacheHit = Hit;
  Resp.Artifact = std::move(Art);
  Resp.WallNs = nowNs() - Start;
  CompileReqNs[Hit].observe(
      Resp.WallNs <= 0 ? 0 : static_cast<uint64_t>(Resp.WallNs));
  traceRequest("compile", Resp.Key, Hit, Start, Resp.WallNs);
  return Resp;
}

RunResponse CompileService::handleRun(const CompileRequest &CReq,
                                      const RunRequest &RReq) {
  double Start = nowNs();
  RunResponse Resp;
  bool Hit = false, CompileHit = false;
  std::shared_ptr<const CompiledArtifact> Art;
  std::shared_ptr<const SimArtifact> Sim =
      getOrRun(CReq, RReq, Hit, CompileHit, Art);
  Resp.OK = Sim->OK;
  Resp.Error = Sim->Error;
  Resp.Key = Sim->KeyHex;
  Resp.CompileKey = Art ? Art->KeyHex : CReq.keyHex();
  Resp.CacheHit = Hit;
  Resp.CompileCacheHit = CompileHit;
  Resp.Sim = std::move(Sim);
  Resp.Artifact = std::move(Art);
  Resp.WallNs = nowNs() - Start;
  RunReqNs[Hit].observe(Resp.WallNs <= 0 ? 0
                                         : static_cast<uint64_t>(Resp.WallNs));
  traceRequest("run", Resp.Key, Hit, Start, Resp.WallNs);
  return Resp;
}

//===----------------------------------------------------------------------===//
// Single-flight content-addressed lookup
//===----------------------------------------------------------------------===//
//
// The locking protocol, shared by both artifact classes:
//
//   1. Under the mutex, look up the request's canonical key bytes. A hit on
//      a Done slot is a cache hit; a hit on a pending slot makes us a
//      waiter on its shared future; a miss installs a new pending slot
//      whose future we own.
//   2. Outside the mutex, waiters block on the future. The owner computes
//      the artifact (the expensive part — parsing, passes, lowering,
//      codegen, or a full simulation), fulfills the promise, then
//      re-enters the mutex to publish: mark the slot Done, account its
//      bytes, and run LRU eviction.
//
// Owners always compute inline in their own already-running pool task — a
// slot can only exist because some task installed it while executing — so
// a waiter's future is fulfilled no matter how small the pool is: the
// dependency chain (run waiter -> run owner -> compile owner) only ever
// points at tasks that are currently on a worker, never at queued work.

std::shared_ptr<const CompiledArtifact>
CompileService::getOrCompile(const CompileRequest &Req, bool &Hit) {
  using ArtPtr = std::shared_ptr<const CompiledArtifact>;
  const std::string KeyBytes = Req.keyBytes();
  std::promise<ArtPtr> Promise;
  std::shared_future<ArtPtr> Fut;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Compiles.find(KeyBytes);
    if (It != Compiles.end()) {
      It->second.LastUse = ++Clock;
      // A completed artifact and an in-flight join both count as "served
      // without executing" to the caller; the counters split them.
      Hit = true;
      (It->second.Done ? CompileHits : CompileWaits).inc();
      Fut = It->second.Fut;
    } else {
      Owner = true;
      Hit = false;
      CompileExecs.inc();
      Slot<CompiledArtifact> S;
      S.Fut = Promise.get_future().share();
      S.LastUse = ++Clock;
      Fut = S.Fut;
      Compiles.emplace(KeyBytes, std::move(S));
    }
  }
  if (!Owner)
    return Fut.get();

  auto Art = std::make_shared<CompiledArtifact>();
  Art->KeyHex = Req.keyHex();
  try {
    Pipeline P;
    CompileResult CR = P.compile(Req);
    Art->OK = CR.OK;
    Art->Messages = std::move(CR.Messages);
    Art->Stats = std::move(CR.Stats);
    Art->Remarks = std::move(CR.Remarks);
    if (CR.OK)
      Art->ThreadedC = P.emitThreadedC(*CR.M);
    Art->Stages = P.stages();
    Art->M = std::move(CR.M);
  } catch (const std::exception &E) {
    Art->OK = false;
    Art->M = nullptr;
    Art->Messages = std::string("internal error: ") + E.what();
  }
  Art->Bytes = approxBytes(*Art, Req);
  Promise.set_value(Art);
  publish(Compiles, KeyBytes, Art->Bytes);
  return Art;
}

std::shared_ptr<const SimArtifact>
CompileService::getOrRun(const CompileRequest &CReq, const RunRequest &RReq,
                         bool &Hit, bool &CompileHit,
                         std::shared_ptr<const CompiledArtifact> &Art) {
  using SimPtr = std::shared_ptr<const SimArtifact>;

  // The compiled artifact first: usually a hit, and the response wants it
  // regardless of whether the simulated result is cached.
  Art = getOrCompile(CReq, CompileHit);

  const std::string KeyBytes =
      combinedKeyBytes(CReq.keyBytes(), RReq.keyBytes());
  std::promise<SimPtr> Promise;
  std::shared_future<SimPtr> Fut;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Runs.find(KeyBytes);
    if (It != Runs.end()) {
      It->second.LastUse = ++Clock;
      Hit = true; // completed or in-flight: served without executing
      (It->second.Done ? RunHits : RunWaits).inc();
      Fut = It->second.Fut;
    } else {
      Owner = true;
      Hit = false;
      RunExecs.inc();
      Slot<SimArtifact> S;
      S.Fut = Promise.get_future().share();
      S.LastUse = ++Clock;
      Fut = S.Fut;
      Runs.emplace(KeyBytes, std::move(S));
    }
  }
  if (!Owner)
    return Fut.get();

  auto Sim = std::make_shared<SimArtifact>();
  Sim->KeyHex = keyBytesToHex(hashKeyBytes(KeyBytes));
  try {
    if (!Art->OK || !Art->M) {
      Sim->OK = false;
      Sim->Error = Art->Messages.empty() ? "compilation failed"
                                         : Art->Messages;
    } else {
      MachineConfig MC = RReq.machine();
      // The service owns profiling so the per-site report can be cached
      // with the result; a caller-supplied profiler would go stale on
      // every cache hit, so it is overridden here, and a request that did
      // not ask for a profile runs without one. The caller's trace sink
      // (MC.Trace, from the request) still sees the fresh run.
      CommProfiler Prof;
      MC.Profiler = RReq.RecordProfile ? &Prof : nullptr;
      RunResult R = runProgram(*Art->M, MC, RReq.Entry, RReq.Args);
      Sim->OK = R.OK;
      Sim->Error = std::move(R.Error);
      Sim->TimeNs = R.TimeNs;
      Sim->ExitValue = R.ExitValue;
      Sim->Counters = R.Counters;
      Sim->StepsExecuted = R.StepsExecuted;
      Sim->Output = std::move(R.Output);
      Sim->WordsPerNode = std::move(R.WordsPerNode);
      if (R.OK && RReq.RecordProfile)
        Sim->ProfileJson = profileReportJson(*Art->M, Prof, &Art->Remarks);
    }
  } catch (const std::exception &E) {
    Sim->OK = false;
    Sim->Error = std::string("internal error: ") + E.what();
  }
  Sim->Bytes = approxBytes(*Sim);
  Promise.set_value(Sim);
  publish(Runs, KeyBytes, Sim->Bytes);
  return Sim;
}

//===----------------------------------------------------------------------===//
// Cache accounting and eviction
//===----------------------------------------------------------------------===//

template <typename T>
void CompileService::publish(std::unordered_map<std::string, Slot<T>> &Map,
                             const std::string &KeyBytes, size_t Bytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(KeyBytes);
  if (It == Map.end())
    return; // Evicted while computing (tiny budget): holders keep the ptr.
  It->second.Done = true;
  It->second.Bytes = Bytes;
  It->second.LastUse = ++Clock;
  CacheBytes += Bytes;
  CacheEntriesGauge.add(1);
  evictLocked(KeyBytes);
  CacheBytesGauge.set(static_cast<int64_t>(CacheBytes));
}

void CompileService::evictLocked(const std::string &Protect) {
  // Evict the least-recently-used *completed* artifact until the budget
  // holds. Pending slots are never evicted (their owner is mid-compute),
  // and neither is the just-published/most-recent entry, so one hot
  // request stays cached under any budget. Erasing a slot drops the map's
  // reference only — requests already holding the shared_ptr are safe.
  for (;;) {
    if (CacheBytes <= Cfg.CacheBudgetBytes)
      return;
    uint64_t Oldest = UINT64_MAX;
    bool InCompiles = false;
    const std::string *Victim = nullptr;
    for (auto &KV : Compiles)
      if (KV.second.Done && KV.first != Protect &&
          KV.second.LastUse < Oldest) {
        Oldest = KV.second.LastUse;
        Victim = &KV.first;
        InCompiles = true;
      }
    for (auto &KV : Runs)
      if (KV.second.Done && KV.first != Protect &&
          KV.second.LastUse < Oldest) {
        Oldest = KV.second.LastUse;
        Victim = &KV.first;
        InCompiles = false;
      }
    if (!Victim)
      return; // Nothing evictable left.
    if (InCompiles) {
      CacheBytes -= Compiles.find(*Victim)->second.Bytes;
      Compiles.erase(*Victim);
    } else {
      CacheBytes -= Runs.find(*Victim)->second.Bytes;
      Runs.erase(*Victim);
    }
    EvictionCount.inc();
    CacheEntriesGauge.add(-1);
  }
}

ServiceStats CompileService::stats() const {
  // A view over the registry instruments. The mutex still serializes
  // against publish/evict so CacheBytes and the entry scan are coherent;
  // the counters themselves are monotonic and lock-free.
  std::lock_guard<std::mutex> Lock(Mu);
  ServiceStats S;
  S.CompileHits = CompileHits.value();
  S.CompileWaits = CompileWaits.value();
  S.CompileExecutions = CompileExecs.value();
  S.CompileRequests = S.CompileHits + S.CompileWaits + S.CompileExecutions;
  S.RunHits = RunHits.value();
  S.RunWaits = RunWaits.value();
  S.RunExecutions = RunExecs.value();
  S.RunRequests = S.RunHits + S.RunWaits + S.RunExecutions;
  S.Evictions = EvictionCount.value();
  S.CacheBytes = CacheBytes;
  size_t Entries = 0;
  for (const auto &KV : Compiles)
    Entries += KV.second.Done;
  for (const auto &KV : Runs)
    Entries += KV.second.Done;
  S.CacheEntries = Entries;
  return S;
}

void CompileService::traceRequest(const char *What, const std::string &KeyHex,
                                  bool Hit, double StartNs, double WallNs) {
  if (!Cfg.Trace)
    return;
  TraceEvent E;
  E.Name = std::string("svc:") + What;
  E.Cat = "service";
  E.Ph = 'X';
  E.TsNs = StartNs;
  E.DurNs = WallNs;
  E.Pid = 0;
  E.Tid = TraceTidPass;
  E.Args.emplace_back("key", KeyHex);
  E.Args.emplace_back("hit", unsigned(Hit));
  std::lock_guard<std::mutex> Lock(Mu);
  Cfg.Trace->event(E);
}
