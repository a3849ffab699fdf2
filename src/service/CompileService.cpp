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
  return B;
}

/// Simulates \p RReq on \p Art. A failed compile makes a failed run that
/// carries the compiler's diagnostics.
std::shared_ptr<SimArtifact> simulate(const CompiledArtifact &Art,
                                      const RunRequest &RReq) {
  auto Sim = std::make_shared<SimArtifact>();
  try {
    if (!Art.OK || !Art.M) {
      Sim->Error = Art.Messages.empty() ? "compilation failed" : Art.Messages;
    } else {
      MachineConfig MC = RReq;
      // The service owns profiling so the per-site report can be cached
      // with the result; a caller-supplied profiler would go stale on
      // every cache hit, so it is overridden here, and a request that did
      // not ask for a profile runs without one. The caller's trace sink
      // (MC.Trace, from the request) still sees the fresh run.
      CommProfiler Prof;
      MC.Profiler = RReq.RecordProfile ? &Prof : nullptr;
      RunResult R = runProgram(*Art.M, MC, RReq.Entry, RReq.Args);
      Sim->OK = R.OK;
      Sim->Error = std::move(R.Error);
      Sim->TimeNs = R.TimeNs;
      Sim->ExitValue = R.ExitValue;
      Sim->Counters = R.Counters;
      Sim->StepsExecuted = R.StepsExecuted;
      Sim->Output = std::move(R.Output);
      if (R.OK && RReq.RecordProfile)
        Sim->ProfileJson = profileReportJson(*Art.M, Prof, &Art.Remarks);
    }
  } catch (const std::exception &E) {
    Sim->OK = false;
    Sim->Error = std::string("internal error: ") + E.what();
  }
  Sim->Bytes = approxBytes(*Sim);
  return Sim;
}

} // namespace

CompileService::CompileService(ServiceConfig Config)
    : Cfg(Config),
      OwnedReg(Config.Metrics ? nullptr : new MetricsRegistry()),
      Reg(Config.Metrics ? Config.Metrics : OwnedReg.get()),
      Epoch(std::chrono::steady_clock::now()), Pool(Config.Workers) {
  // The request total is derived (hit + wait + miss), never double-counted.
  for (auto [O, Op] : {std::pair{&CompileOutcomes, "compile"},
                       std::pair{&RunOutcomes, "run"}}) {
    O->Hits = Reg->counter("svc.requests", {{"op", Op}, {"outcome", "hit"}});
    O->Waits = Reg->counter("svc.requests", {{"op", Op}, {"outcome", "wait"}});
    O->Misses =
        Reg->counter("svc.requests", {{"op", Op}, {"outcome", "miss"}});
    O->ReqNs[0] =
        Reg->histogram("svc.request_ns", {{"op", Op}, {"outcome", "miss"}});
    O->ReqNs[1] =
        Reg->histogram("svc.request_ns", {{"op", Op}, {"outcome", "hit"}});
  }
  EvictionCount = Reg->counter("svc.evictions");
  CacheBytesGauge = Reg->gauge("svc.cache_bytes");
  CacheEntriesGauge = Reg->gauge("svc.cache_entries");
  QueueDepthGauge = Reg->gauge("svc.queue_depth");
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
// The future forms go through the callback forms.

void CompileService::submitCompile(CompileRequest Req,
                                   std::function<void(CompileResponse)> Done) {
  QueueDepthGauge.add(1);
  Pool.run([this, Req = std::move(Req), Done = std::move(Done)]() mutable {
    Done(handleCompile(Req));
    QueueDepthGauge.add(-1);
  });
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

std::future<CompileResponse> CompileService::submitCompile(CompileRequest Req) {
  auto Prom = std::make_shared<std::promise<CompileResponse>>();
  std::future<CompileResponse> Fut = Prom->get_future();
  submitCompile(std::move(Req),
                [Prom](CompileResponse R) { Prom->set_value(std::move(R)); });
  return Fut;
}

std::future<RunResponse> CompileService::submitRun(CompileRequest CReq,
                                                   RunRequest RReq) {
  auto Prom = std::make_shared<std::promise<RunResponse>>();
  std::future<RunResponse> Fut = Prom->get_future();
  submitRun(std::move(CReq), std::move(RReq),
            [Prom](RunResponse R) { Prom->set_value(std::move(R)); });
  return Fut;
}

//===----------------------------------------------------------------------===//
// Request handlers (run on pool workers)
//===----------------------------------------------------------------------===//

CompileResponse CompileService::handleCompile(const CompileRequest &Req) {
  double Start = nowNs();
  CompileResponse Resp;
  std::shared_ptr<const CompiledArtifact> Art =
      getOrCompile(Req, Req.keyBytes(), Resp.CacheHit);
  Resp.OK = Art->OK;
  Resp.Messages = Art->Messages;
  Resp.Key = Art->KeyHex;
  Resp.Artifact = std::move(Art);
  Resp.WallNs =
      finishRequest(CompileOutcomes, "compile", Resp.Key, Resp.CacheHit, Start);
  return Resp;
}

RunResponse CompileService::handleRun(const CompileRequest &CReq,
                                      const RunRequest &RReq) {
  double Start = nowNs();
  RunResponse Resp;
  // The compiled artifact first: usually a hit, and the response wants it
  // whether or not the simulated result is cached.
  const std::string CKey = CReq.keyBytes();
  Resp.Artifact = getOrCompile(CReq, CKey, Resp.CompileCacheHit);
  // A run key is the compile key, a 0x1F byte, then the run key: strictly
  // longer than its own compile key, and never equal to another compile
  // key, whose length-prefixed source= record would have to match it. So
  // both kinds share one table.
  std::string Key = CKey;
  Key += '\x1f';
  Key += RReq.keyBytes();
  Resp.Sim = lookup<SimArtifact>(Key, RunOutcomes, Resp.CacheHit, [&] {
    return simulate(*Resp.Artifact, RReq);
  });
  Resp.OK = Resp.Sim->OK;
  Resp.Error = Resp.Sim->Error;
  Resp.Key = Resp.Sim->KeyHex;
  Resp.CompileKey = Resp.Artifact->KeyHex;
  Resp.WallNs =
      finishRequest(RunOutcomes, "run", Resp.Key, Resp.CacheHit, Start);
  return Resp;
}

std::shared_ptr<const CompiledArtifact>
CompileService::getOrCompile(const CompileRequest &Req, const std::string &Key,
                             bool &Hit) {
  return lookup<CompiledArtifact>(Key, CompileOutcomes, Hit, [&] {
    auto Art = std::make_shared<CompiledArtifact>();
    try {
      Pipeline P;
      CompileResult CR = P.compile(Req);
      Art->OK = CR.OK;
      Art->Messages = std::move(CR.Messages);
      Art->Remarks = std::move(CR.Remarks);
      if (CR.OK)
        Art->ThreadedC = P.emitThreadedC(*CR.M);
      Art->M = std::move(CR.M);
    } catch (const std::exception &E) {
      Art->OK = false;
      Art->M = nullptr;
      Art->Messages = std::string("internal error: ") + E.what();
    }
    Art->Bytes = approxBytes(*Art, Req);
    return Art;
  });
}

//===----------------------------------------------------------------------===//
// Single-flight content-addressed lookup
//===----------------------------------------------------------------------===//
//
// The locking protocol, one for both artifact kinds:
//
//   1. Under the mutex, look up the request's canonical key bytes. A hit on
//      a Done entry is a cache hit and moves it to the back of the LRU
//      list; a hit on a pending entry makes us a waiter on its shared
//      future; a miss installs a new pending entry whose future we own.
//   2. Outside the mutex, waiters block on the future. The owner computes
//      the artifact (the expensive part: parsing, passes, lowering,
//      codegen, or a full simulation), fulfills the promise, then
//      re-enters the mutex to publish: mark the entry Done, append it to
//      the LRU list, account its bytes, and evict from the list's front.
//
// Owners always compute inline in their own already-running pool task — an
// entry can only exist because some task installed it while executing — so
// a waiter's future is fulfilled no matter how small the pool is: the
// dependency chain (run waiter -> run owner -> compile owner) only ever
// points at tasks that are currently on a worker, never at queued work.
//
// Eviction takes the least recently used published entry until the budget
// holds. Pending entries are not on the list, so they are never evicted,
// and neither is the entry just published, so one hot request stays cached
// under any budget. Erasing an entry drops the table's reference only;
// requests already holding the artifact keep it.

template <class T, class ComputeFn>
std::shared_ptr<const T> CompileService::lookup(const std::string &Key,
                                                Outcomes &O, bool &Hit,
                                                ComputeFn &&Compute) {
  std::promise<std::shared_ptr<const void>> Promise;
  std::shared_future<std::shared_ptr<const void>> Fut;
  Entry *E = nullptr;
  const std::string *KeyInTable = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto [It, Inserted] = Table.try_emplace(Key);
    E = &It->second;
    KeyInTable = &It->first;
    // A completed artifact and an in-flight join both count as "served
    // without executing" to the caller; the counters split them.
    Hit = !Inserted;
    if (Inserted) {
      O.Misses.inc();
      E->Fut = Promise.get_future().share();
    } else if (E->Done) {
      O.Hits.inc();
      Lru.splice(Lru.end(), Lru, E->LruPos);
    } else {
      O.Waits.inc();
    }
    Fut = E->Fut;
  }
  if (Hit)
    return std::static_pointer_cast<const T>(Fut.get());

  std::shared_ptr<T> Art = Compute();
  Art->KeyHex = keyBytesToHex(hashKeyBytes(Key));
  Promise.set_value(Art);

  // The entry is still there: only published entries are evicted, and
  // element references survive rehashing.
  std::lock_guard<std::mutex> Lock(Mu);
  E->Done = true;
  E->Bytes = Key.size() + Art->Bytes;
  E->LruPos = Lru.insert(Lru.end(), KeyInTable);
  CacheBytes += E->Bytes;
  while (CacheBytes > Cfg.CacheBudgetBytes && Lru.front() != KeyInTable) {
    auto Victim = Table.find(*Lru.front());
    Lru.pop_front();
    CacheBytes -= Victim->second.Bytes;
    Table.erase(Victim);
    EvictionCount.inc();
  }
  CacheBytesGauge.set(static_cast<int64_t>(CacheBytes));
  CacheEntriesGauge.set(static_cast<int64_t>(Lru.size()));
  return Art;
}

ServiceStats CompileService::stats() const {
  // A view over the registry instruments. The mutex serializes against
  // publishing, so CacheBytes and the entry count are coherent; the
  // counters themselves are monotonic and lock-free.
  std::lock_guard<std::mutex> Lock(Mu);
  ServiceStats S;
  S.CompileHits = CompileOutcomes.Hits.value();
  S.CompileWaits = CompileOutcomes.Waits.value();
  S.CompileExecutions = CompileOutcomes.Misses.value();
  S.CompileRequests = S.CompileHits + S.CompileWaits + S.CompileExecutions;
  S.RunHits = RunOutcomes.Hits.value();
  S.RunWaits = RunOutcomes.Waits.value();
  S.RunExecutions = RunOutcomes.Misses.value();
  S.RunRequests = S.RunHits + S.RunWaits + S.RunExecutions;
  S.Evictions = EvictionCount.value();
  S.CacheBytes = CacheBytes;
  S.CacheEntries = Lru.size();
  return S;
}

double CompileService::finishRequest(Outcomes &O, const char *What,
                                     const std::string &KeyHex, bool Hit,
                                     double StartNs) {
  double WallNs = nowNs() - StartNs;
  O.ReqNs[Hit].observe(WallNs <= 0 ? 0 : static_cast<uint64_t>(WallNs));
  if (!Cfg.Trace)
    return WallNs;
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
  return WallNs;
}
