//===- service_test.cpp - CompileService cache and concurrency tests -------===//
//
// Part of the earthcc project.
//
// The service's contracts, each pinned under concurrency where it matters:
//
//  - Cache identity: requests differing in a result-determining option
//    (engine, node count, optimization) are distinct artifacts;
//    requests differing only in instrumentation (trace sink) share one.
//  - Single-flight: N concurrent identical requests execute the pipeline
//    exactly once — the others join the in-flight computation.
//  - Eviction: completed artifacts respect the byte budget LRU-wise; the
//    most recent entry survives, evicted keys recompute on next use.
//  - Determinism: a cached response is bit-identical to a fresh one —
//    simulated time, counters, and the serialized comm profile.
//  - Profiles on request: a run records its comm profile only when the
//    request asks for one, and asking is part of the key.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"
#include "service/Serve.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace earthcc;

namespace {

const char *Program = R"(
  struct Point { double x; double y; Point *next; };
  Point *build(int n) {
    Point *head; Point *p; int i;
    head = NULL;
    for (i = 0; i < n; i = i + 1) {
      p = pmalloc(sizeof(Point))@node(i % num_nodes());
      p->x = i * 1.0;
      p->y = i * 2.0;
      p->next = head;
      head = p;
    }
    return head;
  }
  int main() {
    Point *head; Point *p;
    double sx;
    head = build(24);
    sx = 0.0;
    p = head;
    while (p != NULL) {
      sx = sx + p->x + p->y;
      p = p->next;
    }
    return sx;
  }
)";

ServiceConfig workers(unsigned N) {
  ServiceConfig C;
  C.Workers = N;
  return C;
}

} // namespace

TEST(ServiceCompileTest, HitOnIdenticalMissOnDifferentOptions) {
  CompileService S(workers(2));

  CompileRequest Opt = CompileRequest::optimized(Program);
  CompileResponse First = S.submitCompile(Opt).get();
  ASSERT_TRUE(First.OK) << First.Messages;
  EXPECT_FALSE(First.CacheHit);
  ASSERT_NE(First.Artifact, nullptr);
  EXPECT_NE(First.Artifact->M, nullptr);
  EXPECT_FALSE(First.Artifact->ThreadedC.empty());

  CompileResponse Again = S.submitCompile(Opt).get();
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Artifact.get(), First.Artifact.get()); // shared, not copied
  EXPECT_EQ(Again.Key, First.Key);

  // A key-changing option is a different artifact.
  CompileResponse Simple =
      S.submitCompile(CompileRequest::simple(Program)).get();
  ASSERT_TRUE(Simple.OK);
  EXPECT_FALSE(Simple.CacheHit);
  EXPECT_NE(Simple.Key, First.Key);

  // A host-only knob is the same artifact.
  CompileRequest MoreThreads = Opt;
  MoreThreads.LowerThreads = 4;
  MoreThreads.PassThreads = 4;
  EXPECT_TRUE(S.submitCompile(MoreThreads).get().CacheHit);

  ServiceStats St = S.stats();
  EXPECT_EQ(St.CompileRequests, 4u);
  EXPECT_EQ(St.CompileExecutions, 2u);
  EXPECT_EQ(St.CompileHits + St.CompileWaits, 2u);
}

TEST(ServiceRunTest, KeyedOptionsMissInstrumentationHits) {
  CompileService S(workers(2));
  CompileRequest CReq = CompileRequest::optimized(Program);

  RunRequest Base;
  Base.NumNodes = 4;
  RunResponse R1 = S.submitRun(CReq, Base).get();
  ASSERT_TRUE(R1.OK) << R1.Error;
  EXPECT_FALSE(R1.CacheHit);

  // Identical request: served from cache, same artifact object.
  RunResponse R2 = S.submitRun(CReq, Base).get();
  EXPECT_TRUE(R2.CacheHit);
  EXPECT_TRUE(R2.CompileCacheHit);
  EXPECT_EQ(R2.Sim.get(), R1.Sim.get());

  // Engine and node count are keyed: each is a distinct simulated
  // artifact (conservative identity), even though results are equal.
  RunRequest Ast = Base;
  Ast.Engine = ExecEngine::AST;
  RunResponse RAst = S.submitRun(CReq, Ast).get();
  EXPECT_FALSE(RAst.CacheHit);
  EXPECT_TRUE(RAst.CompileCacheHit); // same compiled module underneath
  EXPECT_EQ(RAst.Sim->TimeNs, R1.Sim->TimeNs);
  EXPECT_EQ(RAst.Sim->Counters.total(), R1.Sim->Counters.total());

  RunRequest EightNodes = Base;
  EightNodes.NumNodes = 8;
  EXPECT_FALSE(S.submitRun(CReq, EightNodes).get().CacheHit);

  // Attaching a trace sink is NOT keyed: the request still hits, and the
  // cached (untraced) result is returned unchanged.
  ChromeTraceSink Sink;
  RunRequest Traced = Base;
  Traced.Trace = &Sink;
  RunResponse RTraced = S.submitRun(CReq, Traced).get();
  EXPECT_TRUE(RTraced.CacheHit);
  EXPECT_EQ(RTraced.Sim.get(), R1.Sim.get());

  ServiceStats St = S.stats();
  EXPECT_EQ(St.RunExecutions, 3u); // base, ast, 8 nodes
  EXPECT_EQ(St.CompileExecutions, 1u);
}

TEST(ServiceDedupTest, ConcurrentIdenticalRequestsCompileOnce) {
  // 8 identical requests race on an 8-worker pool: single-flight must
  // collapse them to exactly one pipeline execution regardless of how the
  // workers interleave — the others either join the in-flight future
  // (waits) or see the published artifact (hits).
  CompileService S(workers(8));
  CompileRequest CReq = CompileRequest::optimized(Program);
  RunRequest RReq;
  RReq.NumNodes = 4;

  std::vector<std::future<RunResponse>> Futures;
  for (int I = 0; I != 8; ++I)
    Futures.push_back(S.submitRun(CReq, RReq));

  const SimArtifact *Shared = nullptr;
  for (auto &F : Futures) {
    RunResponse R = F.get();
    ASSERT_TRUE(R.OK) << R.Error;
    if (!Shared)
      Shared = R.Sim.get();
    EXPECT_EQ(R.Sim.get(), Shared); // one artifact object for all
  }

  ServiceStats St = S.stats();
  EXPECT_EQ(St.RunRequests, 8u);
  EXPECT_EQ(St.RunExecutions, 1u);
  EXPECT_EQ(St.RunHits + St.RunWaits, 7u);
  EXPECT_EQ(St.CompileRequests, 8u);
  EXPECT_EQ(St.CompileExecutions, 1u);
}

TEST(ServiceEvictionTest, ByteBudgetEvictsLRUAndRecomputes) {
  ServiceConfig Cfg = workers(2);
  Cfg.CacheBudgetBytes = 1; // every publish overflows: only MRU survives
  CompileService S(Cfg);

  CompileRequest A = CompileRequest::simple("int main() { return 1; }");
  CompileRequest B = CompileRequest::simple("int main() { return 2; }");

  std::shared_ptr<const CompiledArtifact> HeldA =
      S.submitCompile(A).get().Artifact;
  ASSERT_TRUE(HeldA && HeldA->OK);
  EXPECT_EQ(S.stats().CacheEntries, 1u); // A survives: MRU is protected

  ASSERT_TRUE(S.submitCompile(B).get().OK); // publishing B evicts A
  ServiceStats St = S.stats();
  EXPECT_GE(St.Evictions, 1u);
  EXPECT_EQ(St.CacheEntries, 1u);

  // The held shared_ptr outlives eviction; the map entry is gone, so A
  // recomputes on next use (a miss, not a hit).
  EXPECT_NE(HeldA->M->findFunction("main"), nullptr);
  CompileResponse AAgain = S.submitCompile(A).get();
  EXPECT_FALSE(AAgain.CacheHit);
  EXPECT_EQ(S.stats().CompileExecutions, 3u);

  // Distinct artifact objects: the recompute did not resurrect the pointer.
  EXPECT_NE(AAgain.Artifact.get(), HeldA.get());
}

TEST(ServiceEvictionTest, RecencyOrdersCompileAndRunEntriesTogether) {
  // Same-length sources, so every compile entry has the same footprint;
  // the budget holds two of them but not three.
  CompileRequest A = CompileRequest::simple("int main() { return 1; }");
  CompileRequest B = CompileRequest::simple("int main() { return 2; }");
  CompileRequest C = CompileRequest::simple("int main() { return 3; }");
  size_t Entry = 0;
  {
    CompileService Probe(workers(1));
    ASSERT_TRUE(Probe
                    .submitCompile(
                        CompileRequest::simple("int main() { return 4; }"))
                    .get()
                    .OK);
    Entry = Probe.stats().CacheBytes;
  }
  ServiceConfig Cfg = workers(1);
  Cfg.CacheBudgetBytes = Entry * 5 / 2;
  CompileService S(Cfg);

  ASSERT_TRUE(S.submitCompile(A).get().OK);
  ASSERT_TRUE(S.submitCompile(B).get().OK);
  EXPECT_TRUE(S.submitCompile(A).get().CacheHit); // A is now newer than B
  ASSERT_TRUE(S.submitCompile(C).get().OK);       // evicts B, the LRU entry
  EXPECT_EQ(S.stats().Evictions, 1u);
  EXPECT_EQ(S.stats().CacheEntries, 2u);

  // The run's compile lookup hits A (it survived C) and refreshes it, so
  // publishing the run entry evicts C, now the least recent.
  RunRequest R;
  R.RecordProfile = false;
  RunResponse Run = S.submitRun(A, R).get();
  ASSERT_TRUE(Run.OK) << Run.Error;
  EXPECT_TRUE(Run.CompileCacheHit);
  EXPECT_EQ(S.stats().Evictions, 2u);
  EXPECT_EQ(S.stats().CacheEntries, 2u);

  // A hit makes A newer than the run entry: recompiling C (a miss, since it
  // was evicted) pushes out the run entry, not A.
  EXPECT_TRUE(S.submitCompile(A).get().CacheHit);
  EXPECT_FALSE(S.submitCompile(C).get().CacheHit);
  EXPECT_EQ(S.stats().Evictions, 3u);
  EXPECT_TRUE(S.submitCompile(A).get().CacheHit);
  EXPECT_EQ(S.stats().CompileExecutions, 4u);
  EXPECT_EQ(S.stats().RunExecutions, 1u);
}

TEST(ServiceDeterminismTest, CachedResponseBitIdenticalToFresh) {
  // The same request against two independent services: one cold compute
  // each; then a cached replay from the first. All three must agree bit
  // for bit — simulated time, counters, step count, and the serialized
  // per-site comm profile.
  CompileRequest CReq = CompileRequest::optimized(Program);
  RunRequest RReq;
  RReq.NumNodes = 4;

  CompileService S1(workers(2));
  RunResponse Fresh1 = S1.submitRun(CReq, RReq).get();
  ASSERT_TRUE(Fresh1.OK) << Fresh1.Error;
  RunResponse Cached = S1.submitRun(CReq, RReq).get();
  EXPECT_TRUE(Cached.CacheHit);

  CompileService S2(workers(1));
  RunResponse Fresh2 = S2.submitRun(CReq, RReq).get();
  ASSERT_TRUE(Fresh2.OK) << Fresh2.Error;

  for (const RunResponse *R : {&Cached, &Fresh2}) {
    EXPECT_EQ(R->Sim->TimeNs, Fresh1.Sim->TimeNs);
    EXPECT_EQ(R->Sim->ExitValue.I, Fresh1.Sim->ExitValue.I);
    EXPECT_EQ(R->Sim->StepsExecuted, Fresh1.Sim->StepsExecuted);
    EXPECT_EQ(R->Sim->Counters.total(), Fresh1.Sim->Counters.total());
    EXPECT_EQ(R->Sim->Counters.WordsMoved, Fresh1.Sim->Counters.WordsMoved);
    EXPECT_EQ(R->Sim->Output, Fresh1.Sim->Output);
    // The profile is serialized once, on the fresh run, from a
    // service-owned profiler: byte equality here is the "cached responses
    // are indistinguishable" guarantee.
    EXPECT_EQ(R->Sim->ProfileJson, Fresh1.Sim->ProfileJson);
  }
  EXPECT_FALSE(Fresh1.Sim->ProfileJson.empty());
}

// A run records its comm profile only when the request asks for one, and
// the flag is key material: the profiled result is a different artifact,
// so asking for it after an unprofiled run misses and runs again.
TEST(ServiceProfileTest, ProfileRecordedOnlyWhenRequested) {
  CompileService S(workers(2));
  CompileRequest CReq = CompileRequest::optimized(Program);
  RunRequest Off;
  Off.NumNodes = 2;
  Off.RecordProfile = false;
  RunResponse Plain = S.submitRun(CReq, Off).get();
  ASSERT_TRUE(Plain.OK) << Plain.Error;
  EXPECT_FALSE(Plain.CacheHit);
  EXPECT_TRUE(Plain.Sim->ProfileJson.empty());

  RunRequest On = Off;
  On.RecordProfile = true;
  RunResponse Profiled = S.submitRun(CReq, On).get();
  ASSERT_TRUE(Profiled.OK) << Profiled.Error;
  EXPECT_FALSE(Profiled.CacheHit);
  EXPECT_NE(Profiled.Key, Plain.Key);
  EXPECT_FALSE(Profiled.Sim->ProfileJson.empty());
  // The profiler observes the run without changing it.
  EXPECT_EQ(Profiled.Sim->TimeNs, Plain.Sim->TimeNs);
  EXPECT_EQ(Profiled.Sim->StepsExecuted, Plain.Sim->StepsExecuted);

  RunResponse Again = S.submitRun(CReq, On).get();
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Sim->ProfileJson, Profiled.Sim->ProfileJson);
  EXPECT_EQ(S.stats().RunExecutions, 2u);
  EXPECT_EQ(S.stats().CompileExecutions, 1u);
}

TEST(ServiceFailureTest, CompileErrorsAreCachedDeterministically) {
  CompileService S(workers(2));
  CompileRequest Bad = CompileRequest::optimized("int main() { return x; }");

  CompileResponse First = S.submitCompile(Bad).get();
  EXPECT_FALSE(First.OK);
  EXPECT_FALSE(First.Messages.empty());

  // Failures are artifacts too: same key, cached diagnostics, no recompile.
  CompileResponse Again = S.submitCompile(Bad).get();
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Messages, First.Messages);
  EXPECT_EQ(S.stats().CompileExecutions, 1u);

  // A run request against a failing compile fails cleanly with the
  // compiler's diagnostics, and is itself cached.
  RunRequest RReq;
  RunResponse R = S.submitRun(Bad, RReq).get();
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(R.Error, First.Messages);
  EXPECT_TRUE(S.submitRun(Bad, RReq).get().CacheHit);
}

TEST(ServiceTraceTest, ServiceSinkSeesOneSpanPerRequest) {
  ChromeTraceSink Sink;
  ServiceConfig Cfg = workers(2);
  Cfg.Trace = &Sink;
  CompileService S(Cfg);

  CompileRequest CReq = CompileRequest::optimized(Program);
  RunRequest RReq;
  ASSERT_TRUE(S.submitRun(CReq, RReq).get().OK);
  ASSERT_TRUE(S.submitRun(CReq, RReq).get().OK);

  unsigned Spans = 0, Hits = 0;
  for (const TraceEvent &E : Sink.events()) {
    if (E.Name != "svc:run")
      continue;
    ++Spans;
    for (const TraceEvent::Arg &A : E.Args)
      if (A.Key == "hit" && A.Val == "1")
        ++Hits;
  }
  EXPECT_EQ(Spans, 2u);
  EXPECT_EQ(Hits, 1u); // second request was the cache hit
}

TEST(ServiceMetricsTest, RegistryCountersBackTheStatsView) {
  // Each service without an explicit ServiceConfig::Metrics owns a private
  // registry, so counts here are exact regardless of other tests.
  CompileService S(workers(2));
  CompileRequest Opt = CompileRequest::optimized(Program);
  ASSERT_TRUE(S.submitCompile(Opt).get().OK);
  EXPECT_TRUE(S.submitCompile(Opt).get().CacheHit);

  MetricsRegistry &Reg = S.metrics();
  EXPECT_EQ(Reg.counter("svc.requests", {{"op", "compile"},
                                         {"outcome", "miss"}})
                .value(),
            1u);
  EXPECT_EQ(Reg.counter("svc.requests", {{"op", "compile"},
                                         {"outcome", "hit"}})
                    .value() +
                Reg.counter("svc.requests", {{"op", "compile"},
                                             {"outcome", "wait"}})
                    .value(),
            1u);
  // Both requests observed a latency sample, split by outcome.
  EXPECT_EQ(Reg.histogram("svc.request_ns", {{"op", "compile"},
                                             {"outcome", "miss"}})
                .count(),
            1u);
  EXPECT_EQ(Reg.histogram("svc.request_ns", {{"op", "compile"},
                                             {"outcome", "hit"}})
                .count(),
            1u);

  // stats() is a point-in-time view over these same counters and gauges.
  ServiceStats St = S.stats();
  EXPECT_EQ(St.CompileRequests, 2u);
  EXPECT_EQ(St.CompileExecutions, 1u);
  EXPECT_EQ(static_cast<int64_t>(St.CacheEntries),
            Reg.gauge("svc.cache_entries").value());
  EXPECT_EQ(static_cast<int64_t>(St.CacheBytes),
            Reg.gauge("svc.cache_bytes").value());

  // A second service's private registry is untouched by the first.
  CompileService Fresh(workers(1));
  EXPECT_EQ(Fresh.metrics()
                .counter("svc.requests",
                         {{"op", "compile"}, {"outcome", "miss"}})
                .value(),
            0u);
}

TEST(ServeMetricsTest, MetricsOpAnswersWithRegistrySnapshot) {
  // The "metrics" op over the serve protocol returns the wired registry's
  // snapshot; after shutdown drains, the registry holds the final counts:
  // one pipeline execution and one cache hit (or in-flight join) for the
  // two identical runs.
  MetricsRegistry Reg;
  ServeOptions Opts;
  Opts.Service.Workers = 2;
  Opts.Service.Metrics = &Reg;

  std::istringstream In(
      "{\"id\":1,\"op\":\"run\",\"workload\":\"power\",\"nodes\":2}\n"
      "{\"id\":2,\"op\":\"run\",\"workload\":\"power\",\"nodes\":2}\n"
      "{\"id\":3,\"op\":\"metrics\"}\n"
      "{\"id\":4,\"op\":\"shutdown\"}\n");
  std::ostringstream Out;
  EXPECT_EQ(runServeLoop(In, Out, Opts), 4u);

  const std::string Text = Out.str();
  EXPECT_NE(Text.find("\"op\":\"metrics\""), std::string::npos) << Text;
  EXPECT_NE(Text.find("\"svc.requests\""), std::string::npos) << Text;
  EXPECT_NE(Text.find("\"svc.request_ns\""), std::string::npos) << Text;

  uint64_t Miss =
      Reg.counter("svc.requests", {{"op", "run"}, {"outcome", "miss"}})
          .value();
  uint64_t Joined =
      Reg.counter("svc.requests", {{"op", "run"}, {"outcome", "hit"}})
          .value() +
      Reg.counter("svc.requests", {{"op", "run"}, {"outcome", "wait"}})
          .value();
  EXPECT_EQ(Miss, 1u);
  EXPECT_EQ(Joined, 1u);
}

TEST(ServeMetricsTest, GlobalRegistryCarriesStageHistogramsAcrossSessions) {
  // Without an explicit registry the serve loop records into the
  // process-wide one — the same registry Pipeline stages and engines use.
  // A first session executes a run; a second session's "metrics" op then
  // reports those per-stage wall-ns histograms and engine run totals
  // alongside its own (empty) cache counters.
  ServeOptions Opts;
  Opts.Service.Workers = 1;
  {
    std::istringstream In(
        "{\"id\":1,\"op\":\"run\",\"workload\":\"power\",\"nodes\":2}\n"
        "{\"id\":2,\"op\":\"shutdown\"}\n");
    std::ostringstream Out;
    runServeLoop(In, Out, Opts);
    ASSERT_NE(Out.str().find("\"ok\":true"), std::string::npos) << Out.str();
  }
  std::istringstream In(
      "{\"id\":1,\"op\":\"metrics\"}\n{\"id\":2,\"op\":\"shutdown\"}\n");
  std::ostringstream Out;
  runServeLoop(In, Out, Opts);
  EXPECT_NE(Out.str().find("\"pipeline.stage_ns\""), std::string::npos);
  EXPECT_NE(Out.str().find("\"engine.runs\""), std::string::npos);
}

TEST(ServeProtocolTest, EveryAnswerIsValidJson) {
  // A non-finite number must not reach an answer as `inf`: a double exit
  // that overflows answers null, the retired network-latency fields are
  // refused as unknown options whatever their value, and an argument beyond
  // the int64 range stays a double.
  MetricsRegistry Reg;
  ServeOptions Opts;
  Opts.Service.Workers = 2;
  Opts.Service.Metrics = &Reg;
  std::istringstream In(
      R"({"id":1,"op":"run","source":"double main(){ double d; )"
      R"(d = 1e308; d = d * 10.0; return d; }"})"
      "\n"
      R"({"id":2,"op":"run","workload":"power","topology":"torus2d",)"
      R"("net-hop-ns":1e309})"
      "\n"
      R"({"id":3,"op":"run","workload":"power","topology":"bus",)"
      R"("net-link-word-ns":1e308})"
      "\n"
      R"({"id":4,"op":"run","source":"double main(double a){return a;}",)"
      R"("args":[1e300]})"
      "\n"
      R"({"id":5,"op":"shutdown"})"
      "\n");
  std::ostringstream Out;
  EXPECT_EQ(runServeLoop(In, Out, Opts), 5u);

  std::map<int, json::Value> ById;
  std::istringstream Lines(Out.str());
  for (std::string Line; std::getline(Lines, Line);) {
    json::Value V;
    std::string Err;
    ASSERT_TRUE(json::parse(Line, V, Err)) << Err << ": " << Line;
    ById[static_cast<int>(V.getNumber("id", 0))] = V;
  }
  ASSERT_EQ(ById.size(), 5u) << Out.str();
  EXPECT_TRUE(ById[1].getBool("ok", false)) << Out.str();
  ASSERT_NE(ById[1].find("exit"), nullptr);
  EXPECT_TRUE(ById[1].find("exit")->isNull());
  for (int Id : {2, 3}) {
    EXPECT_FALSE(ById[Id].getBool("ok", true));
    EXPECT_NE(ById[Id].getString("error", "").find("unknown option"),
              std::string::npos)
        << ById[Id].str();
  }
  EXPECT_TRUE(ById[4].getBool("ok", false)) << ById[4].str();
  EXPECT_EQ(ById[4].getNumber("exit", 0), 1e300);
}

TEST(ServeProtocolTest, IntegersCrossExactly) {
  // 2^53 + 1 has no double: an integer exit value and an integer argument
  // must still be answered digit for digit.
  MetricsRegistry Reg;
  ServeOptions Opts;
  Opts.Service.Workers = 1;
  Opts.Service.Metrics = &Reg;
  std::istringstream In(
      R"({"id":1,"op":"run","source":"int main(){ return 9007199254740993; }"})"
      "\n"
      R"({"id":2,"op":"run","source":"int main(int a){ return a; }",)"
      R"("args":[9007199254740993]})"
      "\n");
  std::ostringstream Out;
  EXPECT_EQ(runServeLoop(In, Out, Opts), 2u);
  std::istringstream Lines(Out.str());
  unsigned Answers = 0;
  for (std::string Line; std::getline(Lines, Line); ++Answers)
    EXPECT_NE(Line.find("\"exit\":9007199254740993"), std::string::npos)
        << Line;
  EXPECT_EQ(Answers, 2u) << Out.str();
}

TEST(ServiceShutdownTest, DestructionDrainsPendingRequests) {
  // Futures obtained before destruction must complete: the pool drains its
  // queue (workers finish everything submitted) before members die.
  std::vector<std::future<RunResponse>> Futures;
  {
    CompileService S(workers(2));
    CompileRequest CReq = CompileRequest::optimized(Program);
    for (unsigned N : {2u, 4u, 8u}) {
      RunRequest RReq;
      RReq.NumNodes = N;
      Futures.push_back(S.submitRun(CReq, RReq));
    }
  } // destructor joins here
  for (auto &F : Futures) {
    RunResponse R = F.get();
    EXPECT_TRUE(R.OK) << R.Error;
  }
}
