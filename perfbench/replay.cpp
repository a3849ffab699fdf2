//===- replay.cpp - Traced in-process replay of the benchmark stream -------===//
//
// Part of the earthcc benchmark (see BENCHMARK.md).
//
// Replays request lines of the `earthcc --serve` protocol in process, on one
// thread. For each line it does what the serve loop and the compile service
// do, but it calls every layer's public entry point itself, so a span can be
// wrapped around each call from outside the library:
//
//   json::parse -> CompileRequest/RunRequest::keyBytes -> Lexer::lexAll +
//   Parser::parseUnit -> lowerToSimple -> verifyModule -> CommAnalysis ->
//   selectModuleCommunication -> getOrLowerBytecode -> emitThreadedC ->
//   Pipeline::run (with a CommProfiler) -> profileReportJson ->
//   json::Value::str
//
//   perfbench_replay --sources   full-size Olden sources as one JSON object
//   perfbench_replay --host      compiler and optimization facts as JSON
//   perfbench_replay --prime FILE --stream FILE --round-size N
//                    [--spans-out FILE]
//
// The prime lines are replayed once through the full chain (traced), then
// installed in the service and looked up once each (traced). The stream file
// holds whole rounds of N lines; each round is replayed twice, with spans on
// and with spans off, alternating which pass goes first, and the paired wall
// times give the tracing overhead. Per-layer numbers come from traced passes
// only. The summary is one JSON object on stdout.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/ProfileReport.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Simplify.h"
#include "interp/Lower.h"
#include "service/CompileService.h"
#include "simple/Verifier.h"
#include "support/CommProfiler.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "transform/CommSelection.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace earthcc;

namespace {

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span: a layer call, the span that caused it, and the
/// request it belongs to.
struct SpanRec {
  const char *Name;
  uint64_t Start, End;
  int32_t Parent;
  int64_t Req;
};

/// In-memory span store. Spans nest through Cur; nothing is recorded while
/// On is false, which is the untraced side of the overhead measurement.
struct Tracer {
  bool On = false;
  int64_t Req = 0;
  int32_t Cur = -1;
  std::vector<SpanRec> Spans;
};

class Span {
public:
  Span(Tracer &T, const char *Name) : T(T) {
    if (!T.On)
      return;
    Idx = static_cast<int32_t>(T.Spans.size());
    T.Spans.push_back({Name, nowNs(), 0, T.Cur, T.Req});
    Prev = T.Cur;
    T.Cur = Idx;
  }
  ~Span() {
    if (Idx < 0)
      return;
    T.Spans[Idx].End = nowNs();
    T.Cur = Prev;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int32_t Idx = -1, Prev = -1;
};

/// Work counts taken at the same layer boundaries as the spans (traced
/// passes only).
struct Counts {
  uint64_t Parses = 0, Tokens = 0;
  uint64_t Placements = 0, ReadTuples = 0, WriteTuples = 0;
  uint64_t Selects = 0, BlockedReads = 0, PipelinedReads = 0;
  uint64_t BlockedWrites = 0, Remarks = 0;
  uint64_t Lowers = 0, Insns = 0;
  uint64_t Emits = 0, CodegenBytes = 0;
  uint64_t Runs = 0, Steps = 0, RemoteMsgs = 0;
  uint64_t LinkQueueMax = 0;
  double LinkBusyNsMax = 0;
  uint64_t Requests = 0, JsonBytes = 0;
  uint64_t Lookups = 0, LookupHits = 0;
};

/// What a traced run request produced, for the driver's reference checks.
struct Outcome {
  int64_t Id;
  bool OK;
  double Exit;
  double TimeNs;
};

bool isProtocolField(const std::string &Name) {
  return Name == "id" || Name == "op" || Name == "source" ||
         Name == "workload" || Name == "size" || Name == "args" ||
         Name == "profile" || Name == "threaded_c";
}

/// Request pair for one protocol object, as the serve loop builds it:
/// environment defaults, then the object's option fields through the shared
/// option table.
bool buildRequests(const json::Value &Obj, CompileRequest &C, RunRequest &R,
                   std::string &Err) {
  if (!applyRequestEnv(C, R, Err))
    return false;
  C.Source = Obj.getString("source", "");
  for (const json::Member &M : Obj.members()) {
    if (isProtocolField(M.first))
      continue;
    std::string Value;
    if (M.second.isString())
      Value = M.second.asString();
    else if (M.second.isBool())
      Value = M.second.asBool() ? "on" : "off";
    else if (M.second.isNumber())
      Value = json::Value::number(M.second.asNumber()).str();
    else {
      Err = "field \"" + M.first + "\" is not a scalar";
      return false;
    }
    if (!applyRequestOption(C, R, M.first, Value, Err))
      return false;
  }
  if (C.Source.empty()) {
    Err = "request has no source";
    return false;
  }
  return true;
}

json::Value countersToJson(const OpCounters &C) {
  json::Value O = json::Value::object();
  auto Put = [&O](const char *K, uint64_t V) {
    O.members().emplace_back(K, json::Value::number(static_cast<double>(V)));
  };
  Put("read_data", C.ReadData);
  Put("write_data", C.WriteData);
  Put("blkmov", C.BlkMov);
  Put("atomic", C.Atomic);
  Put("words_moved", C.WordsMoved);
  Put("local_fallbacks", C.LocalFallbacks);
  Put("spawns", C.Spawns);
  Put("ctx_switches", C.CtxSwitches);
  return O;
}

/// A compiled module with what the service keeps beside it.
struct Compiled {
  bool OK = false;
  std::string Messages;
  std::unique_ptr<Module> M;
  RemarkStream Remarks;
  std::string ThreadedC;
};

class Replayer {
public:
  Replayer() : Svc(serviceConfig()) {}

  Tracer T;
  Counts C;
  std::vector<Outcome> Outcomes;
  uint64_t Failures = 0;

  /// Handles one protocol line. \p Hit answers a run request from the
  /// primed service instead of computing it.
  void handle(const std::string &Line, bool Hit);
  /// Installs a run request in the service without tracing (the priming
  /// state a server is in after answering the line once).
  void install(const std::string &Line);

private:
  static ServiceConfig serviceConfig() {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.Metrics = &MetricsRegistry::global();
    return SC;
  }
  Compiled compile(const CompileRequest &Req);
  SimArtifact run(const Compiled &CM, const RunRequest &Req,
                  const std::string &Topology);
  json::Value runResponse(const json::Value &Id, const SimArtifact &S,
                          bool Hit, bool WantProfile);
  void fail(const std::string &Why) {
    ++Failures;
    std::fprintf(stderr, "perfbench_replay: %s\n", Why.c_str());
  }

  CompileService Svc;
};

Compiled Replayer::compile(const CompileRequest &Req) {
  Compiled Out;
  PipelineOptions Opts(Req);
  DiagnosticsEngine Diags;
  ast::TranslationUnit Unit;
  {
    Span S(T, "frontend.parse");
    Lexer Lex(Req.Source, Diags);
    std::vector<Token> Tokens = Lex.lexAll();
    if (T.On) {
      ++C.Parses;
      C.Tokens += Tokens.size();
    }
    Parser P(std::move(Tokens), Diags);
    Unit = P.parseUnit();
  }
  if (Diags.hasErrors()) {
    Out.Messages = Diags.str();
    return Out;
  }
  {
    Span S(T, "frontend.simplify");
    Out.M = lowerToSimple(Unit, Diags);
  }
  if (Diags.hasErrors()) {
    Out.Messages = Diags.str();
    return Out;
  }
  std::vector<std::string> Errors;
  bool Verified;
  {
    Span S(T, "simple.verify");
    Verified = verifyModule(*Out.M, Errors);
  }
  if (!Verified) {
    Out.Messages = "verifier rejected the module";
    return Out;
  }
  if (Opts.Optimize) {
    Statistics Stats;
    std::unique_ptr<CommAnalysis> CA;
    {
      Span S(T, "analysis.placement");
      CA = std::make_unique<CommAnalysis>(*Out.M, Opts.comm(), Stats,
                                          /*EmitRemarks=*/true,
                                          Opts.PassThreads);
    }
    bool Selected;
    {
      Span S(T, "transform.comm_select");
      Selected = selectModuleCommunication(*Out.M, *CA, Opts, Stats, Errors,
                                           &Out.Remarks, Opts.PassThreads);
    }
    if (!Selected) {
      Out.Messages = "communication selection broke the module";
      return Out;
    }
    if (T.On) {
      ++C.Placements;
      C.ReadTuples += Stats.get("placement.read_tuples");
      C.WriteTuples += Stats.get("placement.write_tuples");
      ++C.Selects;
      C.BlockedReads += Stats.get("select.blocked_reads");
      C.PipelinedReads += Stats.get("select.pipelined_reads");
      C.BlockedWrites += Stats.get("select.blocked_writes");
      C.Remarks += Out.Remarks.size();
    }
  }
  {
    Span S(T, "interp.lower");
    const BytecodeModule &BM = getOrLowerBytecode(*Out.M, Opts.LowerThreads);
    if (T.On) {
      ++C.Lowers;
      for (const auto &BF : BM.Funcs)
        C.Insns += BF->Code.size();
    }
  }
  {
    // The service emits Threaded-C into every compiled artifact.
    Span S(T, "codegen.emit");
    Pipeline P(Opts);
    Out.ThreadedC = P.emitThreadedC(*Out.M);
    if (T.On) {
      ++C.Emits;
      C.CodegenBytes += Out.ThreadedC.size();
    }
  }
  Out.OK = true;
  return Out;
}

SimArtifact Replayer::run(const Compiled &CM, const RunRequest &Req,
                          const std::string &Topology) {
  static const std::map<std::string, const char *> RunSpans = {
      {"ideal", "interp.run.ideal"}, {"torus2d", "interp.run.torus2d"}};
  auto It = RunSpans.find(Topology);
  const char *Name = It == RunSpans.end() ? "interp.run.other" : It->second;

  CommProfiler Prof;
  RunRequest R = Req;
  R.Profiler = &Prof;
  Pipeline P;
  RunResult Res;
  {
    Span S(T, Name);
    Res = P.run(*CM.M, R);
  }
  SimArtifact Sim;
  Sim.OK = Res.OK;
  Sim.Error = Res.Error;
  Sim.TimeNs = Res.TimeNs;
  Sim.ExitValue = Res.ExitValue;
  Sim.Counters = Res.Counters;
  Sim.StepsExecuted = Res.StepsExecuted;
  Sim.Output = Res.Output;
  if (!Res.OK)
    return Sim;
  if (T.On) {
    ++C.Runs;
    C.Steps += Res.StepsExecuted;
    C.RemoteMsgs += Prof.totalMsgs();
    for (const NetLinkStats &L : Prof.netLinks()) {
      C.LinkBusyNsMax = std::max(C.LinkBusyNsMax, L.BusyNs);
      C.LinkQueueMax = std::max<uint64_t>(C.LinkQueueMax, L.MaxQueueDepth);
    }
  }
  {
    Span S(T, "driver.profile_json");
    Sim.ProfileJson = profileReportJson(*CM.M, Prof, &CM.Remarks);
  }
  return Sim;
}

json::Value Replayer::runResponse(const json::Value &Id, const SimArtifact &S,
                                  bool Hit, bool WantProfile) {
  json::Value Resp = json::Value::object();
  Resp.members().emplace_back("id", Id);
  Resp.members().emplace_back("ok", json::Value::boolean(S.OK));
  Resp.members().emplace_back("op", json::Value::string("run"));
  Resp.members().emplace_back("cache_hit", json::Value::boolean(Hit));
  if (!S.OK) {
    Resp.members().emplace_back("error", json::Value::string(S.Error));
    return Resp;
  }
  Resp.members().emplace_back("time_ns", json::Value::number(S.TimeNs));
  Resp.members().emplace_back(
      "exit", json::Value::number(static_cast<double>(S.ExitValue.I)));
  Resp.members().emplace_back(
      "steps", json::Value::number(static_cast<double>(S.StepsExecuted)));
  Resp.members().emplace_back("counters", countersToJson(S.Counters));
  json::Value OutLines = json::Value::array();
  for (const std::string &L : S.Output)
    OutLines.items().push_back(json::Value::string(L));
  Resp.members().emplace_back("output", OutLines);
  if (WantProfile && !S.ProfileJson.empty()) {
    // The serve loop re-parses the stored report into every response.
    json::Value Profile;
    std::string Err;
    Span Sp(T, "support.json_decode");
    if (json::parse(S.ProfileJson, Profile, Err))
      Resp.members().emplace_back("comm_profile", std::move(Profile));
  }
  return Resp;
}

int64_t lineId(const std::string &Line) {
  return Line.rfind("{\"id\":", 0) == 0
             ? std::strtoll(Line.c_str() + 6, nullptr, 10)
             : -1;
}

void Replayer::handle(const std::string &Line, bool Hit) {
  T.Req = lineId(Line);
  Span Root(T, "request");
  json::Value Obj;
  std::string Err;
  bool Parsed;
  {
    Span S(T, "support.json_decode");
    Parsed = json::parse(Line, Obj, Err) && Obj.isObject();
  }
  if (!Parsed)
    return fail("unparsable request line: " + Err);
  json::Value Id = Obj.find("id") ? *Obj.find("id") : json::Value::null();
  std::string Op = Obj.getString("op", "run");
  CompileRequest CReq;
  RunRequest RReq;
  if (!buildRequests(Obj, CReq, RReq, Err))
    return fail(Err);
  {
    Span S(T, "driver.key");
    std::string Key = CReq.keyBytes();
    if (Op == "run")
      Key += RReq.keyBytes();
    volatile uint64_t Sink = hashKeyBytes(Key);
    (void)Sink;
  }

  json::Value Resp;
  if (Op == "compile") {
    Compiled CM = compile(CReq);
    Resp = json::Value::object();
    Resp.members().emplace_back("id", Id);
    Resp.members().emplace_back("ok", json::Value::boolean(CM.OK));
    Resp.members().emplace_back("op", json::Value::string("compile"));
    Resp.members().emplace_back("cache_hit", json::Value::boolean(false));
    if (!CM.OK)
      fail("compile failed: " + CM.Messages);
    else if (Obj.getBool("threaded_c", false))
      Resp.members().emplace_back("threaded_c",
                                  json::Value::string(CM.ThreadedC));
  } else if (Op == "run") {
    bool WantProfile = Obj.getBool("profile", false);
    std::shared_ptr<const SimArtifact> Sim;
    bool WasHit = false;
    if (Hit) {
      RunResponse RR;
      {
        Span S(T, "service.lookup");
        RR = Svc.submitRun(CReq, RReq).get();
      }
      WasHit = RR.CacheHit;
      if (T.On) {
        ++C.Lookups;
        C.LookupHits += WasHit;
      }
      if (RR.Sim)
        Sim = RR.Sim;
      else
        Sim = std::make_shared<SimArtifact>();
    } else {
      Compiled CM = compile(CReq);
      if (!CM.OK) {
        auto Failed = std::make_shared<SimArtifact>();
        Failed->Error = CM.Messages;
        Sim = Failed;
      } else {
        Sim = std::make_shared<SimArtifact>(
            run(CM, RReq, Obj.getString("topology", "ideal")));
      }
    }
    Resp = runResponse(Id, *Sim, WasHit, WantProfile);
    if (!Sim->OK)
      fail("run failed: " + Sim->Error);
    if (T.On)
      Outcomes.push_back({T.Req, Sim->OK,
                          static_cast<double>(Sim->ExitValue.I), Sim->TimeNs});
  } else {
    return fail("unsupported op \"" + Op + "\"");
  }

  std::string Text;
  {
    Span S(T, "support.json_encode");
    Text = Resp.str();
  }
  if (T.On) {
    ++C.Requests;
    C.JsonBytes += Line.size() + Text.size() + 2;
  }
}

void Replayer::install(const std::string &Line) {
  json::Value Obj;
  std::string Err;
  CompileRequest CReq;
  RunRequest RReq;
  if (!json::parse(Line, Obj, Err) || !buildRequests(Obj, CReq, RReq, Err))
    return fail("cannot install prime line: " + Err);
  RunResponse RR = Svc.submitRun(CReq, RReq).get();
  if (!RR.OK)
    fail("prime request failed: " + RR.Error);
}

bool readLines(const char *Path, std::vector<std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Out.push_back(Line);
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

json::Value num(double D) { return json::Value::number(D); }

/// Per-layer self time: each span's duration minus the part its children
/// cover (children of one parent run one after another on this thread).
json::Value layerTimes(const std::vector<SpanRec> &Spans) {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.End - S.Start;
  struct Agg {
    uint64_t Calls = 0;
    double SelfNs = 0, TotalNs = 0;
  };
  std::map<std::string, Agg> ByName;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Agg &A = ByName[Spans[I].Name];
    double Dur = static_cast<double>(Spans[I].End - Spans[I].Start);
    ++A.Calls;
    A.TotalNs += Dur;
    A.SelfNs += Dur - static_cast<double>(ChildNs[I]);
  }
  json::Value Out = json::Value::object();
  for (const auto &[Name, A] : ByName) {
    json::Value Row = json::Value::object();
    Row.members().emplace_back("calls", num(static_cast<double>(A.Calls)));
    Row.members().emplace_back("self_ns", num(A.SelfNs));
    Row.members().emplace_back("total_ns", num(A.TotalNs));
    Out.members().emplace_back(Name, std::move(Row));
  }
  return Out;
}

/// The program's own per-stage histograms (pipeline.stage_ns{stage}), as
/// count and sum, for comparison with the external spans.
json::Value stageHistograms(const json::Value &Snapshot) {
  json::Value Out = json::Value::object();
  const json::Value *Hists = Snapshot.find("histograms");
  if (!Hists)
    return Out;
  for (const json::Value &H : Hists->items()) {
    if (H.getString("name", "") != "pipeline.stage_ns")
      continue;
    const json::Value *Labels = H.find("labels");
    json::Value Row = json::Value::object();
    Row.members().emplace_back("count", num(H.getNumber("count", 0)));
    Row.members().emplace_back("sum_ns", num(H.getNumber("sum", 0)));
    Out.members().emplace_back(Labels ? Labels->getString("stage", "?") : "?",
                               std::move(Row));
  }
  return Out;
}

json::Value countsJson(const Counts &C) {
  json::Value O = json::Value::object();
  auto Put = [&O](const char *K, double V) { O.members().emplace_back(K, num(V)); };
  Put("parses", C.Parses);
  Put("tokens", C.Tokens);
  Put("placements", C.Placements);
  Put("read_tuples", C.ReadTuples);
  Put("write_tuples", C.WriteTuples);
  Put("selects", C.Selects);
  Put("blocked_reads", C.BlockedReads);
  Put("pipelined_reads", C.PipelinedReads);
  Put("blocked_writes", C.BlockedWrites);
  Put("remarks", C.Remarks);
  Put("lowers", C.Lowers);
  Put("insns", C.Insns);
  Put("emits", C.Emits);
  Put("codegen_bytes", C.CodegenBytes);
  Put("runs", C.Runs);
  Put("steps", C.Steps);
  Put("remote_msgs", C.RemoteMsgs);
  Put("link_busy_ns_max", C.LinkBusyNsMax);
  Put("link_queue_max", C.LinkQueueMax);
  Put("requests", C.Requests);
  Put("json_bytes", C.JsonBytes);
  Put("lookups", C.Lookups);
  Put("lookup_hits", C.LookupHits);
  return O;
}

void writeSpans(const char *Path, const std::vector<SpanRec> &Spans,
                const json::Value &Snapshot) {
  FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "perfbench_replay: cannot write '%s'\n", Path);
    return;
  }
  uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  std::fprintf(F, "{\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\","
                  "\"request\"],\n\"spans\":[");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F, "%s\n[\"%s\",%llu,%llu,%d,%lld]", I ? "," : "", S.Name,
                 (unsigned long long)(S.Start - Base),
                 (unsigned long long)(S.End - Base), S.Parent,
                 (long long)S.Req);
  }
  std::fprintf(F, "],\n\"metrics\":%s}\n", Snapshot.str().c_str());
  std::fclose(F);
}

int printSources() {
  json::Value O = json::Value::object();
  for (const Workload &W : oldenWorkloads())
    O.members().emplace_back(W.Name, json::Value::string(W.Source));
  std::printf("%s\n", O.str().c_str());
  return 0;
}

int printHost() {
  json::Value O = json::Value::object();
#if defined(__clang__)
  O.members().emplace_back("compiler", json::Value::string("Clang"));
#elif defined(__GNUC__)
  O.members().emplace_back("compiler", json::Value::string("GNU"));
#else
  O.members().emplace_back("compiler", json::Value::string("unknown"));
#endif
#ifdef __VERSION__
  O.members().emplace_back("compiler_version", json::Value::string(__VERSION__));
#endif
#ifdef __OPTIMIZE__
  O.members().emplace_back("optimized", json::Value::boolean(true));
#else
  O.members().emplace_back("optimized", json::Value::boolean(false));
#endif
#ifdef NDEBUG
  O.members().emplace_back("ndebug", json::Value::boolean(true));
#else
  O.members().emplace_back("ndebug", json::Value::boolean(false));
#endif
  std::printf("%s\n", O.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_replay --sources | --host |\n"
               "       perfbench_replay --prime FILE --stream FILE "
               "--round-size N [--spans-out FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const char *PrimePath = nullptr, *StreamPath = nullptr, *SpansPath = nullptr;
  size_t RoundSize = 0;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool HasNext = I + 1 < argc;
    if (A == "--sources")
      return printSources();
    if (A == "--host")
      return printHost();
    if (A == "--prime" && HasNext)
      PrimePath = argv[++I];
    else if (A == "--stream" && HasNext)
      StreamPath = argv[++I];
    else if (A == "--spans-out" && HasNext)
      SpansPath = argv[++I];
    else if (A == "--round-size" && HasNext)
      RoundSize = std::strtoul(argv[++I], nullptr, 10);
    else
      return usage();
  }
  std::vector<std::string> Prime, Stream;
  if (!PrimePath || !StreamPath || RoundSize == 0 ||
      !readLines(PrimePath, Prime) || !readLines(StreamPath, Stream) ||
      Stream.size() % RoundSize != 0)
    return usage();

  Replayer R;
  R.T.Spans.reserve(1 << 16);

  // Reference pass: every request kind through the full chain, then into
  // the service, then looked up once (a cache hit) — on every workload, so
  // each layer is measured wherever the stream itself bypasses it.
  R.T.On = true;
  for (const std::string &L : Prime)
    R.handle(L, /*Hit=*/false);
  R.T.On = false;
  for (const std::string &L : Prime)
    R.install(L);
  R.T.On = true;
  for (const std::string &L : Prime)
    R.handle(L, /*Hit=*/true);

  // Stream rounds, each replayed traced and untraced.
  std::vector<double> OnNs, OffNs, Ratio;
  size_t Rounds = Stream.size() / RoundSize;
  for (size_t Round = 0; Round != Rounds; ++Round) {
    double Wall[2] = {0, 0};
    for (int Pass = 0; Pass != 2; ++Pass) {
      bool On = (Pass == 0) == (Round % 2 == 0);
      R.T.On = On;
      uint64_t T0 = nowNs();
      for (size_t I = Round * RoundSize; I != (Round + 1) * RoundSize; ++I)
        R.handle(Stream[I], /*Hit=*/false);
      Wall[On] = static_cast<double>(nowNs() - T0);
    }
    OffNs.push_back(Wall[0]);
    OnNs.push_back(Wall[1]);
    Ratio.push_back(Wall[1] / Wall[0]);
  }
  R.T.On = false;

  json::Value Snapshot = MetricsRegistry::global().snapshot();
  if (SpansPath)
    writeSpans(SpansPath, R.T.Spans, Snapshot);

  json::Value Out = json::Value::object();
  Out.members().emplace_back("layers", layerTimes(R.T.Spans));
  Out.members().emplace_back("counts", countsJson(R.C));
  Out.members().emplace_back("rounds", num(static_cast<double>(Rounds)));
  Out.members().emplace_back("on_ns_median", num(median(OnNs)));
  Out.members().emplace_back("off_ns_median", num(median(OffNs)));
  Out.members().emplace_back("overhead_pct",
                             num((median(Ratio) - 1.0) * 100.0));
  Out.members().emplace_back("spans",
                             num(static_cast<double>(R.T.Spans.size())));
  Out.members().emplace_back("failures",
                             num(static_cast<double>(R.Failures)));
  json::Value Runs = json::Value::array();
  for (const Outcome &O : R.Outcomes) {
    json::Value Row = json::Value::array();
    Row.items().push_back(num(static_cast<double>(O.Id)));
    Row.items().push_back(json::Value::boolean(O.OK));
    Row.items().push_back(num(O.Exit));
    Row.items().push_back(num(O.TimeNs));
    Runs.items().push_back(std::move(Row));
  }
  Out.members().emplace_back("runs", std::move(Runs));
  Out.members().emplace_back("stage_ns", stageHistograms(Snapshot));
  std::printf("%s\n", Out.str().c_str());
  return R.Failures ? 1 : 0;
}
