//===- Serve.cpp - Line-oriented JSON protocol over CompileService ---------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "service/Serve.h"

#include "support/Json.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

using namespace earthcc;

namespace {

/// Field names handled by the loop itself rather than the option table.
bool isProtocolField(std::string_view Name) {
  return Name == "id" || Name == "op" || Name == "source" ||
         Name == "workload" || Name == "size" || Name == "args" ||
         Name == "profile" || Name == "threaded_c";
}

/// A JSON scalar as the option table's textual value form: strings pass
/// through, numbers print in decimal, booleans map to on/off (the table's
/// boolean spelling). Containers are rejected.
bool scalarToOptionValue(const json::Value &V, std::string &Out,
                         std::string &Err) {
  switch (V.kind()) {
  case json::Value::Kind::String:
    Out = V.asString();
    return true;
  case json::Value::Kind::Number:
    // str() writes a non-finite number as null; the option's error message
    // should name the value it got.
    Out = std::isfinite(V.asNumber()) ? V.str() : std::to_string(V.asNumber());
    return true;
  case json::Value::Kind::Bool:
    Out = V.asBool() ? "on" : "off";
    return true;
  default:
    Err = "option value must be a string, number or boolean";
    return false;
  }
}

/// Builds the request pair for one protocol object: base requests (CLI +
/// environment defaults) with the object's option fields applied through
/// the shared table.
bool buildRequests(const json::Value &Obj, const ServeOptions &Opts,
                   CompileRequest &C, RunRequest &R, std::string &Err) {
  C = Opts.BaseCompile;
  R = Opts.BaseRun;

  // Source: inline text or a named workload.
  const json::Value *Source = Obj.find("source");
  const json::Value *WorkloadName = Obj.find("workload");
  if (Source && WorkloadName) {
    Err = "request has both \"source\" and \"workload\"";
    return false;
  }
  if (Source) {
    if (!Source->isString()) {
      Err = "\"source\" must be a string";
      return false;
    }
    C.Source = Source->asString();
  } else if (WorkloadName) {
    if (!WorkloadName->isString()) {
      Err = "\"workload\" must be a string";
      return false;
    }
    const Workload *W = findWorkload(WorkloadName->asString());
    if (!W) {
      Err = "unknown workload \"" + WorkloadName->asString() + "\"";
      return false;
    }
    std::string Size = Obj.getString("size", "small");
    if (Size == "small")
      C.Source = W->smallSource();
    else if (Size == "full")
      C.Source = W->Source;
    else {
      Err = "\"size\" must be \"small\" or \"full\"";
      return false;
    }
  }

  // Option fields through the shared declarative table.
  for (const json::Member &M : Obj.members()) {
    if (isProtocolField(M.first))
      continue;
    std::string Value;
    if (!scalarToOptionValue(M.second, Value, Err)) {
      Err = "field \"" + M.first + "\": " + Err;
      return false;
    }
    if (!applyRequestOption(C, R, M.first, Value, Err))
      return false;
  }

  // Entry arguments: an array of numbers (integers that fit int64 become
  // Int values, everything else Dbl).
  if (const json::Value *Args = Obj.find("args")) {
    if (!Args->isArray()) {
      Err = "\"args\" must be an array of numbers";
      return false;
    }
    R.Args.clear();
    for (const json::Value &A : Args->items()) {
      if (!A.isNumber()) {
        Err = "\"args\" must be an array of numbers";
        return false;
      }
      if (std::optional<int64_t> I = A.asInt64())
        R.Args.push_back(RtValue::makeInt(*I));
      else
        R.Args.push_back(RtValue::makeDbl(A.asNumber()));
    }
  }
  return true;
}

json::Value rtValueToJson(const RtValue &V) {
  switch (V.K) {
  case RtValue::Kind::Int:
    return json::Value::integer(V.I);
  case RtValue::Kind::Dbl:
    return json::Value::number(V.D);
  case RtValue::Kind::Ptr:
    return json::Value::string("<ptr>");
  case RtValue::Kind::Undef:
    break;
  }
  return json::Value::null();
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

json::Value statsToJson(const ServiceStats &S) {
  json::Value O = json::Value::object();
  auto Put = [&O](const char *K, uint64_t V) {
    O.members().emplace_back(K, json::Value::number(static_cast<double>(V)));
  };
  Put("compile_requests", S.CompileRequests);
  Put("compile_executions", S.CompileExecutions);
  Put("compile_hits", S.CompileHits);
  Put("compile_waits", S.CompileWaits);
  Put("run_requests", S.RunRequests);
  Put("run_executions", S.RunExecutions);
  Put("run_hits", S.RunHits);
  Put("run_waits", S.RunWaits);
  Put("evictions", S.Evictions);
  Put("cache_bytes", S.CacheBytes);
  Put("cache_entries", S.CacheEntries);
  return O;
}

/// Serializes responses and writes them one per line. Requests complete on
/// arbitrary pool workers, so the stream and the in-flight count live
/// behind one mutex; shutdown waits for the count to reach zero. A response
/// is serialized before the lock is taken, so the lock covers only the
/// write itself.
class ResponseWriter {
public:
  explicit ResponseWriter(std::ostream &Out) : Out(Out) {}

  void beginRequest() {
    std::lock_guard<std::mutex> Lock(Mu);
    ++InFlight;
  }

  /// Writes \p Resp; \p Finished ends a request opened by beginRequest().
  void write(const json::Value &Resp, bool Finished = false) {
    std::string Line = Resp.str();
    Line += '\n';
    std::lock_guard<std::mutex> Lock(Mu);
    Out << Line;
    Out.flush();
    if (Finished && --InFlight == 0)
      Drained.notify_all();
  }

  void waitDrained() {
    std::unique_lock<std::mutex> Lock(Mu);
    Drained.wait(Lock, [this] { return InFlight == 0; });
  }

private:
  std::ostream &Out;
  std::mutex Mu;
  std::condition_variable Drained;
  size_t InFlight = 0;
};

json::Value makeError(const json::Value &Id, const std::string &Err) {
  json::Value Resp = json::Value::object();
  Resp.members().emplace_back("id", Id);
  Resp.members().emplace_back("ok", json::Value::boolean(false));
  Resp.members().emplace_back("error", json::Value::string(Err));
  return Resp;
}

} // namespace

size_t earthcc::runServeLoop(std::istream &In, std::ostream &Out,
                             const ServeOptions &Opts) {
  // Unless the caller wired a specific registry, the serve loop records
  // into the process-wide one — the same registry the pipeline stages and
  // engines already use — so the "metrics" op exposes cache counters and
  // per-stage latency histograms from one coherent snapshot.
  ServiceConfig SC = Opts.Service;
  if (!SC.Metrics)
    SC.Metrics = &MetricsRegistry::global();
  CompileService Service(SC);
  ResponseWriter Writer(Out);
  // A tied input stream flushes its tie before each read, and that flush
  // would write Out outside the writer's lock while workers write it.
  // Untie In for the loop; the tie comes back on every exit.
  struct TieRestore {
    std::istream &In;
    std::ostream *Tie;
    ~TieRestore() { In.tie(Tie); }
  } Untied{In, In.tie(nullptr)};
  size_t Handled = 0;
  std::string Line;

  while (std::getline(In, Line)) {
    if (Line.empty() ||
        Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;

    json::Value Obj;
    std::string Err;
    if (!json::parse(Line, Obj, Err)) {
      Writer.write(makeError(json::Value::null(), "parse error: " + Err));
      continue;
    }
    if (!Obj.isObject()) {
      Writer.write(makeError(json::Value::null(), "request must be an object"));
      continue;
    }
    json::Value Id = Obj.find("id") ? *Obj.find("id") : json::Value::null();
    std::string Op = Obj.getString("op", "run");
    ++Handled;

    if (Op == "ping") {
      json::Value Resp = json::Value::object();
      Resp.members().emplace_back("id", Id);
      Resp.members().emplace_back("ok", json::Value::boolean(true));
      Resp.members().emplace_back("op", json::Value::string("ping"));
      Writer.write(Resp);
      continue;
    }
    if (Op == "stats") {
      json::Value Resp = json::Value::object();
      Resp.members().emplace_back("id", Id);
      Resp.members().emplace_back("ok", json::Value::boolean(true));
      Resp.members().emplace_back("op", json::Value::string("stats"));
      Resp.members().emplace_back("stats", statsToJson(Service.stats()));
      Resp.members().emplace_back(
          "workers",
          json::Value::number(static_cast<double>(Service.numWorkers())));
      Writer.write(Resp);
      continue;
    }
    if (Op == "metrics") {
      // Live registry snapshot: service cache counters, per-stage pipeline
      // wall-ns histograms, engine dispatch totals. Handled inline like
      // "stats" — reads are lock-free against in-flight requests.
      json::Value Resp = json::Value::object();
      Resp.members().emplace_back("id", Id);
      Resp.members().emplace_back("ok", json::Value::boolean(true));
      Resp.members().emplace_back("op", json::Value::string("metrics"));
      Resp.members().emplace_back("metrics", Service.metrics().snapshot());
      Writer.write(Resp);
      continue;
    }
    if (Op == "shutdown") {
      Writer.waitDrained();
      json::Value Resp = json::Value::object();
      Resp.members().emplace_back("id", Id);
      Resp.members().emplace_back("ok", json::Value::boolean(true));
      Resp.members().emplace_back("op", json::Value::string("shutdown"));
      Resp.members().emplace_back("stats", statsToJson(Service.stats()));
      Writer.write(Resp);
      break;
    }
    if (Op != "run" && Op != "compile") {
      Writer.write(makeError(Id, "unknown op \"" + Op + "\""));
      continue;
    }

    CompileRequest CReq;
    RunRequest RReq;
    if (!buildRequests(Obj, Opts, CReq, RReq, Err)) {
      Writer.write(makeError(Id, Err));
      continue;
    }
    if (CReq.Source.empty()) {
      Writer.write(makeError(Id, "request needs \"source\" or \"workload\""));
      continue;
    }
    bool WantProfile = Obj.getBool("profile", false);
    bool WantThreadedC = Obj.getBool("threaded_c", false);
    // Only a run that answers with its profile records one.
    RReq.RecordProfile = WantProfile;

    Writer.beginRequest();
    if (Op == "compile") {
      Service.submitCompile(
          std::move(CReq), [&Writer, Id, WantThreadedC](CompileResponse R) {
            json::Value Resp = json::Value::object();
            Resp.members().emplace_back("id", Id);
            Resp.members().emplace_back("ok", json::Value::boolean(R.OK));
            Resp.members().emplace_back("op", json::Value::string("compile"));
            Resp.members().emplace_back("key", json::Value::string(R.Key));
            Resp.members().emplace_back("cache_hit",
                                        json::Value::boolean(R.CacheHit));
            Resp.members().emplace_back("wall_ns",
                                        json::Value::number(R.WallNs));
            if (!R.OK)
              Resp.members().emplace_back("messages",
                                          json::Value::string(R.Messages));
            if (R.OK && WantThreadedC && R.Artifact)
              Resp.members().emplace_back(
                  "threaded_c", json::Value::string(R.Artifact->ThreadedC));
            Writer.write(Resp, /*Finished=*/true);
          });
    } else {
      Service.submitRun(
          std::move(CReq), std::move(RReq),
          [&Writer, Id, WantProfile, WantThreadedC](RunResponse R) {
            json::Value Resp = json::Value::object();
            Resp.members().emplace_back("id", Id);
            Resp.members().emplace_back("ok", json::Value::boolean(R.OK));
            Resp.members().emplace_back("op", json::Value::string("run"));
            Resp.members().emplace_back("key", json::Value::string(R.Key));
            Resp.members().emplace_back(
                "compile_key", json::Value::string(R.CompileKey));
            Resp.members().emplace_back("cache_hit",
                                        json::Value::boolean(R.CacheHit));
            Resp.members().emplace_back(
                "compile_cache_hit",
                json::Value::boolean(R.CompileCacheHit));
            Resp.members().emplace_back("wall_ns",
                                        json::Value::number(R.WallNs));
            if (!R.OK) {
              Resp.members().emplace_back("error",
                                          json::Value::string(R.Error));
              Writer.write(Resp, /*Finished=*/true);
              return;
            }
            const SimArtifact &S = *R.Sim;
            Resp.members().emplace_back("time_ns",
                                        json::Value::number(S.TimeNs));
            Resp.members().emplace_back("exit", rtValueToJson(S.ExitValue));
            Resp.members().emplace_back(
                "steps",
                json::Value::number(static_cast<double>(S.StepsExecuted)));
            Resp.members().emplace_back("counters",
                                        countersToJson(S.Counters));
            json::Value OutLines = json::Value::array();
            for (const std::string &L : S.Output)
              OutLines.items().push_back(json::Value::string(L));
            Resp.members().emplace_back("output", OutLines);
            if (WantProfile && !S.ProfileJson.empty()) {
              json::Value Profile;
              std::string PErr;
              if (json::parse(S.ProfileJson, Profile, PErr))
                Resp.members().emplace_back("comm_profile", Profile);
            }
            if (WantThreadedC && R.Artifact)
              Resp.members().emplace_back(
                  "threaded_c", json::Value::string(R.Artifact->ThreadedC));
            Writer.write(Resp, /*Finished=*/true);
          });
    }
  }

  // EOF without shutdown: drain before the service (and its pool) die so
  // every accepted request still gets its response line.
  Writer.waitDrained();
  return Handled;
}
