//===- Request.cpp - Immutable compile/run request values ------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "driver/Request.h"

#include <cstdio>
#include <cstdlib>

using namespace earthcc;

//===----------------------------------------------------------------------===//
// Canonical key serialization
//===----------------------------------------------------------------------===//

namespace {

/// Builds the canonical key bytes: `name=value;` records with doubles at
/// full precision and strings length-prefixed (so no value can forge a
/// field boundary). Field order is fixed by the emitting code and the
/// leading version tag changes whenever the schema does — two keys compare
/// equal iff they were produced by the same schema from identical fields.
class KeyWriter {
public:
  explicit KeyWriter(const char *Tag) { Bytes += std::string(Tag) + ";"; }

  void boolean(const char *Name, bool V) {
    Bytes += std::string(Name) + "=" + (V ? "1" : "0") + ";";
  }
  void integer(const char *Name, uint64_t V) {
    Bytes += std::string(Name) + "=" + std::to_string(V) + ";";
  }
  void real(const char *Name, double V) {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Bytes += std::string(Name) + "=" + Buf + ";";
  }
  void text(const char *Name, const std::string &V) {
    Bytes += std::string(Name) + "=" + std::to_string(V.size()) + ":" + V +
             ";";
  }

  std::string take() { return std::move(Bytes); }

private:
  std::string Bytes;
};

} // namespace

uint64_t earthcc::hashKeyBytes(std::string_view Bytes) {
  // FNV-1a, 64-bit.
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string earthcc::keyBytesToHex(uint64_t Key) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)Key);
  return Buf;
}

CompileRequest CompileRequest::simple(std::string Source) {
  CompileRequest R;
  R.Source = std::move(Source);
  R.Optimize = false;
  return R;
}

CompileRequest CompileRequest::optimized(std::string Source) {
  CompileRequest R;
  R.Source = std::move(Source);
  return R;
}

std::string CompileRequest::keyBytes() const {
  KeyWriter W("earthcc-compile-v2"); // v2: fixed paper constants dropped
  W.boolean("optimize", Optimize);
  W.boolean("locality", InferLocality);
  W.boolean("read-motion", EnableReadMotion);
  W.boolean("blocking", EnableBlocking);
  W.boolean("redundancy-elim", EnableRedundancyElim);
  W.boolean("write-blocking", EnableWriteBlocking);
  W.integer("block-threshold", BlockThresholdWords);
  W.boolean("optimistic-cond", Placement.OptimisticConditionalReads);
  // LowerThreads and PassThreads are intentionally absent: lowering and the
  // placement/selection passes produce bit-identical output at every thread
  // count, so neither can change the artifact.
  W.text("source", Source);
  return W.take();
}

uint64_t CompileRequest::key() const { return hashKeyBytes(keyBytes()); }
std::string CompileRequest::keyHex() const { return keyBytesToHex(key()); }

std::string RunRequest::keyBytes() const {
  KeyWriter W("earthcc-run-v5"); // v5: the fixed calibration dropped
  W.text("entry", Entry);
  W.integer("args", Args.size());
  for (const RtValue &A : Args) {
    switch (A.K) {
    case RtValue::Kind::Undef:
      W.text("arg", "undef");
      break;
    case RtValue::Kind::Int:
      W.integer("arg-int", static_cast<uint64_t>(A.I));
      break;
    case RtValue::Kind::Dbl:
      W.real("arg-dbl", A.D);
      break;
    case RtValue::Kind::Ptr:
      W.text("arg-ptr", A.P.str());
      break;
    }
  }
  W.integer("nodes", nodes());
  W.boolean("sequential", SequentialMode);
  // The topology is keyed because — unlike the engine — it changes the
  // *simulated* results: contention reorders completion times. The cost
  // calibration is not configuration (earth/CostModel.h), so it is not
  // keyed; a change to it comes with a new schema tag.
  W.text("topology", topologyName(Topo));
  W.integer("engine", static_cast<uint64_t>(Engine));
  W.integer("max-steps", MaxSteps);
  W.integer("quantum", EUQuantum);
  W.boolean("profile", RecordProfile);
  // Trace and Profiler are intentionally absent: instrumentation observes a
  // run without changing its result, so it must not change the cache key.
  return W.take();
}

//===----------------------------------------------------------------------===//
// Declarative option table
//===----------------------------------------------------------------------===//

bool earthcc::parseOnOff(const std::string &V, bool &Out) {
  if (V.empty() || V == "on" || V == "true" || V == "1") {
    Out = true;
    return true;
  }
  if (V == "off" || V == "false" || V == "0") {
    Out = false;
    return true;
  }
  return false;
}

bool earthcc::parseUnsignedValue(const std::string &V, unsigned &Out,
                                 std::string &Err, const char *What) {
  char *End = nullptr;
  unsigned long N = std::strtoul(V.c_str(), &End, 10);
  if (V.empty() || *End != '\0' || N > 0xFFFFFFFFul) {
    Err = std::string(What) + " expects a non-negative integer, got '" + V +
          "'";
    return false;
  }
  Out = static_cast<unsigned>(N);
  return true;
}

namespace {

bool badOnOff(const char *What, const std::string &V, std::string &Err) {
  Err = std::string(What) + " expects on|off, got '" + V + "'";
  return false;
}

} // namespace

const std::vector<RequestOption> &earthcc::requestOptions() {
  static const std::vector<RequestOption> Table = {
      {"nodes", "N", nullptr, "simulated machine size (default 4)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (!parseUnsignedValue(V, R.NumNodes, Err, "nodes"))
           return false;
         if (R.NumNodes == 0) {
           Err = "nodes must be >= 1";
           return false;
         }
         if (R.NumNodes > MaxSimNodes) {
           Err = "nodes must be <= " + std::to_string(MaxSimNodes) +
                 " (got " + V + ")";
           return false;
         }
         return true;
       }},
      {"topology", "ideal|bus|mesh2d|torus2d|fattree", "EARTHCC_TOPOLOGY",
       "interconnect topology (default ideal, the paper's constant-latency "
       "network; others model link contention and CHANGE simulated results)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (parseTopology(V, R.Topo))
           return true;
         Err = "unknown topology '" + V + "' (valid: " +
               std::string(topologyChoices()) + ")";
         return false;
       }},
      {"engine", "ast|bytecode", nullptr,
       "execution engine (identical simulated results; host speed only)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (V == "ast") {
           R.Engine = ExecEngine::AST;
           return true;
         }
         if (V == "bytecode") {
           R.Engine = ExecEngine::Bytecode;
           return true;
         }
         Err = "unknown engine '" + V + "' (ast|bytecode)";
         return false;
       }},
      {"lower-threads", "N", nullptr,
       "bytecode-lowering worker threads (0 = all hardware; output is "
       "identical)",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         return parseUnsignedValue(V, C.LowerThreads, Err, "lower-threads");
       }},
      {"pass-threads", "N", "EARTHCC_PASS_THREADS",
       "placement/comm-select worker threads, one function per task (0 = "
       "all hardware; output is identical)",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         return parseUnsignedValue(V, C.PassThreads, Err, "pass-threads");
       }},
      {"no-opt", nullptr, nullptr, "disable the communication optimization",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         bool On;
         if (!parseOnOff(V, On))
           return badOnOff("no-opt", V, Err);
         C.Optimize = !On;
         return true;
       }},
      {"locality", nullptr, nullptr,
       "run locality inference before optimization",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         return parseOnOff(V, C.InferLocality)
                    ? true
                    : badOnOff("locality", V, Err);
       }},
      {"seq", nullptr, nullptr,
       "sequential-C baseline (1 node, no EARTH operations, no "
       "optimization)",
       [](CompileRequest &C, RunRequest &R, const std::string &V,
          std::string &Err) {
         bool On;
         if (!parseOnOff(V, On))
           return badOnOff("seq", V, Err);
         R.SequentialMode = On;
         if (On) {
           C.Optimize = false;
           C.InferLocality = false;
         }
         return true;
       }},
      {"threshold", "W", nullptr,
       "blocking threshold in words (default 3, the paper's crossover)",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         return parseUnsignedValue(V, C.BlockThresholdWords, Err,
                                   "threshold");
       }},
      {"entry", "NAME", nullptr, "entry function (default main)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (V.empty()) {
           Err = "entry expects a function name";
           return false;
         }
         R.Entry = V;
         return true;
       }},
      {"quantum", "N", nullptr,
       "EU scheduling quantum in interpreter steps (0 disables preemption)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         return parseUnsignedValue(V, R.EUQuantum, Err, "quantum");
       }},
      {"max-steps", "N", nullptr, "interpreter fuel",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         char *End = nullptr;
         unsigned long long N = std::strtoull(V.c_str(), &End, 10);
         if (V.empty() || *End != '\0') {
           Err = "max-steps expects a non-negative integer, got '" + V + "'";
           return false;
         }
         R.MaxSteps = N;
         return true;
       }},
  };
  return Table;
}

bool earthcc::applyRequestOption(CompileRequest &C, RunRequest &R,
                                 std::string_view Name,
                                 const std::string &Value, std::string &Err) {
  for (const RequestOption &O : requestOptions())
    if (Name == O.Name)
      return O.Apply(C, R, Value, Err);
  Err = "unknown option '" + std::string(Name) + "'";
  return false;
}

bool earthcc::applyRequestEnv(CompileRequest &C, RunRequest &R,
                              std::string &Err) {
  for (const RequestOption &O : requestOptions()) {
    if (!O.Env)
      continue;
    const char *V = std::getenv(O.Env);
    if (!V)
      continue;
    std::string EnvErr;
    if (!O.Apply(C, R, V, EnvErr)) {
      Err = std::string(O.Env) + ": " + EnvErr;
      return false;
    }
  }
  return true;
}
