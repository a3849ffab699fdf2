//===- earthcc_main.cpp - The earthcc command-line driver ------------------===//
//
// Part of the earthcc project.
//
// Compiles an EARTH-C source file and runs it on the simulated EARTH-MANNA
// machine:
//
//   earthcc [options] program.ec
//   earthcc --serve               # JSON request server on stdin/stdout
//
// Every knob that shapes the compile or the simulated run comes from the
// declarative request-option table (driver/Request.h): each table entry is
// one `--name value` flag here, one `"name": value` field in a --serve
// request, and (where defined) one environment variable — all applied
// through the same setter, so the surfaces cannot drift. Run `earthcc
// --help` for the generated list.
//
// Flags owned by the CLI itself (output selection, not request content):
//
//   --serve             line-oriented JSON protocol on stdin/stdout; every
//                       request is served by the in-process CompileService
//                       (content-addressed artifact cache, single-flight
//                       dedup, worker pool)
//   --workers N         service worker threads for --serve (0 = all cores,
//                       at most 256)
//   --cache-mb N        service artifact-cache budget for --serve, in MiB
//                       (at most 1048576)
//   --dump-ir           print the SIMPLE program before execution
//   --dump-after-pass   print the SIMPLE program after every pipeline stage
//   --emit-threaded     print the generated Threaded-C program
//   --stats             print optimizer statistics and dynamic counters
//   --trace FILE        write a Chrome trace (chrome://tracing, Perfetto)
//   --profile[=json]    per-site communication profile: a table joining each
//                       comm site's optimizer remarks with its dynamic
//                       message counts / words / latency percentiles
//   --profile-diff A B  load two --profile=json files and print per-site
//                       deltas joined by (function, line, col, op)
//   --metrics[=json|prom]  dump the process metrics registry (cache and
//                       stage counters, latency histograms) at exit
//   --remarks           print the optimizer's structured remarks
//   --workload NAME     run an embedded Olden workload (power, perimeter,
//                       tsp, health, voronoi) instead of a source file
//
// Sample programs live in examples/programs/.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/ProfileData.h"
#include "driver/ProfileReport.h"
#include "service/Serve.h"
#include "simple/Printer.h"
#include "support/CommProfiler.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace earthcc;

static void usage(const char *Argv0) {
  std::fprintf(stderr, "usage: %s [options] program.ec\n", Argv0);
  std::fprintf(stderr, "       %s [options] --workload NAME\n", Argv0);
  std::fprintf(stderr, "       %s [options] --serve\n\n", Argv0);
  std::fprintf(stderr, "request options (CLI flag = --serve JSON field):\n");
  for (const RequestOption &O : requestOptions()) {
    std::string Flag = std::string("--") + O.Name;
    if (O.Value)
      Flag += std::string(" ") + O.Value;
    std::fprintf(stderr, "  %-22s %s%s%s%s\n", Flag.c_str(), O.Help,
                 O.Env ? " [env " : "", O.Env ? O.Env : "", O.Env ? "]" : "");
  }
  std::fprintf(stderr,
               "\ndriver options:\n"
               "  --serve                serve JSON requests on stdin/stdout\n"
               "  --workers N            --serve worker threads (0 = cores,\n"
               "                         at most 256)\n"
               "  --cache-mb N           --serve artifact cache budget (MiB,\n"
               "                         at most 1048576)\n"
               "  --workload NAME        embedded Olden benchmark\n"
               "  --dump-ir              print SIMPLE before execution\n"
               "  --dump-after-pass      print SIMPLE after each stage\n"
               "  --emit-threaded        print the generated Threaded-C\n"
               "  --stats                optimizer + dynamic statistics\n"
               "  --trace FILE           write a Chrome trace\n"
               "  --profile[=json]       per-site communication profile\n"
               "  --profile-diff A B     diff two --profile=json files per\n"
               "                         site and exit\n"
               "  --metrics[=json|prom]  host-side metrics snapshot at exit\n"
               "                         (bare flag prints both forms)\n"
               "  --remarks              print optimizer remarks\n");
}

static const RequestOption *findOption(const std::string &Name) {
  for (const RequestOption &O : requestOptions())
    if (Name == O.Name)
      return &O;
  return nullptr;
}

/// Prints the process metrics registry on stdout in the requested form(s).
/// Purely observational output: it runs after all results have been
/// produced, so it cannot perturb them.
static void emitMetrics(const std::string &Mode) {
  MetricsRegistry &Reg = MetricsRegistry::global();
  if (Mode == "json" || Mode == "both")
    std::printf("%s\n", Reg.snapshotJson().c_str());
  if (Mode == "prom" || Mode == "both")
    std::printf("%s", Reg.prometheusText().c_str());
}

/// `earthcc --profile-diff A.json B.json`: load both persisted profiles and
/// print the per-site delta table.
static int runProfileDiff(const std::string &PathA, const std::string &PathB) {
  auto ReadAll = [](const std::string &Path, std::string &Out) {
    std::ifstream In(Path);
    if (!In)
      return false;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out = Buf.str();
    return true;
  };
  std::string TextA, TextB, Err;
  ProfileData A, B;
  for (auto &[Path, Text, Data] :
       {std::tie(PathA, TextA, A), std::tie(PathB, TextB, B)}) {
    if (!ReadAll(Path, Text)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    if (!loadProfileJson(Text, Data, Err)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      return 1;
    }
  }
  std::printf("%s", renderProfileDiff(A, B, PathA, PathB).c_str());
  return 0;
}

int main(int argc, char **argv) {
  CompileRequest CReq;
  RunRequest RReq;
  std::string Err;
  if (!applyRequestEnv(CReq, RReq, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }

  bool Serve = false;
  unsigned Workers = 0;
  unsigned CacheMB = 256;
  bool DumpIR = false, DumpAfterPass = false, EmitThreaded = false;
  bool Stats = false, Profile = false, ProfileJson = false;
  bool PrintRemarks = false;
  std::string TracePath, Path, WorkloadName;
  std::string MetricsMode;           // "", "json", "prom" or "both"
  std::string DiffPathA, DiffPathB;  // --profile-diff operands

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (Arg.size() < 2 || Arg[0] != '-' || Arg[1] != '-') {
      if (!Arg.empty() && Arg[0] == '-') {
        usage(argv[0]);
        return 2;
      }
      Path = Arg;
      continue;
    }
    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    if (size_t Eq = Name.find('='); Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }
    auto NeedValue = [&]() {
      if (HasValue)
        return true;
      if (I + 1 < argc) {
        Value = argv[++I];
        return true;
      }
      std::fprintf(stderr, "error: --%s requires a value\n", Name.c_str());
      return false;
    };
    // A strict count with a fixed ceiling: each worker is an OS thread, and
    // the cache budget is shifted from MiB to bytes.
    auto NeedCount = [&](unsigned &Out, unsigned Max) {
      if (!NeedValue())
        return false;
      const std::string Flag = "--" + Name;
      if (!parseUnsignedValue(Value, Out, Err, Flag.c_str())) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return false;
      }
      if (Out > Max) {
        std::fprintf(stderr, "error: %s is at most %u, got %u\n",
                     Flag.c_str(), Max, Out);
        return false;
      }
      return true;
    };

    // Driver-local flags (output selection; not request content).
    if (Name == "serve") {
      Serve = true;
    } else if (Name == "workers") {
      if (!NeedCount(Workers, 256))
        return 2;
    } else if (Name == "cache-mb") {
      if (!NeedCount(CacheMB, 1u << 20))
        return 2;
    } else if (Name == "dump-ir") {
      DumpIR = true;
    } else if (Name == "dump-after-pass") {
      DumpAfterPass = true;
    } else if (Name == "emit-threaded") {
      EmitThreaded = true;
    } else if (Name == "stats") {
      Stats = true;
    } else if (Name == "profile") {
      Profile = true;
      ProfileJson = (Value == "json");
    } else if (Name == "metrics") {
      MetricsMode = HasValue ? Value : "both";
      if (MetricsMode != "json" && MetricsMode != "prom" &&
          MetricsMode != "both") {
        std::fprintf(stderr,
                     "error: --metrics takes 'json' or 'prom' (bare flag "
                     "prints both)\n");
        return 2;
      }
    } else if (Name == "profile-diff") {
      // Consumes two operands: the baseline and the comparison profile.
      if (!NeedValue())
        return 2;
      DiffPathA = Value;
      if (I + 1 >= argc) {
        std::fprintf(stderr,
                     "error: --profile-diff needs two profile files\n");
        return 2;
      }
      DiffPathB = argv[++I];
    } else if (Name == "remarks") {
      PrintRemarks = true;
    } else if (Name == "trace") {
      if (!NeedValue())
        return 2;
      TracePath = Value;
    } else if (Name == "workload") {
      if (!NeedValue())
        return 2;
      WorkloadName = Value;
    } else if (const RequestOption *Opt = findOption(Name)) {
      // A request knob: valued options consume the next argument; boolean
      // knobs apply "on" when bare.
      if (Opt->Value && !NeedValue())
        return 2;
      if (!applyRequestOption(CReq, RReq, Name, Value, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown option '--%s'\n", Name.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (!DiffPathA.empty())
    return runProfileDiff(DiffPathA, DiffPathB);

  if (Serve) {
    if (!Path.empty() || !WorkloadName.empty()) {
      std::fprintf(stderr, "error: --serve takes no program argument\n");
      return 2;
    }
    ServeOptions SO;
    SO.Service.Workers = Workers;
    SO.Service.CacheBudgetBytes = size_t(CacheMB) << 20;
    SO.BaseCompile = CReq; // process-wide defaults under each request
    SO.BaseRun = RReq;
    // The serve loop is the only stdin/stdout user until it returns, and
    // unsynced streams read request lines in bulk instead of one stdio call
    // per character. Every response line is flushed, so the metrics
    // printed below still follow the last one.
    std::ios::sync_with_stdio(false);
    runServeLoop(std::cin, std::cout, SO);
    if (!MetricsMode.empty())
      emitMetrics(MetricsMode);
    return 0;
  }

  if ((Path.empty() == WorkloadName.empty()) || RReq.NumNodes == 0) {
    usage(argv[0]);
    return 2;
  }

  if (!WorkloadName.empty()) {
    const Workload *W = findWorkload(WorkloadName);
    if (!W) {
      std::fprintf(stderr, "error: unknown workload '%s' (",
                   WorkloadName.c_str());
      const auto &All = oldenWorkloads();
      for (size_t I = 0; I != All.size(); ++I)
        std::fprintf(stderr, "%s%s", I ? ", " : "", All[I].Name.c_str());
      std::fprintf(stderr, ")\n");
      return 2;
    }
    CReq.Source = W->Source;
    Path = "workload:" + WorkloadName;
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    CReq.Source = Buf.str();
  }

  Pipeline P;
  ChromeTraceSink TraceSink;
  if (!TracePath.empty())
    P.setTraceSink(&TraceSink); // attached before compile: pass events too
  IRDumpObserver Dumper(std::cout);
  if (DumpAfterPass)
    P.addObserver(&Dumper);

  CompileResult CR = P.compile(CReq);
  if (!CR.OK) {
    std::fprintf(stderr, "%s", CR.Messages.c_str());
    return 1;
  }

  if (DumpIR)
    std::printf("%s\n", printModule(*CR.M).c_str());
  if (EmitThreaded)
    std::printf("%s", P.emitThreadedC(*CR.M).c_str());
  if (PrintRemarks)
    std::printf("%s", CR.Remarks.str().c_str());

  CommProfiler Prof;
  if (Profile)
    RReq.Profiler = &Prof;
  RunResult R = P.run(CR, RReq);
  for (const std::string &Line : R.Output)
    std::printf("%s\n", Line.c_str());
  if (!R.OK) {
    std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
    return 1;
  }

  if (Profile) {
    if (ProfileJson)
      std::printf("%s\n",
                  profileReportJson(*CR.M, Prof, &CR.Remarks).c_str());
    else
      std::printf("%s",
                  renderProfileReport(*CR.M, Prof, &CR.Remarks).c_str());
  }

  if (!TracePath.empty()) {
    std::ofstream TraceOut(TracePath);
    if (!TraceOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n", TracePath.c_str());
      return 1;
    }
    TraceSink.write(TraceOut);
    std::fprintf(stderr, "[trace: %zu events -> %s]\n",
                 TraceSink.events().size(), TracePath.c_str());
  }

  unsigned EffNodes = RReq.nodes();
  std::fprintf(stderr, "[%s: %.3f simulated ms on %u node%s]\n", Path.c_str(),
               R.TimeNs / 1e6, EffNodes, EffNodes == 1 ? "" : "s");
  if (Stats) {
    std::fprintf(stderr,
                 "[ops: read=%llu write=%llu blkmov=%llu atomic=%llu "
                 "local-fallback=%llu words-moved=%llu spawns=%llu]\n",
                 (unsigned long long)R.Counters.ReadData,
                 (unsigned long long)R.Counters.WriteData,
                 (unsigned long long)R.Counters.BlkMov,
                 (unsigned long long)R.Counters.Atomic,
                 (unsigned long long)R.Counters.LocalFallbacks,
                 (unsigned long long)R.Counters.WordsMoved,
                 (unsigned long long)R.Counters.Spawns);
    for (const StageReport &SR : P.stages())
      std::fprintf(stderr, "[stage %-12s %10.1f us]\n", SR.Name.c_str(),
                   SR.WallNs / 1e3);
    std::fprintf(stderr, "%s", CR.Stats.str().c_str());
  }
  if (!MetricsMode.empty())
    emitMetrics(MetricsMode);
  return static_cast<int>(R.ExitValue.asInt());
}
