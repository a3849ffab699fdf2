//===- bench_table1.cpp - Reproduces the paper's evaluation ---------------===//
//
// Part of the earthcc project.
//
// Prints every simulated figure of the paper's evaluation, in this order:
//
//  - Table I: cost of communication on EARTH-MANNA, sequential vs
//    pipelined, for remote reads, remote writes and blkmovs. We measure
//    the *simulated* machine end-to-end, by compiling and running small
//    EARTH-C microbenchmarks:
//      - sequential: each operation's result is consumed immediately (a
//        dependent chain), so every operation pays the full round trip;
//      - pipelined: operations are issued back-to-back and synchronized
//        at the end, so the per-operation cost is the EU issue cost.
//    The numbers must match the paper's table (the cost model is
//    calibrated to it); this harness verifies the simulator delivers them.
//  - The pipelined-vs-blocked crossover, the communication profile of
//    optimized health and a topology sweep.
//  - Table II (benchmark programs), Figure 10 (dynamic communication
//    counts, simple vs optimized, on 4 nodes) and Table III (sequential,
//    simple and optimized times and speedups on 1-16 processors).
//  - Three ablations of the design choices DESIGN.md calls out.
//
// The workload sections read from one set of (workload, compile options,
// machine) configurations, each compiled and run once (class Configs).
// Every run's exit value must equal the workload's sequential run; a
// failed compile, run or microbenchmark, or a mismatch, exits 1 without
// writing the artifact.
//
// `--json OUT` also writes the BENCH_comm.json artifact: every figure
// printed here except the crossover table, plus the optimized-health
// communication profile and the trace counters of the microbenchmarks.
// Every figure is simulated, so the file is byte-identical on every host
// and build: the bench_comm_json test diffs it against the committed copy,
// and bench/render_experiments.py renders EXPERIMENTS.md's numbers from it.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/ProfileReport.h"
#include "support/CommProfiler.h"
#include "support/Json.h"
#include "support/TablePrinter.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

using namespace earthcc;

namespace {

/// Runs a 2-node microbenchmark and returns the per-op time over N ops,
/// subtracting the time of a calibration run with Ops0 operations. The
/// measured (non-calibration) run feeds \p Sink when one is given, so the
/// counter report reflects exactly the operations being timed.
double perOpTime(const std::string &Src, const std::string &SrcBase, int Ops,
                 TraceSink *Sink = nullptr) {
  Pipeline P(PipelineOptions::simple());
  MachineConfig MC;
  MC.NumNodes = 2;
  MC.Trace = Sink;
  RunResult Full = P.compileAndRun(Src, MC);
  MachineConfig BaseMC;
  BaseMC.NumNodes = 2;
  RunResult Base = P.compileAndRun(SrcBase, BaseMC);
  if (!Full.OK || !Base.OK)
    throw std::runtime_error("microbenchmark failed: " + Full.Error +
                             Base.Error);
  return (Full.TimeNs - Base.TimeNs) / Ops;
}

std::string readProgram(int Reps, bool Pipelined) {
  std::string Body;
  if (Pipelined) {
    // 8 independent reads per iteration, consumed after issue.
    Body = R"(
      t1 = r->a; t2 = r->b; t3 = r->c; t4 = r->d;
      t5 = r->e; t6 = r->f; t7 = r->g; t8 = r->h;
      s = s + t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8;
    )";
  } else {
    // A dependent chain: each read feeds the address of the next.
    Body = R"(
      p = q->self; p = p->self; p = p->self; p = p->self;
      p = p->self; p = p->self; p = p->self; p = p->self;
      q = p;
    )";
  }
  std::string Src = R"(
    struct rec { int a; int b; int c; int d; int e; int f; int g; int h; };
    struct cell { cell *self; int pad; };
    int main() {
      rec *r;
      cell *q; cell *p;
      int t1; int t2; int t3; int t4; int t5; int t6; int t7; int t8;
      int s; int i;
      r = pmalloc(sizeof(rec))@node(1);
      r->a = 1; r->b = 2; r->c = 3; r->d = 4;
      r->e = 5; r->f = 6; r->g = 7; r->h = 8;
      q = pmalloc(sizeof(cell))@node(1);
      q->self = q;
      q->pad = 0;
      s = 0;
      for (i = 0; i < )" + std::to_string(Reps) + R"(; i = i + 1) {
  )" + Body + R"(
      }
      return s % 1000;
    }
  )";
  return Src;
}

std::string writeProgram(int Reps) {
  // 8 independent split-phase writes per iteration (pipelined).
  return R"(
    struct rec { int a; int b; int c; int d; int e; int f; int g; int h; };
    int main() {
      rec *r;
      int i;
      r = pmalloc(sizeof(rec))@node(1);
      for (i = 0; i < )" + std::to_string(Reps) + R"(; i = i + 1) {
        r->a = i; r->b = i; r->c = i; r->d = i;
        r->e = i; r->f = i; r->g = i; r->h = i;
      }
      return 0;
    }
  )";
}

/// The (workload, compile options, machine) configurations the workload
/// sections read, each compiled and run once. A compile is identified by
/// its CompileRequest key bytes and a run by those plus its RunRequest key
/// bytes: the identity the compile service caches artifacts by.
class Configs {
public:
  /// The compile of \p W under \p Opts (whose Source is ignored).
  const CompileResult &compiled(const Workload &W, CompileRequest Opts) {
    Opts.Source = W.Source;
    auto [It, New] = Compiles.try_emplace(Opts.keyBytes());
    if (New) {
      It->second = Pipeline().compile(Opts);
      if (!It->second.OK)
        throw std::runtime_error(W.Name + ": compile failed: " +
                                 It->second.Messages);
    }
    return It->second;
  }

  /// \p W compiled under \p Opts and run on \p Nodes nodes of \p Topo;
  /// \p Nodes == 0 selects the sequential-C baseline, which every other
  /// run's exit value must equal. \p Profiler, when given, observes the
  /// run, so the configuration must not have run before.
  const RunResult &run(const Workload &W, const CompileRequest &Opts,
                       unsigned Nodes, Topology Topo = Topology::Ideal,
                       CommProfiler *Profiler = nullptr) {
    CompileRequest C = Opts;
    C.Source = W.Source;
    RunRequest Req;
    Req.SequentialMode = Nodes == 0;
    Req.NumNodes = Nodes;
    Req.Topo = Topo;
    Req.Profiler = Profiler;
    std::string Key = C.keyBytes() + Req.keyBytes();
    if (auto It = Runs.find(Key); It != Runs.end()) {
      if (Profiler)
        throw std::logic_error("a profiled configuration ran before");
      return It->second;
    }
    RunResult R = Pipeline().run(compiled(W, Opts), Req);
    std::string Where = W.Name + " on " + std::to_string(Req.nodes()) + " " +
                        topologyName(Topo) + " nodes";
    if (!R.OK)
      throw std::runtime_error(Where + ": run failed: " + R.Error);
    if (!Req.SequentialMode &&
        R.ExitValue.I != run(W, CompileRequest::simple(""), 0).ExitValue.I)
      throw std::runtime_error(Where +
                               ": exit value differs from the sequential run");
    return Runs.emplace(Key, std::move(R)).first->second;
  }

private:
  std::map<std::string, CompileResult> Compiles;
  std::map<std::string, RunResult> Runs;
};

/// A named compile configuration: one row label of the ablation tables.
struct Config {
  std::string Name;
  CompileRequest Opts;
};

template <typename EditFn> Config config(std::string Name, EditFn Edit) {
  Config C{std::move(Name), {}};
  Edit(C.Opts);
  return C;
}

/// Accumulates `[a, b, ...]` for the artifact.
struct JsonList {
  std::string S = "[";
  void add(const std::string &Item) { S += (S.size() > 1 ? ", " : "") + Item; }
  std::string str() const { return S + "]"; }
};

std::string ns(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  return Buf;
}

std::string ms(double Ns) { return TablePrinter::fmt(Ns / 1e6, 2); }

/// Paper values as EXPERIMENTS.md transcribes them: Figure 10's optimized
/// totals (simple = 100) read off the bars, and Table III's improvement at
/// 1, 4 and 16 processors.
const char *const PaperFig10 =
    R"({"normalized": {"power": 55, "perimeter": 70, "tsp": 75, )"
    R"("health": 97, "voronoi": 85}})";
const char *const PaperTable3 =
    R"({"procs": [1, 4, 16], "improvement_pct": {)"
    R"("power": [1.48, 5.38, 7.07], "perimeter": [7.79, 10.19, 16.00], )"
    R"("tsp": [2.56, 4.93, 11.93], "health": [0.03, 7.33, 14.88], )"
    R"("voronoi": [6.74, 15.48, 15.38]}})";

int runBench(const std::string &JsonPath) {
  const int Reps = 1000;
  const CostModel &CM = EarthMannaCosts;

  // --json OUT: also aggregate the measured runs through the counter sink.
  CounterTraceSink Counters;
  TraceSink *Sink = JsonPath.empty() ? nullptr : &Counters;

  std::printf("Table I: Cost of communication on simulated EARTH-MANNA\n");
  std::printf("(microbenchmarks on 2 nodes, %d operations each; "
              "paper values: read 7109/1908, write 6458/1749, "
              "blkmov 9700/2602 ns)\n\n",
              Reps);

  // Reads. Sequential: 8 dependent reads per iteration.
  double SeqRead = perOpTime(readProgram(Reps / 8, false),
                             readProgram(0, false), Reps, Sink);
  double PipeRead = perOpTime(readProgram(Reps / 8, true),
                              readProgram(0, true), Reps, Sink);

  // Writes. EARTH writes are fire-and-forget (only fiber settlement waits
  // on them), so "sequential" write latency comes from the calibrated
  // analytic model; the pipelined issue cost is measured.
  double SeqWrite = CM.sequentialWrite();
  double PipeWrite =
      perOpTime(writeProgram(Reps / 8), writeProgram(0), Reps, Sink);

  // Blkmovs: the analytic one-word figures (validated in unit tests; the
  // optimizer benches measure multi-word blkmovs in context).
  double SeqBlk = CM.sequentialBlk(1);
  double PipeBlk = CM.BlkIssue;

  TablePrinter T({"EARTH operation", "Sequential (ns)", "Pipelined (ns)",
                  "paper seq", "paper pipe"});
  T.addRow({"Read word", TablePrinter::fmt(SeqRead, 0),
            TablePrinter::fmt(PipeRead, 0), "7109", "1908"});
  T.addRow({"Write word", TablePrinter::fmt(SeqWrite, 0),
            TablePrinter::fmt(PipeWrite, 0), "6458", "1749"});
  T.addRow({"Blkmov word", TablePrinter::fmt(SeqBlk, 0),
            TablePrinter::fmt(PipeBlk, 0), "9700", "2602"});
  T.print(std::cout);

  // The crossover the paper reports: blkmov wins at >= 3 words. The right
  // comparison is the completion time of the whole group (last word
  // available), i.e. pipelined issue costs plus one residual latency
  // versus a single block transfer.
  std::printf("\nPipelined-vs-blocked crossover "
              "(group completion latency):\n");
  TablePrinter X({"words moved", "K pipelined reads (ns)", "one blkmov (ns)",
                  "winner"});
  int Crossover = 0;
  for (int W = 1; W <= 6; ++W) {
    double Pipe =
        W * CM.ReadIssue + 2 * CM.NetDelay + CM.SUReadService;
    double Blk = CM.sequentialBlk(W);
    if (Blk < Pipe && Crossover == 0)
      Crossover = W;
    X.addRow({std::to_string(W), TablePrinter::fmt(Pipe, 0),
              TablePrinter::fmt(Blk, 0), Pipe < Blk ? "pipelined" : "blkmov"});
  }
  X.print(std::cout);
  std::printf("\n=> blocked transfer wins from %d words on "
              "(paper threshold: 3)\n",
              Crossover);

  Configs Runs;
  const CompileRequest Simple = CompileRequest::simple("");
  const CompileRequest Optimized;

  // Per-site communication profile of the largest Olden workload (health,
  // optimized, 4 nodes), joined with the optimizer remarks that created
  // each site. The profiler works in simulated time and observes the first
  // run of this configuration, so this block is identical on every host
  // and build.
  const Workload &Health = *findWorkload("health");
  CommProfiler Prof;
  Runs.run(Health, Optimized, 4, Topology::Ideal, &Prof);
  const CompileResult &ProfCR = Runs.compiled(Health, Optimized);
  std::printf("\nCommunication profile (health, optimized, 4 nodes):\n"
              "  %llu remote messages across %u sites\n",
              (unsigned long long)Prof.totalMsgs(), Prof.numSites());

  // Topology sweep: the paper's placement/selection wins were measured on
  // an ideal constant-latency network. Re-run simple vs optimized under
  // link contention (bus, torus2d) across machine sizes to see where the
  // win grows, shrinks, or inverts.
  std::printf("\nTopology sweep (simulated time, simple vs optimized):\n");
  TablePrinter TT({"workload", "topology", "nodes", "simple (us)",
                   "optimized (us)", "speedup"});
  JsonList Topo;
  for (const char *WName : {"health", "power"}) {
    for (Topology Net : {Topology::Ideal, Topology::Bus, Topology::Torus2D}) {
      for (unsigned Nodes : {4u, 16u, 64u}) {
        const Workload &W = *findWorkload(WName);
        double S = Runs.run(W, Simple, Nodes, Net).TimeNs;
        double O = Runs.run(W, Optimized, Nodes, Net).TimeNs;
        TT.addRow({WName, topologyName(Net), std::to_string(Nodes),
                   TablePrinter::fmt(S / 1e3, 1), TablePrinter::fmt(O / 1e3, 1),
                   TablePrinter::fmt(O > 0 ? S / O : 0.0, 2) + "x"});
        // The artifact's sweep: simulated end-to-end time for the simple vs
        // optimized program versions under contention. speedup is the
        // paper's optimization win at that (topology, nodes) point;
        // comparing a row against its ideal sibling shows whether
        // contention grows, shrinks, or inverts the win.
        char Buf[256];
        std::snprintf(Buf, sizeof(Buf),
                      "{\"workload\": \"%s\", \"topology\": \"%s\", "
                      "\"nodes\": %u, \"simple_ns\": %.0f, "
                      "\"optimized_ns\": %.0f, \"speedup\": %.4f}",
                      WName, topologyName(Net), Nodes, S, O,
                      O > 0 ? S / O : 0.0);
        Topo.add(Buf);
      }
    }
  }
  TT.print(std::cout);

  std::printf("\nTable II: Benchmark programs\n\n");
  TablePrinter T2({"Benchmark", "Description", "Paper size", "Our size",
                   "Dominant optimization"});
  JsonList Table2;
  for (const Workload &W : oldenWorkloads()) {
    T2.addRow({W.Name, W.Description, W.PaperSize, W.OurSize,
               W.Optimization});
    Table2.add("{\"benchmark\": " + json::quote(W.Name) +
               ", \"description\": " + json::quote(W.Description) +
               ", \"paper_size\": " + json::quote(W.PaperSize) +
               ", \"our_size\": " + json::quote(W.OurSize) +
               ", \"optimization\": " + json::quote(W.Optimization) + "}");
  }
  T2.print(std::cout);

  const unsigned Nodes = 4;
  auto counts = [](const RunResult &R) {
    return "{\"read\": " + std::to_string(R.Counters.ReadData) +
           ", \"write\": " + std::to_string(R.Counters.WriteData) +
           ", \"blkmov\": " + std::to_string(R.Counters.BlkMov) + "}";
  };
  std::printf("\nFigure 10: dynamic communication counts on %u nodes\n"
              "(normalized: simple version = 100; counts are EARTH runtime "
              "operations)\n\n",
              Nodes);
  TablePrinter F({"Benchmark", "version", "read-data", "write-data",
                  "blkmov", "total", "normalized"});
  JsonList Fig10;
  for (const Workload &W : oldenWorkloads()) {
    const RunResult &S = Runs.run(W, Simple, Nodes);
    const RunResult &O = Runs.run(W, Optimized, Nodes);
    double Norm = 100.0 * O.Counters.total() /
                  static_cast<double>(S.Counters.total());
    F.addRow({W.Name, "simple", std::to_string(S.Counters.ReadData),
              std::to_string(S.Counters.WriteData),
              std::to_string(S.Counters.BlkMov),
              std::to_string(S.Counters.total()), "100.0"});
    F.addRow({"", "optimized", std::to_string(O.Counters.ReadData),
              std::to_string(O.Counters.WriteData),
              std::to_string(O.Counters.BlkMov),
              std::to_string(O.Counters.total()),
              TablePrinter::fmt(Norm, 1)});
    F.addRule();
    Fig10.add("{\"benchmark\": \"" + W.Name + "\", \"simple\": " + counts(S) +
              ", \"optimized\": " + counts(O) + "}");
  }
  F.print(std::cout);
  std::printf("\nExpected shape (paper): total communication drops for every "
              "benchmark;\nread-data and write-data fall while blkmov rises "
              "(scalar operations\nare combined into block transfers).\n");

  const unsigned Procs[] = {1, 2, 4, 8, 16};
  std::printf("\nTable III: performance improvement results\n"
              "(simulated EARTH-MANNA; times in simulated milliseconds)\n\n");
  TablePrinter T3({"Benchmark", "procs", "Sequential C (ms)", "Simple (ms)",
                   "Optimized (ms)", "Simple speedup", "Optimized speedup",
                   "Optimized vs Simple (%impr)"});
  JsonList Table3;
  for (const Workload &W : oldenWorkloads()) {
    double Seq = Runs.run(W, Simple, 0).TimeNs;
    JsonList SimpleNs, OptNs;
    for (unsigned N : Procs) {
      double S = Runs.run(W, Simple, N).TimeNs;
      double O = Runs.run(W, Optimized, N).TimeNs;
      T3.addRow({N == 1 ? W.Name : "",
                 std::to_string(N) + (N == 1 ? " proc" : " procs"),
                 N == 1 ? ms(Seq) : "", ms(S), ms(O),
                 TablePrinter::fmt(Seq / S, 2), TablePrinter::fmt(Seq / O, 2),
                 TablePrinter::fmt(100.0 * (S - O) / S, 2)});
      SimpleNs.add(ns(S));
      OptNs.add(ns(O));
    }
    T3.addRule();
    Table3.add("{\"benchmark\": \"" + W.Name + "\", \"sequential_ns\": " +
               ns(Seq) + ", \"simple_ns\": " + SimpleNs.str() +
               ", \"optimized_ns\": " + OptNs.str() + "}");
  }
  T3.print(std::cout);
  std::printf(
      "\nExpected shape (paper): communication optimization improves every\n"
      "benchmark, and the improvement generally grows with the processor\n"
      "count (paper band: ~2%% to ~16%%; perimeter/tsp/voronoi high,\n"
      "health/power low at small machine sizes).\n");

  // Ablations on 4 nodes: power is blocking-dominated and health is
  // pipelining/redundancy-dominated. Redundancy elimination acts on its own
  // only when read motion is off, and perimeter is the workload on which
  // that row differs from the simple version, so the component sweep runs
  // it too.
  const Config SimpleRow{"simple (no comm-opt)", Simple};
  std::vector<Config> Thresholds = {SimpleRow};
  for (unsigned Th = 1; Th <= 6; ++Th)
    Thresholds.push_back(
        config("block threshold = " + std::to_string(Th),
               [Th](CompileRequest &C) { C.BlockThresholdWords = Th; }));
  struct Sweep {
    const char *Id, *Title;
    std::vector<const char *> Benches;
    std::vector<Config> Configs;
  };
  const std::vector<Sweep> Sweeps = {
      {"threshold",
       "Ablation 1: pipelining-vs-blocking threshold (paper: 3 words)",
       {"power", "health"},
       Thresholds},
      {"components",
       "Ablation 2: optimization components disabled in turn (plus "
       "locality inference on top)",
       {"power", "health", "perimeter"},
       {SimpleRow, Config{"full optimization", Optimized},
        config("no read motion (at-use placement)",
               [](CompileRequest &C) { C.EnableReadMotion = false; }),
        config("no blocking (pipelined only)",
               [](CompileRequest &C) { C.EnableBlocking = false; }),
        config("redundancy elimination only",
               [](CompileRequest &C) {
                 C.EnableReadMotion = false;
                 C.EnableBlocking = false;
                 C.EnableWriteBlocking = false;
               }),
        config("no write blocking",
               [](CompileRequest &C) { C.EnableWriteBlocking = false; }),
        config("locality inference + full optimization",
               [](CompileRequest &C) { C.InferLocality = true; })}},
      {"conditional_reads", "Ablation 3: hoisting reads out of conditionals",
       {"power", "health"},
       {SimpleRow, Config{"optimistic conditional reads (paper)", Optimized},
        config("pessimistic (no hoist out of branches)",
               [](CompileRequest &C) {
                 C.Placement.OptimisticConditionalReads = false;
               })}},
  };
  JsonList Ablations;
  for (const Sweep &Sw : Sweeps) {
    std::printf("\n%s (on %u nodes)\n\n", Sw.Title, Nodes);
    TablePrinter TA({"configuration", "benchmark", "time (ms)", "total ops",
                     "read", "write", "blkmov", "impr vs simple (%)"});
    JsonList Rows;
    for (const char *Name : Sw.Benches) {
      const Workload &W = *findWorkload(Name);
      double SimpleNs = Runs.run(W, Simple, Nodes).TimeNs;
      for (const Config &C : Sw.Configs) {
        const RunResult &R = Runs.run(W, C.Opts, Nodes);
        TA.addRow({C.Name, Name, ms(R.TimeNs),
                   std::to_string(R.Counters.total()),
                   std::to_string(R.Counters.ReadData),
                   std::to_string(R.Counters.WriteData),
                   std::to_string(R.Counters.BlkMov),
                   TablePrinter::fmt(100.0 * (SimpleNs - R.TimeNs) / SimpleNs,
                                     2)});
        Rows.add("{\"config\": \"" + C.Name + "\", \"benchmark\": \"" + Name +
                 "\", \"time_ns\": " + ns(R.TimeNs) + ", \"counts\": " +
                 counts(R) + "}");
      }
      TA.addRule();
    }
    TA.print(std::cout);
    Ablations.add(std::string("{\"id\": \"") + Sw.Id + "\", \"title\": \"" +
                  Sw.Title + "\", \"rows\": " + Rows.str() + "}");
  }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
      return 1;
    }
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "{\n"
                  "  \"bench\": \"table1\",\n"
                  "  \"nodes\": 2,\n"
                  "  \"ops_per_microbench\": %d,\n"
                  "  \"read_seq_ns\": %.1f, \"read_pipe_ns\": %.1f,\n"
                  "  \"write_seq_ns\": %.1f, \"write_pipe_ns\": %.1f,\n"
                  "  \"blkmov_seq_ns\": %.1f, \"blkmov_pipe_ns\": %.1f,\n"
                  "  \"blocking_crossover_words\": %d,\n",
                  Reps, SeqRead, PipeRead, SeqWrite, PipeWrite, SeqBlk,
                  PipeBlk, Crossover);
    Out << Buf;
    Out << "  \"paper\": {\"read_seq_ns\": 7109, \"read_pipe_ns\": 1908, "
           "\"write_seq_ns\": 6458, \"write_pipe_ns\": 1749, "
           "\"blkmov_seq_ns\": 9700, \"blkmov_pipe_ns\": 2602, "
           "\"blocking_crossover_words\": 3},\n";
    Out << "  \"comm_profile\": "
        << profileReportJson(*ProfCR.M, Prof, &ProfCR.Remarks) << ",\n";
    Out << "  \"topology\": {\"workloads\": [\"health\", \"power\"], "
        << "\"topologies\": [\"ideal\", \"bus\", \"torus2d\"], "
        << "\"nodes\": [4, 16, 64], \"sweep\": " << Topo.str() << "},\n";
    Out << "  \"table2\": " << Table2.str() << ",\n";
    Out << "  \"fig10\": {\"nodes\": " << Nodes
        << ", \"rows\": " << Fig10.str() << ", \"paper\": " << PaperFig10
        << "},\n";
    Out << "  \"table3\": {\"procs\": [1, 2, 4, 8, 16], \"rows\": "
        << Table3.str() << ", \"paper\": " << PaperTable3 << "},\n";
    Out << "  \"ablations\": {\"nodes\": " << Nodes
        << ", \"sweeps\": " << Ablations.str() << "},\n";
    Out << "  \"counters\": " << Counters.stats().json() << "\n}\n";
    std::printf("\nwrote counter report to %s\n", JsonPath.c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // --json OUT is the only flag.
  if (argc != 1 && (argc != 3 || std::string(argv[1]) != "--json" ||
                    !*argv[2])) {
    std::fprintf(stderr, "usage: bench_table1 [--json OUT]\n");
    return 2;
  }
  try {
    return runBench(argc == 3 ? argv[2] : "");
  } catch (const std::exception &E) {
    std::fprintf(stderr, "bench_table1: %s\n", E.what());
    return 1;
  }
}
