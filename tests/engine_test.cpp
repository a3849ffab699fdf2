//===- engine_test.cpp - AST vs bytecode engine equivalence ---------------===//
//
// Part of the earthcc project.
//
// The bytecode engine must be an observationally perfect stand-in for the
// AST walker: for every workload, input size and machine size, both engines
// must produce the same simulated time, exit value, operation counters,
// step count, program output and byte-identical Chrome traces. These tests
// sweep all five Olden benchmarks at two input sizes and 1/2/4 nodes.
//
//===----------------------------------------------------------------------===//

#include "driver/ProfileReport.h"
#include "interp/Bytecode.h"
#include "interp/Lower.h"
#include "simple/Printer.h"
#include "support/CommProfiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace earthcc;

namespace {

/// One engine run's observable artifacts: the result, the serialized trace,
/// and the serialized per-site communication profile.
struct EngineRun {
  RunResult R;
  std::string Trace;
  std::string Profile;
};

/// Runs \p M under \p Engine with a fresh trace sink and profiler attached.
EngineRun runWith(Pipeline &P, const Module &M, MachineConfig MC,
                  ExecEngine Engine) {
  ChromeTraceSink Sink;
  CommProfiler Prof;
  MC.Engine = Engine;
  MC.Trace = &Sink;
  MC.Profiler = &Prof;
  RunResult R = P.run(M, MC);
  // The persisted report covers every site row, the traffic matrix and the
  // links; the network's injected-words matrix is compared alongside.
  std::string Profile = profileReportJson(M, Prof, nullptr);
  for (uint64_t W : Prof.netPairWords())
    Profile += " " + std::to_string(W);
  return {std::move(R), Sink.json(), std::move(Profile)};
}

/// Asserts two runtime values are the same value: the same kind, and equal
/// in the one field that kind selects (the other fields carry no meaning).
void expectSameValue(const RtValue &A, const RtValue &B,
                     const std::string &What) {
  ASSERT_EQ(A.K, B.K) << What;
  switch (A.K) {
  case RtValue::Kind::Undef:
    break;
  case RtValue::Kind::Int:
    EXPECT_EQ(A.I, B.I) << What;
    break;
  case RtValue::Kind::Dbl:
    EXPECT_DOUBLE_EQ(A.D, B.D) << What;
    break;
  case RtValue::Kind::Ptr:
    EXPECT_EQ(A.P, B.P) << What;
    break;
  }
}

/// Asserts the two engines' results are indistinguishable.
void expectIdentical(const EngineRun &Ast, const EngineRun &Bc,
                     const std::string &What) {
  const RunResult &A = Ast.R;
  const RunResult &B = Bc.R;
  ASSERT_EQ(A.OK, B.OK) << What << ": " << A.Error << " / " << B.Error;
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_DOUBLE_EQ(A.TimeNs, B.TimeNs) << What;
  expectSameValue(A.ExitValue, B.ExitValue, What + "/exit");
  EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
  EXPECT_EQ(A.Output, B.Output) << What;
  EXPECT_EQ(A.Counters.ReadData, B.Counters.ReadData) << What;
  EXPECT_EQ(A.Counters.WriteData, B.Counters.WriteData) << What;
  EXPECT_EQ(A.Counters.BlkMov, B.Counters.BlkMov) << What;
  EXPECT_EQ(A.Counters.Atomic, B.Counters.Atomic) << What;
  EXPECT_EQ(A.Counters.WordsMoved, B.Counters.WordsMoved) << What;
  EXPECT_EQ(A.Counters.LocalFallbacks, B.Counters.LocalFallbacks) << What;
  EXPECT_EQ(A.Counters.Spawns, B.Counters.Spawns) << What;
  EXPECT_EQ(A.Counters.CtxSwitches, B.Counters.CtxSwitches) << What;
  EXPECT_EQ(A.WordsPerNode, B.WordsPerNode) << What;
  EXPECT_EQ(Ast.Trace, Bc.Trace) << What << ": traces diverge";
  EXPECT_EQ(Ast.Profile, Bc.Profile) << What << ": comm profiles diverge";
}

class EngineEquivalenceTest : public ::testing::TestWithParam<std::string> {
protected:
  const Workload &workload() const {
    const Workload *W = findWorkload(GetParam());
    EXPECT_NE(W, nullptr);
    return *W;
  }

  /// workloadMachine(\p Mode, \p Nodes) on the topology EARTHCC_TOPOLOGY
  /// names, ideal when it is unset, so the sweep can be rerun on a routed
  /// network. An unknown name fails the test rather than running ideal.
  static MachineConfig machine(RunMode Mode, unsigned Nodes) {
    MachineConfig MC = workloadMachine(Mode, Nodes);
    if (const char *Topo = std::getenv("EARTHCC_TOPOLOGY")) {
      EXPECT_TRUE(parseTopology(Topo, MC.Topo))
          << "EARTHCC_TOPOLOGY: unknown topology '" << Topo << "'";
    }
    return MC;
  }

  /// Compiles \p Source once per mode and sweeps 1/2/4 nodes, comparing
  /// the AST engine against the bytecode engine at every configuration.
  void sweep(const std::string &Source, const std::string &SizeTag) {
    for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
      Pipeline P(workloadOptions(Mode));
      CompileResult CR = P.compile(Source);
      ASSERT_TRUE(CR.OK) << CR.Messages;
      for (unsigned Nodes : {1u, 2u, 4u}) {
        MachineConfig MC = machine(Mode, Nodes);
        std::string What = GetParam() + "/" + SizeTag +
                           (Mode == RunMode::Simple ? "/simple/" : "/opt/") +
                           std::to_string(Nodes) + "n";
        auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
        auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
        expectIdentical(Ast, Bc, What);
      }
    }
  }
};

TEST_P(EngineEquivalenceTest, FullSize) { sweep(workload().Source, "full"); }

TEST_P(EngineEquivalenceTest, SmallSize) {
  sweep(workload().smallSource(), "small");
}

// The sequential baseline exercises the no-EARTH code path (local accesses
// only, no spawn costs) — equivalence must hold there too.
TEST_P(EngineEquivalenceTest, SequentialBaseline) {
  Pipeline P(workloadOptions(RunMode::Sequential));
  CompileResult CR = P.compile(workload().Source);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  MachineConfig MC = machine(RunMode::Sequential, 1);
  auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
  auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
  expectIdentical(Ast, Bc, GetParam() + "/sequential");
}

// Preemption-boundary stress: quantum values that force slice expiry at
// different step phases must not break equivalence (the quantum counts
// interpreter steps, so this pins the one-instruction-per-step invariant).
TEST_P(EngineEquivalenceTest, QuantumSweep) {
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(workload().smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;
  for (unsigned Quantum : {1u, 2u, 3u, 17u, 0u}) {
    MachineConfig MC = machine(RunMode::Optimized, 4);
    MC.EUQuantum = Quantum;
    std::string What =
        GetParam() + "/quantum=" + std::to_string(Quantum);
    auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
    auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
    expectIdentical(Ast, Bc, What);
  }
}

// Topology axis: at every fixed topology the two engines must still be
// bit-identical — the network model mutates link state in event order, so
// this pins that both engines issue network transactions in the same order
// even under contention.
TEST_P(EngineEquivalenceTest, TopologyAxis) {
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(workload().smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;
  for (Topology Topo : {Topology::Bus, Topology::Mesh2D, Topology::Torus2D,
                        Topology::FatTree}) {
    MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
    MC.Topo = Topo;
    std::string What = GetParam() + "/topology=" + topologyName(Topo);
    auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
    auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
    expectIdentical(Ast, Bc, What);
  }
}

INSTANTIATE_TEST_SUITE_P(Olden, EngineEquivalenceTest,
                         ::testing::Values("power", "perimeter", "tsp",
                                           "health", "voronoi"),
                         [](const auto &Info) { return Info.param; });

// Lowering is cached on the Module: repeated bytecode runs must reuse one
// BytecodeModule instance rather than re-lowering per run.
TEST(EngineCacheTest, LoweringIsCachedAcrossRuns) {
  const Workload *W = findWorkload("power");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->Source);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  const BytecodeModule &First = getOrLowerBytecode(*CR.M);
  RunResult R = P.run(*CR.M, workloadMachine(RunMode::Optimized, 2));
  ASSERT_TRUE(R.OK) << R.Error;
  const BytecodeModule &Second = getOrLowerBytecode(*CR.M);
  EXPECT_EQ(&First, &Second) << "lowering must be memoized on the Module";
  EXPECT_EQ(First.M, CR.M.get());
}

/// Field-wise BcOperand equality (BcInsn holds pointers and padding, so
/// memcmp over the raw bytes would be both unsafe and too strict).
void expectSameOperand(const BcOperand &A, const BcOperand &B,
                       const std::string &What) {
  EXPECT_EQ(A.Kind, B.Kind) << What;
  EXPECT_EQ(A.Slot, B.Slot) << What;
  EXPECT_EQ(A.V, B.V) << What;
  expectSameValue(A.Const, B.Const, What + "/const");
}

/// Field-wise BcInsn equality between two lowerings of the SAME Module:
/// Src/V point into the shared IR and compare directly; Callee points into
/// each lowering's own BytecodeModule, so its identity is the source
/// Function it lowers.
void expectSameInsn(const BcInsn &A, const BcInsn &B, const std::string &What) {
  EXPECT_EQ(A.Op, B.Op) << What;
  EXPECT_EQ(A.RK, B.RK) << What;
  EXPECT_EQ(A.LK, B.LK) << What;
  EXPECT_EQ(A.Sub, B.Sub) << What;
  EXPECT_EQ(A.Loc, B.Loc) << What;
  EXPECT_EQ(A.Place, B.Place) << What;
  EXPECT_EQ(A.A, B.A) << What;
  EXPECT_EQ(A.B, B.B) << What;
  EXPECT_EQ(A.Off, B.Off) << What;
  EXPECT_EQ(A.Words, B.Words) << What;
  EXPECT_EQ(A.Dst, B.Dst) << What;
  EXPECT_EQ(A.Site, B.Site) << What;
  expectSameOperand(A.X, B.X, What + "/X");
  expectSameOperand(A.Y, B.Y, What + "/Y");
  EXPECT_EQ(A.Callee ? A.Callee->Fn : nullptr, B.Callee ? B.Callee->Fn : nullptr)
      << What;
  EXPECT_EQ(A.Src, B.Src) << What;
}

void expectSameStream(const std::vector<BcInsn> &A, const std::vector<BcInsn> &B,
                      const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I != A.size(); ++I)
    expectSameInsn(A[I], B[I], What + "[" + std::to_string(I) + "]");
}

// Parallel per-function lowering must be a pure host-speed knob: every
// thread count yields bit-identical bytecode (the stream, all pools, all
// inline caches) for the same module.
TEST(LowerThreadsTest, ParallelLoweringIsDeterministic) {
  const Workload *W = findWorkload("health");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->Source);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  std::shared_ptr<const BytecodeModule> Serial = lowerModule(*CR.M, 1);
  for (unsigned Threads : {4u, 0u}) {
    std::shared_ptr<const BytecodeModule> Par = lowerModule(*CR.M, Threads);
    std::string Tag = "threads=" + std::to_string(Threads);
    ASSERT_EQ(Serial->Funcs.size(), Par->Funcs.size()) << Tag;
    EXPECT_EQ(Serial->SharedGlobals, Par->SharedGlobals) << Tag;
    EXPECT_EQ(Serial->NumSites, Par->NumSites) << Tag;
    for (size_t F = 0; F != Serial->Funcs.size(); ++F) {
      const BytecodeFunction &A = *Serial->Funcs[F];
      const BytecodeFunction &B = *Par->Funcs[F];
      std::string What = Tag + "/" + A.Fn->name();
      EXPECT_EQ(A.Fn, B.Fn) << What;
      EXPECT_EQ(A.FrameWords, B.FrameWords) << What;
      EXPECT_EQ(A.ParamSlots, B.ParamSlots) << What;
      EXPECT_EQ(A.ParamWordOffs, B.ParamWordOffs) << What;
      EXPECT_EQ(A.SharedCellOffs, B.SharedCellOffs) << What;
      EXPECT_EQ(A.CasePool, B.CasePool) << What;
      EXPECT_EQ(A.BranchPool, B.BranchPool) << What;
      EXPECT_EQ(A.JumpTables, B.JumpTables) << What;
      EXPECT_EQ(A.JumpPool, B.JumpPool) << What;
      ASSERT_EQ(A.Slots.size(), B.Slots.size()) << What;
      for (size_t S = 0; S != A.Slots.size(); ++S) {
        EXPECT_EQ(A.Slots[S].WordOff, B.Slots[S].WordOff) << What;
        EXPECT_EQ(A.Slots[S].Words, B.Slots[S].Words) << What;
        EXPECT_EQ(A.Slots[S].SharedCell, B.Slots[S].SharedCell) << What;
        EXPECT_EQ(A.Slots[S].V, B.Slots[S].V) << What;
      }
      ASSERT_EQ(A.ArgPool.size(), B.ArgPool.size()) << What;
      for (size_t I = 0; I != A.ArgPool.size(); ++I)
        expectSameOperand(A.ArgPool[I], B.ArgPool[I], What + "/argpool");
      expectSameStream(A.Code, B.Code, What + "/code");
    }
  }
}

// End to end through the Pipeline option: a parallel-lowered compile must
// run to exactly the same simulated result and trace as a serial one.
TEST(LowerThreadsTest, PipelineRunsIdenticalAtAnyThreadCount) {
  const Workload *W = findWorkload("power");
  ASSERT_NE(W, nullptr);
  PipelineOptions SerialOpts = workloadOptions(RunMode::Optimized);
  SerialOpts.LowerThreads = 1;
  PipelineOptions ParOpts = workloadOptions(RunMode::Optimized);
  ParOpts.LowerThreads = 4;
  Pipeline PS(SerialOpts), PP(ParOpts);
  CompileResult CS = PS.compile(W->Source);
  CompileResult CP = PP.compile(W->Source);
  ASSERT_TRUE(CS.OK) << CS.Messages;
  ASSERT_TRUE(CP.OK) << CP.Messages;
  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  auto A = runWith(PS, *CS.M, MC, ExecEngine::Bytecode);
  auto B = runWith(PP, *CP.M, MC, ExecEngine::Bytecode);
  expectIdentical(A, B, "lower-threads 1 vs 4");
}

// The pass-threads contract, pinned the same way the lower-threads one is:
// the placement/comm-select fan-out is a pure host-speed knob. Every thread
// count must produce a bit-identical compiled artifact — printed module,
// remark stream, emitted Threaded-C and the serialized comm profile of a
// run — for every workload in both program versions.
TEST(PassThreadsTest, CompileIsBitIdenticalAtAnyThreadCount) {
  for (const Workload &W : oldenWorkloads()) {
    for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
      std::string Printed, Remarks, ThreadedC, Profile;
      for (unsigned Threads : {1u, 4u, 0u}) {
        PipelineOptions PO = workloadOptions(Mode);
        PO.PassThreads = Threads;
        Pipeline P(PO);
        CompileResult CR = P.compile(W.smallSource());
        ASSERT_TRUE(CR.OK) << W.Name << ": " << CR.Messages;
        EngineRun Run =
            runWith(P, *CR.M, workloadMachine(Mode, 4), ExecEngine::Bytecode);
        ASSERT_TRUE(Run.R.OK) << W.Name << ": " << Run.R.Error;
        std::string What = W.Name +
                           (Mode == RunMode::Simple ? "/simple" : "/opt") +
                           "/pass-threads=" + std::to_string(Threads);
        if (Threads == 1) { // Serial run defines the reference artifact.
          Printed = printModule(*CR.M);
          Remarks = CR.Remarks.str();
          ThreadedC = P.emitThreadedC(*CR.M);
          Profile = Run.Profile;
        } else {
          EXPECT_EQ(Printed, printModule(*CR.M)) << What;
          EXPECT_EQ(Remarks, CR.Remarks.str()) << What;
          EXPECT_EQ(ThreadedC, P.emitThreadedC(*CR.M)) << What;
          EXPECT_EQ(Profile, Run.Profile) << What;
        }
      }
    }
  }
}

// The profiler contract: the per-site communication profile is a pure
// function of (module, machine configuration), not of the execution
// strategy. Engine choice and the lowering thread count must both yield
// byte-identical serialized profiles.
TEST(CommProfileTest, BitIdenticalAcrossEngineAndLowerThreads) {
  const Workload *W = findWorkload("health");
  ASSERT_NE(W, nullptr);
  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  std::string Baseline;
  for (unsigned Threads : {1u, 4u}) {
    PipelineOptions PO = workloadOptions(RunMode::Optimized);
    PO.LowerThreads = Threads;
    Pipeline P(PO);
    CompileResult CR = P.compile(W->smallSource());
    ASSERT_TRUE(CR.OK) << CR.Messages;
    // The optimizer must have explained itself: remarks from both passes.
    EXPECT_TRUE(CR.Remarks.hasPass("placement")) << "threads=" << Threads;
    EXPECT_TRUE(CR.Remarks.hasPass("comm-select")) << "threads=" << Threads;
    for (ExecEngine Engine : {ExecEngine::AST, ExecEngine::Bytecode}) {
      std::string What = "threads=" + std::to_string(Threads) +
                         (Engine == ExecEngine::AST ? "/ast" : "/bc");
      EngineRun Run = runWith(P, *CR.M, MC, Engine);
      ASSERT_TRUE(Run.R.OK) << What << ": " << Run.R.Error;
      EXPECT_NE(Run.Profile.find("\"sites\""), std::string::npos) << What;
      if (Baseline.empty())
        Baseline = Run.Profile;
      else
        EXPECT_EQ(Baseline, Run.Profile) << What << ": profile diverges";
    }
  }
  EXPECT_FALSE(Baseline.empty());
}

// The rendered report joins static remarks with dynamic per-site numbers:
// at least one remark category from each pass must land next to an active
// site's counts.
TEST(CommProfileTest, ReportJoinsRemarksFromBothPasses) {
  const Workload *W = findWorkload("health");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;
  CommProfiler Prof;
  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  MC.Profiler = &Prof;
  RunResult R = P.run(*CR.M, MC);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_GT(Prof.totalMsgs(), 0u);
  std::string Report = renderProfileReport(*CR.M, Prof, &CR.Remarks);
  EXPECT_NE(Report.find("placement.hoist-loop"), std::string::npos) << Report;
  EXPECT_NE(Report.find("comm-select."), std::string::npos) << Report;
  std::string Json = profileReportJson(*CR.M, Prof, &CR.Remarks);
  EXPECT_NE(Json.find("\"total_msgs\""), std::string::npos);
  EXPECT_NE(Json.find("\"remarks\""), std::string::npos);
}

// Exit values of every kind agree between the engines, compared in the
// field their kind selects: a negative integer exit (whose bits read as a
// double are a NaN) and a double exit.
TEST(EngineExitValueTest, NegativeIntAndDoubleExits) {
  struct Case {
    const char *Src;
    RtValue Exit;
  } Cases[] = {
      {"int main() { int a; a = 3; return a - 4; }", RtValue::makeInt(-1)},
      {"double main() { double d; d = 2.5; return d - 5.0; }",
       RtValue::makeDbl(-2.5)},
  };
  for (const Case &C : Cases) {
    Pipeline P(PipelineOptions::simple());
    CompileResult CR = P.compile(C.Src);
    ASSERT_TRUE(CR.OK) << C.Src << ": " << CR.Messages;
    MachineConfig MC;
    MC.NumNodes = 2;
    auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
    ASSERT_TRUE(Ast.R.OK) << C.Src << ": " << Ast.R.Error;
    expectSameValue(Ast.R.ExitValue, C.Exit, C.Src);
    expectIdentical(Ast, runWith(P, *CR.M, MC, ExecEngine::Bytecode), C.Src);
  }
}

// pmalloc takes its pointer type from where its value goes — a store, a
// struct-field write, a return or a call argument, not only a plain
// variable — and each program runs to the same exit on both engines.
TEST(EngineExitValueTest, PMallocTakesItsDestinationsType) {
  const std::string Node = "struct node { int v; node *next; };\n";
  struct Case {
    std::string Src;
    int64_t Exit;
  } Cases[] = {
      {Node + "int main() { node *p; p = pmalloc(2); p->v = 1; "
              "p->next = pmalloc(2); p->next->v = 41; "
              "return p->v + p->next->v; }",
       42},
      {Node + "struct holder { node *a; int k; };\n"
              "int main() { holder s; s.a = pmalloc(1); s.a->v = 7; "
              "return s.a->v; }",
       7},
      {Node + "node *make() { return pmalloc(2); }\n"
              "int main() { node *p; p = make(); p->v = 5; return p->v; }",
       5},
      {Node + "int use(node *p) { p->v = 3; return p->v + 1; }\n"
              "int main() { return use(pmalloc(2)); }",
       4},
  };
  for (const Case &C : Cases) {
    for (const PipelineOptions &Opts :
         {PipelineOptions::simple(), PipelineOptions::optimized()}) {
      Pipeline P(Opts);
      CompileResult CR = P.compile(C.Src);
      ASSERT_TRUE(CR.OK) << C.Src << ": " << CR.Messages;
      MachineConfig MC;
      MC.NumNodes = 2;
      auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
      ASSERT_TRUE(Ast.R.OK) << C.Src << ": " << Ast.R.Error;
      expectSameValue(Ast.R.ExitValue, RtValue::makeInt(C.Exit), C.Src);
      expectIdentical(Ast, runWith(P, *CR.M, MC, ExecEngine::Bytecode),
                      C.Src);
    }
  }

  // The store lowers as its spelled-out form `t = pmalloc(2); p->next = t;`
  // does, so the optimizer sees the same allocation and the runs match.
  Pipeline P(PipelineOptions::optimized());
  MachineConfig MC;
  MC.NumNodes = 2;
  RunResult Direct = P.run(P.compile(Cases[0].Src), MC);
  RunResult ViaTemp = P.run(
      P.compile(Node + "int main() { node *p; node *t; p = pmalloc(2); "
                       "p->v = 1; t = pmalloc(2); p->next = t; "
                       "p->next->v = 41; return p->v + p->next->v; }"),
      MC);
  ASSERT_TRUE(Direct.OK && ViaTemp.OK) << Direct.Error << ViaTemp.Error;
  EXPECT_DOUBLE_EQ(Direct.TimeNs, ViaTemp.TimeNs);
  EXPECT_EQ(Direct.Counters.total(), ViaTemp.Counters.total());
}

// Runtime errors must be reported with identical text through both engines.
TEST(EngineErrorTest, IdenticalDiagnostics) {
  Pipeline P(workloadOptions(RunMode::Simple));
  CompileResult CR = P.compile("int main() { int x; x = 1; return x; }");
  ASSERT_TRUE(CR.OK) << CR.Messages;
  for (const char *Entry : {"missing", "main"}) {
    MachineConfig MC = workloadMachine(RunMode::Simple, 1);
    ChromeTraceSink SA, SB;
    MC.Engine = ExecEngine::AST;
    MC.Trace = &SA;
    RunResult A = P.run(*CR.M, MC, Entry);
    MC.Engine = ExecEngine::Bytecode;
    MC.Trace = &SB;
    RunResult B = P.run(*CR.M, MC, Entry);
    EXPECT_EQ(A.OK, B.OK) << Entry;
    EXPECT_EQ(A.Error, B.Error) << Entry;
    EXPECT_EQ(SA.json(), SB.json()) << Entry;
  }
}


//===----------------------------------------------------------------------===//
// Switch dispatch: lowering-mode selection and edge semantics. The observable
// contract is the AST walker's first-match scan over the source-ordered
// cases; these tests pin it across dense jump tables, sorted fallback and
// the linear path.
//===----------------------------------------------------------------------===//

/// The BcSwitchMode annotation of the single Switch instruction in \p Fn.
BcSwitchMode switchModeOf(const Module &M, const std::string &Fn) {
  const BytecodeModule &BM = getOrLowerBytecode(M);
  for (const auto &BF : BM.Funcs) {
    if (BF->Fn->name() != Fn)
      continue;
    for (size_t I = 0; I != BF->Code.size(); ++I) {
      if (BF->Code[I].Op != BcOp::Switch)
        continue;
      return static_cast<BcSwitchMode>(BF->Code[I].Sub);
    }
  }
  ADD_FAILURE() << "no Switch instruction lowered in " << Fn;
  return BcSwitchMode::Linear;
}

/// Compiles (unoptimized) and runs \p Src under the AST walker and the
/// bytecode engine, asserting both runs are indistinguishable; returns the
/// compile for lowering checks plus the agreed exit value via \p Exit.
CompileResult runSwitchProgram(const std::string &Src, const std::string &What,
                               int64_t &Exit) {
  Pipeline P(PipelineOptions::simple());
  CompileResult CR = P.compile(Src);
  EXPECT_TRUE(CR.OK) << What << ": " << CR.Messages;
  if (!CR.OK)
    return CR;
  MachineConfig MC;
  MC.NumNodes = 2;
  auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
  EXPECT_TRUE(Ast.R.OK) << What << ": " << Ast.R.Error;
  expectIdentical(Ast, runWith(P, *CR.M, MC, ExecEngine::Bytecode), What);
  Exit = Ast.R.ExitValue.I;
  return CR;
}

TEST(SwitchDispatchTest, DenseContiguousRangeUsesJumpTable) {
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int pick(int q) {
      int r;
      switch (q) {
      case 0: r = 1; break;
      case 1: r = 2; break;
      case 2: r = 4; break;
      case 3: r = 8; break;
      case 4: r = 16; break;
      case 5: r = 32; break;
      case 6: r = 64; break;
      case 7: r = 128; break;
      default: r = 1000; break;
      }
      return r;
    }
    int main() {
      return pick(0) + pick(3) + pick(7) + pick(8) + pick(0 - 5);
    }
  )",
                                      "dense", Exit);
  ASSERT_TRUE(CR.OK);
  // In range hits the table; above the range and below it (negative) fall
  // to the default via the unsigned bounds check.
  EXPECT_EQ(Exit, 1 + 8 + 128 + 1000 + 1000);
  EXPECT_EQ(switchModeOf(*CR.M, "pick"), BcSwitchMode::Dense);
  const BytecodeModule &BM = getOrLowerBytecode(*CR.M);
  ASSERT_EQ(BM.Funcs.size() >= 1, true);
  bool Found = false;
  for (const auto &BF : BM.Funcs) {
    if (BF->Fn->name() != "pick")
      continue;
    Found = true;
    ASSERT_EQ(BF->JumpTables.size(), 1u);
    EXPECT_EQ(BF->JumpTables[0].Lo, 0);
    EXPECT_EQ(BF->JumpTables[0].Size, 8u);
    EXPECT_EQ(BF->JumpPool.size(), 8u);
    for (int32_t T : BF->JumpPool)
      EXPECT_GE(T, 0) << "contiguous range has no default holes";
  }
  EXPECT_TRUE(Found);
}

TEST(SwitchDispatchTest, DenseRangeWithHolesDefaultsOnMiss) {
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int pick(int q) {
      int r;
      r = 0;
      switch (q) {
      case 0: r = 3; break;
      case 2: r = 5; break;
      case 4: r = 7; break;
      case 6: r = 11; break;
      default: r = 900; break;
      }
      return r;
    }
    int main() {
      return pick(0) + pick(2) + pick(6) + pick(1) + pick(5);
    }
  )",
                                      "dense-holes", Exit);
  ASSERT_TRUE(CR.OK);
  // Span 7 over 4 unique values still qualifies as dense; the odd values
  // are -1 holes in the jump pool and must take the default.
  EXPECT_EQ(Exit, 3 + 5 + 11 + 900 + 900);
  EXPECT_EQ(switchModeOf(*CR.M, "pick"), BcSwitchMode::Dense);
}

TEST(SwitchDispatchTest, SparseRangeFallsBackToLinearScan) {
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int pick(int q) {
      int r;
      switch (q) {
      case 10000: r = 30; break;
      case 1: r = 10; break;
      case 100: r = 20; break;
      default: r = 500; break;
      }
      return r;
    }
    int main() {
      return pick(1) + pick(100) + pick(10000) + pick(99) + pick(101);
    }
  )",
                                      "sparse", Exit);
  ASSERT_TRUE(CR.OK);
  // Span 10000 blows the dense budget: the source-order linear scan, where
  // near-misses on both sides of a case value take the default.
  EXPECT_EQ(Exit, 10 + 20 + 30 + 500 + 500);
  EXPECT_EQ(switchModeOf(*CR.M, "pick"), BcSwitchMode::Linear);
  const BytecodeModule &BM = getOrLowerBytecode(*CR.M);
  for (const auto &BF : BM.Funcs) {
    if (BF->Fn->name() != "pick")
      continue;
    EXPECT_TRUE(BF->JumpTables.empty());
  }
}

TEST(SwitchDispatchTest, DuplicateCaseValueFirstWins) {
  // The frontend does not reject duplicate case values, so the engines'
  // shared contract applies: the first case in source order wins, in every
  // dispatch mode (lowering deduplicates keeping the first target).
  for (const char *Extra : {"case 2: r = 30; break;",       // dense shape
                            "case 9999: r = 30; break;"}) { // linear shape
    int64_t Exit = 0;
    std::string Src = std::string(R"(
      int pick(int q) {
        int r;
        r = 0;
        switch (q) {
        case 1: r = 10; break;
        case 1: r = 20; break;
        )") + Extra + R"(
        }
        return r;
      }
      int main() { return pick(1); }
    )";
    runSwitchProgram(Src, std::string("duplicate/") + Extra, Exit);
    EXPECT_EQ(Exit, 10) << Extra << ": first case in source order must win";
  }
}

TEST(SwitchDispatchTest, DefaultOnlyAndMissingDefault) {
  // Words == 0 stays on the (empty) linear scan; a missing default is an
  // empty default body, so a miss leaves the variable untouched.
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int defonly(int q) {
      int r;
      switch (q) {
      default: r = 5; break;
      }
      return r;
    }
    int nodefault(int q) {
      int r;
      r = 77;
      switch (q) {
      case 1: r = 40; break;
      }
      return r;
    }
    int main() {
      return defonly(123) + nodefault(1) + nodefault(2);
    }
  )",
                                      "default-only", Exit);
  ASSERT_TRUE(CR.OK);
  EXPECT_EQ(Exit, 5 + 40 + 77);
  EXPECT_EQ(switchModeOf(*CR.M, "defonly"), BcSwitchMode::Linear);
  // A single case cannot be dense (the table needs two distinct values).
  EXPECT_EQ(switchModeOf(*CR.M, "nodefault"), BcSwitchMode::Linear);
}


} // namespace
