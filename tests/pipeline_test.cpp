//===- pipeline_test.cpp - Unit tests for the Pipeline driver API ----------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "frontend/Parser.h"
#include "support/Trace.h"

#include "DeepNesting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace earthcc;

namespace {

const char *Program = R"(
  struct Point { double x; double y; };
  double distance(Point *p) {
    double d;
    d = sqrt(p->x * p->x + p->y * p->y);
    return d;
  }
  int main() {
    Point *p;
    double d;
    p = pmalloc(sizeof(Point))@node(1);
    p->x = 3.0;
    p->y = 4.0;
    d = distance(p);
    return d;
  }
)";

MachineConfig machine(unsigned Nodes) {
  MachineConfig MC;
  MC.NumNodes = Nodes;
  return MC;
}

std::vector<std::string> stageNames(const Pipeline &P) {
  std::vector<std::string> Names;
  for (const StageReport &S : P.stages())
    Names.push_back(S.Name);
  return Names;
}

/// Records the callback sequence as compact strings.
struct RecordingObserver : PipelineObserver {
  std::vector<std::string> Log;
  void stageStarted(const std::string &Name, const Module *M) override {
    Log.push_back("start:" + Name + (M ? "" : ":nomod"));
  }
  void stageFinished(const StageReport &Report, const Module *M) override {
    Log.push_back("finish:" + Report.Name + (M ? "" : ":nomod"));
  }
  void runFinished(const RunResult &Result, const MachineConfig &MC) override {
    Log.push_back("run:" + std::to_string(MC.NumNodes) +
                  (Result.OK ? ":ok" : ":fail"));
  }
};

} // namespace

TEST(PipelineOptionsTest, Presets) {
  PipelineOptions Simple = PipelineOptions::simple();
  EXPECT_FALSE(Simple.Optimize);
  EXPECT_FALSE(Simple.InferLocality);

  PipelineOptions Opt = PipelineOptions::optimized();
  EXPECT_TRUE(Opt.Optimize);
  EXPECT_TRUE(Opt.EnableReadMotion);
  EXPECT_TRUE(Opt.EnableBlocking);
  EXPECT_EQ(Opt.BlockThresholdWords, 3u);
}

TEST(PipelineOptionsTest, ConvertsFromCompileRequest) {
  CompileRequest Req;
  Req.Optimize = false;
  Req.InferLocality = true;
  Req.BlockThresholdWords = 5;
  Req.EnableWriteBlocking = false;
  Req.LowerThreads = 3;

  PipelineOptions PO(Req);
  EXPECT_FALSE(PO.Optimize);
  EXPECT_TRUE(PO.InferLocality);
  EXPECT_EQ(PO.BlockThresholdWords, 5u);
  EXPECT_FALSE(PO.EnableWriteBlocking);
  EXPECT_EQ(PO.LowerThreads, 3u);
  // The CommOptions view is the object itself, knobs flattened.
  EXPECT_EQ(PO.comm().BlockThresholdWords, 5u);
}

TEST(PipelineTest, CompileOnceRunMany) {
  Pipeline P(PipelineOptions::optimized());
  CompileResult CR = P.compile(Program);
  ASSERT_TRUE(CR.OK) << CR.Messages;

  // The module is machine-size independent: one compile serves any sweep,
  // and re-running is deterministic.
  RunResult R2 = P.run(*CR.M, machine(2));
  RunResult R4 = P.run(*CR.M, machine(4));
  RunResult R2Again = P.run(*CR.M, machine(2));
  ASSERT_TRUE(R2.OK && R4.OK && R2Again.OK);
  EXPECT_EQ(R2.ExitValue.I, 5);
  EXPECT_EQ(R4.ExitValue.I, 5);
  EXPECT_EQ(R2.TimeNs, R2Again.TimeNs);
  EXPECT_EQ(R2.Counters.total(), R2Again.Counters.total());

  // And it matches the one-shot path exactly.
  RunResult OneShot =
      Pipeline(PipelineOptions::optimized()).compileAndRun(Program, machine(2));
  ASSERT_TRUE(OneShot.OK);
  EXPECT_EQ(R2.TimeNs, OneShot.TimeNs);
  EXPECT_EQ(R2.Counters.total(), OneShot.Counters.total());
}

TEST(PipelineTest, StageReports) {
  Pipeline P(PipelineOptions::optimized());
  CompileResult CR = P.compile(Program);
  ASSERT_TRUE(CR.OK);
  EXPECT_EQ(stageNames(P),
            (std::vector<std::string>{"simplify", "verify", "placement",
                                      "comm-select", "lower"}));
  for (const StageReport &S : P.stages())
    EXPECT_GT(S.WallNs, 0.0) << S.Name;

  // Stage-local counters are merged into the compile result's totals.
  const Statistics &Simplify = P.stages()[0].Counters;
  EXPECT_GT(Simplify.get("simplify.functions"), 0u);
  EXPECT_EQ(CR.Stats.get("simplify.functions"),
            Simplify.get("simplify.functions"));
  EXPECT_GT(CR.Stats.get("placement.read_tuples"), 0u);
  EXPECT_GT(CR.Stats.get("lower.instructions"), 0u);

  // The simple preset skips communication selection; locality is opt-in.
  Pipeline SimpleP(PipelineOptions::simple());
  ASSERT_TRUE(SimpleP.compile(Program).OK);
  EXPECT_EQ(stageNames(SimpleP),
            (std::vector<std::string>{"simplify", "verify", "lower"}));

  PipelineOptions WithLocality;
  WithLocality.InferLocality = true;
  Pipeline LocalityP(WithLocality);
  ASSERT_TRUE(LocalityP.compile(Program).OK);
  EXPECT_EQ(stageNames(LocalityP),
            (std::vector<std::string>{"simplify", "verify", "locality",
                                      "placement", "comm-select", "lower"}));
}

TEST(PipelineTest, ObserverCallbackOrder) {
  Pipeline P(PipelineOptions::optimized());
  RecordingObserver Obs;
  P.addObserver(&Obs);
  ASSERT_TRUE(P.compile(Program).OK);
  EXPECT_EQ(Obs.Log,
            (std::vector<std::string>{
                "start:simplify:nomod", "finish:simplify", "start:verify",
                "finish:verify", "start:placement", "finish:placement",
                "start:comm-select", "finish:comm-select", "start:lower",
                "finish:lower"}));

  Obs.Log.clear();
  CompileResult CR = P.compile(Program);
  RunResult R = P.run(*CR.M, machine(4));
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(Obs.Log.back(), "run:4:ok");
}

TEST(PipelineTest, CompileFailurePropagatesThroughRun) {
  Pipeline P;
  CompileResult CR = P.compile("int main() { return undeclared_var; }");
  EXPECT_FALSE(CR.OK);
  RunResult R = P.run(CR, machine(2));
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(R.Error, CR.Messages);
}

TEST(PipelineTest, TraceCoversCompileAndRun) {
  ChromeTraceSink Sink;
  Pipeline P(PipelineOptions::optimized());
  P.setTraceSink(&Sink);
  CompileResult CR = P.compile(Program);
  ASSERT_TRUE(CR.OK);
  RunResult R = P.run(*CR.M, machine(2));
  ASSERT_TRUE(R.OK);

  bool SawPass = false, SawPlacement = false, SawComm = false,
       SawRunSummary = false;
  for (const TraceEvent &E : Sink.events()) {
    if (E.Tid == TraceTidPass && E.Name == "comm-select" && E.Ph == 'X')
      SawPass = true;
    if (E.Tid == TraceTidPass && E.Name == "placement" && E.Ph == 'X')
      SawPlacement = true;
    if (E.Name == "read-data" || E.Name == "blkmov")
      SawComm = true;
    if (E.Name == "run:main")
      SawRunSummary = true;
  }
  EXPECT_TRUE(SawPass);
  EXPECT_TRUE(SawPlacement);
  EXPECT_TRUE(SawComm);
  EXPECT_TRUE(SawRunSummary);

  // Structurally valid JSON array: balanced brackets/braces, parses as one
  // object per event (full validation lives in the golden test).
  std::string J = Sink.json();
  EXPECT_EQ(std::count(J.begin(), J.end(), '{'),
            std::count(J.begin(), J.end(), '}'));
  EXPECT_EQ(J.front(), '[');
  EXPECT_EQ(J[J.size() - 2], ']'); // trailing newline after the array
}

TEST(PipelineTest, NullSinkRunIsIdenticalToTracedRun) {
  Pipeline P(PipelineOptions::optimized());
  CompileResult CR = P.compile(Program);
  ASSERT_TRUE(CR.OK);

  RunResult Plain = P.run(*CR.M, machine(2));

  CounterTraceSink Sink;
  P.setTraceSink(&Sink);
  RunResult Traced = P.run(*CR.M, machine(2));
  P.setTraceSink(nullptr);

  // Tracing observes the simulation without perturbing it.
  ASSERT_TRUE(Plain.OK && Traced.OK);
  EXPECT_EQ(Plain.TimeNs, Traced.TimeNs);
  EXPECT_EQ(Plain.ExitValue.I, Traced.ExitValue.I);
  EXPECT_EQ(Plain.Counters.total(), Traced.Counters.total());
  EXPECT_EQ(Plain.Counters.WordsMoved, Traced.Counters.WordsMoved);
  EXPECT_EQ(Sink.stats().get("trace.count.read-data"),
            Traced.Counters.ReadData);
  EXPECT_EQ(Sink.stats().get("trace.count.write-data"),
            Traced.Counters.WriteData);
}

// At Parser::MaxNestingDepth every nesting shape passes every stage: the
// optimizing passes, both engines (with identical results) and the
// Threaded-C backend.
TEST(PipelineTest, DeepestAcceptedNestingRunsEverywhere) {
  for (const DeepShape &S : DeepShapes) {
    SCOPED_TRACE(S.Name);
    Pipeline P(PipelineOptions::optimized());
    CompileResult CR = P.compile(S.program(Parser::MaxNestingDepth));
    ASSERT_TRUE(CR.OK) << CR.Messages;
    MachineConfig AstMC = machine(2);
    AstMC.Engine = ExecEngine::AST;
    RunResult Ast = P.run(CR, AstMC);
    RunResult Bytecode = P.run(CR, machine(2));
    ASSERT_TRUE(Ast.OK && Bytecode.OK) << Ast.Error << Bytecode.Error;
    EXPECT_EQ(Ast.ExitValue.I, S.Result);
    EXPECT_EQ(Bytecode.ExitValue.I, S.Result);
    EXPECT_EQ(Ast.TimeNs, Bytecode.TimeNs);
    EXPECT_EQ(Ast.Counters.total(), Bytecode.Counters.total());
    EXPECT_NE(P.emitThreadedC(*CR.M).find("main"), std::string::npos);
  }
}

TEST(PipelineTest, RequestDrivenCompileAndRun) {
  // The request API is the canonical path: the request pair fully
  // determines the artifact and the simulated result.
  CompileRequest CReq = CompileRequest::optimized(Program);
  Pipeline P;
  CompileResult CR = P.compile(CReq);
  ASSERT_TRUE(CR.OK) << CR.Messages;

  RunRequest RReq;
  RReq.NumNodes = 2;
  RunResult R = P.run(CR, RReq);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.ExitValue.I, 5);

  // Identical to the hand-wired MachineConfig path.
  RunResult ViaConfig =
      Pipeline(PipelineOptions::optimized()).compileAndRun(Program, machine(2));
  ASSERT_TRUE(ViaConfig.OK);
  EXPECT_EQ(R.TimeNs, ViaConfig.TimeNs);
  EXPECT_EQ(R.Counters.total(), ViaConfig.Counters.total());
}
