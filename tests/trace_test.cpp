//===- trace_test.cpp - Golden-file tests for the runtime trace ------------===//
//
// Part of the earthcc project.
//
// Runs two small EARTH-C programs on the 2-node simulated machine with a
// ChromeTraceSink attached and compares each full serialized trace against
// a checked-in golden file. The interpreter's events are timestamped in
// *simulated* nanoseconds, so the trace is bit-for-bit deterministic; the
// sink is attached only after compilation so no wall-clock pass events
// leak in. Any change to the simulator's cost model, scheduling order or
// instrumentation shows up here as a readable JSON diff.
//
// Regenerate after an intentional change with:
//   EARTHCC_REGEN_GOLDEN=1 ./build/tests/trace_test
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

using namespace earthcc;

#ifndef EARTHCC_GOLDEN_DIR
#error "EARTHCC_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

// Small enough that the golden file stays reviewable: remote reads and
// writes from node 0 to node 1, their SU service slices, and EU/SU clock
// activity on both nodes. MachineProgram below covers the other classes.
const char *TinyProgram = R"(
  struct Pair { int a; int b; };
  int main() {
    Pair *p;
    int x; int y;
    p = pmalloc(sizeof(Pair))@node(1);
    p->a = 3;
    p->b = 4;
    x = p->a;
    y = p->b;
    return x + y;
  }
)";

// Compiled optimized, this emits every event class the machine has besides
// the tiny program's: bump()'s three field reads and writes become blocked
// reads and writes (blkmov); the parallel sequence spawns three branches,
// each settling with a sync-signal; the placed call migrates to node 1,
// where the blkmovs hit local memory (local-fallback) and addto() on the
// node-0 global is a remote atomic; spin() outlasts its EU quantum while
// bump(r)'s blkmov is in flight, so node 0 context-switches.
const char *MachineProgram = R"(
  struct Point { int x; int y; int z; };
  shared int hits;
  void bump(Point *p) {
    p->x = p->x + 1;
    p->y = p->y + 2;
    p->z = p->z + 3;
    addto(&hits, 1);
  }
  int spin(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
  }
  int main() {
    Point *p; Point *r;
    int a; int h;
    writeto(&hits, 0);
    p = pmalloc(sizeof(Point))@node(1);
    r = pmalloc(sizeof(Point))@node(1);
    p->x = 1; p->y = 2; p->z = 3;
    r->x = 4; r->y = 5; r->z = 6;
    {^
      bump(p)@OWNER_OF(p);
      bump(r);
      a = spin(120);
    ^}
    h = valueof(&hits);
    return p->x + r->z + h + a;
  }
)";

std::string goldenPath(const char *Name = "trace_tiny.json") {
  return std::string(EARTHCC_GOLDEN_DIR) + "/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(TraceGoldenTest, TinyProgramTwoNodes) {
  Pipeline P(PipelineOptions::simple());
  CompileResult CR = P.compile(TinyProgram);
  ASSERT_TRUE(CR.OK) << CR.Messages;

  // Attach the sink only now: pass events use the host wall clock and
  // would make the golden file nondeterministic.
  ChromeTraceSink Sink;
  P.setTraceSink(&Sink);
  MachineConfig MC;
  MC.NumNodes = 2;
  RunResult R = P.run(*CR.M, MC);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.ExitValue.I, 7);

  std::string Trace = Sink.json();
  if (std::getenv("EARTHCC_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath());
    ASSERT_TRUE(Out) << "cannot write " << goldenPath();
    Out << Trace;
    GTEST_SKIP() << "regenerated " << goldenPath();
  }

  std::string Golden = readFile(goldenPath());
  ASSERT_FALSE(Golden.empty())
      << "missing golden file " << goldenPath()
      << " (regenerate with EARTHCC_REGEN_GOLDEN=1)";
  EXPECT_EQ(Trace, Golden)
      << "simulator trace diverged from golden; if the cost model or "
         "instrumentation changed intentionally, regenerate with "
         "EARTHCC_REGEN_GOLDEN=1";
}

TEST(TraceGoldenTest, TraceContainsExpectedEventClasses) {
  Pipeline P(PipelineOptions::simple());
  CompileResult CR = P.compile(TinyProgram);
  ASSERT_TRUE(CR.OK) << CR.Messages;

  ChromeTraceSink Sink;
  P.setTraceSink(&Sink);
  MachineConfig MC;
  MC.NumNodes = 2;
  ASSERT_TRUE(P.run(*CR.M, MC).OK);

  unsigned Reads = 0, Writes = 0, EuSlices = 0, SuServices = 0, Meta = 0;
  bool SawNode1 = false;
  for (const TraceEvent &E : Sink.events()) {
    if (E.Name == "read-data" && E.Ph == 'X')
      ++Reads;
    if (E.Name == "write-data" && E.Ph == 'X')
      ++Writes;
    if (E.Name == "eu-run")
      ++EuSlices;
    if (E.Tid == TraceTidSU && E.Ph == 'X')
      ++SuServices;
    if (E.Ph == 'M')
      ++Meta;
    if (E.Pid == 1)
      SawNode1 = true;
  }
  // Two remote reads (p->a, p->b) and two remote writes from node 0.
  EXPECT_EQ(Reads, 2u);
  EXPECT_EQ(Writes, 2u);
  EXPECT_GT(EuSlices, 0u);
  EXPECT_GT(SuServices, 0u);
  EXPECT_GT(Meta, 0u);   // process/thread name metadata
  EXPECT_TRUE(SawNode1); // remote node shows SU activity
}

TEST(TraceGoldenTest, MachineProgramTwoNodesBothEngines) {
  Pipeline P(PipelineOptions::optimized());
  CompileResult CR = P.compile(MachineProgram);
  ASSERT_TRUE(CR.OK) << CR.Messages;

  const std::string Path = goldenPath("trace_machine.json");
  const bool Regen = std::getenv("EARTHCC_REGEN_GOLDEN") != nullptr;
  // Both engines must produce the one golden; regeneration writes the AST
  // walker's trace and still compares the bytecode engine against it.
  for (ExecEngine Engine : {ExecEngine::AST, ExecEngine::Bytecode}) {
    SCOPED_TRACE(Engine == ExecEngine::AST ? "ast" : "bytecode");
    ChromeTraceSink Sink;
    P.setTraceSink(&Sink);
    MachineConfig MC;
    MC.NumNodes = 2;
    MC.Engine = Engine;
    RunResult R = P.run(*CR.M, MC);
    ASSERT_TRUE(R.OK) << R.Error;
    EXPECT_EQ(R.ExitValue.I, 2 + 9 + 2 + 7140);

    std::string Trace = Sink.json();
    if (Regen && Engine == ExecEngine::AST) {
      std::ofstream Out(Path);
      ASSERT_TRUE(Out) << "cannot write " << Path;
      Out << Trace;
      continue;
    }
    std::string Golden = readFile(Path);
    ASSERT_FALSE(Golden.empty())
        << "missing golden file " << Path
        << " (regenerate with EARTHCC_REGEN_GOLDEN=1)";
    EXPECT_EQ(Trace, Golden)
        << "simulator trace diverged from golden; if the cost model or "
           "instrumentation changed intentionally, regenerate with "
           "EARTHCC_REGEN_GOLDEN=1";

    std::set<std::string> Names;
    for (const TraceEvent &E : Sink.events())
      Names.insert(E.Name);
    for (const char *Name :
         {"blkmov", "su:blkmov", "atomic", "su:atomic", "local-fallback",
          "spawn", "migrate", "ctx-switch", "sync-signal", "eu-run",
          "eu-clock", "su-clock"}) {
      EXPECT_TRUE(Names.count(Name)) << "no '" << Name << "' event";
    }
  }
  if (Regen)
    GTEST_SKIP() << "regenerated " << Path;
}

//===----------------------------------------------------------------------===//
// Sink edge cases: hand-built events, no simulator involved. These pin the
// serialization corners the goldens never reach.
//===----------------------------------------------------------------------===//

TEST(TraceSinkEdgeTest, ZeroDurationCompleteEvent) {
  ChromeTraceSink Chrome;
  CounterTraceSink Counts;
  TraceEvent E;
  E.Name = "instant-span";
  E.Cat = "comm";
  E.Ph = 'X';
  E.TsNs = 1234.0;
  E.DurNs = 0.0;
  Chrome.event(E);
  Counts.event(E);
  // The Chrome form keeps its dur field (0.000 us), so the event stays a
  // valid complete event instead of degrading to an instant.
  EXPECT_NE(Chrome.json().find("\"dur\":0.000"), std::string::npos)
      << Chrome.json();
  // The counter form counts the occurrence and records a present-but-zero
  // duration total.
  EXPECT_EQ(Counts.stats().get("trace.count.instant-span"), 1u);
  EXPECT_EQ(Counts.stats().get("trace.ns.instant-span"), 0u);
  EXPECT_EQ(Counts.stats().all().count("trace.ns.instant-span"), 1u);
}

TEST(TraceSinkEdgeTest, MoreThanFourArgsSerializeInOrder) {
  ChromeTraceSink Chrome;
  TraceEvent E;
  E.Name = "big";
  E.Cat = "comm";
  E.Ph = 'i';
  for (int I = 0; I != 6; ++I)
    E.Args.emplace_back("k" + std::to_string(I),
                        static_cast<uint64_t>(I * 10));
  Chrome.event(E);
  std::string J = Chrome.json();
  EXPECT_NE(J.find("\"args\":{\"k0\":0,\"k1\":10,\"k2\":20,\"k3\":30,"
                   "\"k4\":40,\"k5\":50}"),
            std::string::npos)
      << J;
}

TEST(TraceSinkEdgeTest, JsonEscapingOfNamesAndArgs) {
  ChromeTraceSink Chrome;
  TraceEvent E;
  E.Name = "quote\"back\\slash\nnewline";
  E.Cat = "comm";
  E.Ph = 'i';
  E.Args.emplace_back("msg", "say \"hi\"\\\n");
  Chrome.event(E);
  std::string J = Chrome.json();
  EXPECT_NE(J.find("\"name\":\"quote\\\"back\\\\slash\\nnewline\""),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"msg\":\"say \\\"hi\\\"\\\\\\n\""), std::string::npos)
      << J;
  // No raw control characters may survive inside the serialized document:
  // every byte below 0x20 other than the record-separating newlines must
  // have been escaped.
  for (size_t I = 0; I != J.size(); ++I)
    if (static_cast<unsigned char>(J[I]) < 0x20) {
      EXPECT_EQ(J[I], '\n') << "unescaped control byte at offset " << I;
    }
}
