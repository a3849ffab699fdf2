//===- property_test.cpp - Randomized differential testing -----------------===//
//
// Part of the earthcc project.
//
// A seeded random generator produces structured EARTH-C programs over a
// linked structure (loops, conditionals, remote reads/writes through
// aliasing pointers, calls). Each program is run (a) sequentially,
// (b) parallel-unoptimized, (c) parallel-optimized at several blocking
// thresholds; all runs must agree on the checksum, and optimization must
// never increase remote-operation counts. This is the adversarial
// counterpart of the hand-written selection tests: it hunts for unsound
// tuple propagation, stale local copies, and broken write sinking.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace earthcc;

namespace {

/// Deterministic linear-congruential generator.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 1) {}
  uint32_t next(uint32_t Bound) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((State >> 33) % Bound);
  }

private:
  uint64_t State;
};

/// Emits a random structured function body over two struct pointers that
/// may or may not alias, plus integer scalars.
class ProgramGenerator {
public:
  explicit ProgramGenerator(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    OS << "struct rec { int a; int b; int c; int d; rec *link; };\n\n";
    OS << "int mix(int x, int y) { return x * 3 + y; }\n\n";
    OS << "void clobber(rec *r) { r->c = r->c + 100; }\n\n";
    OS << "int work(rec *p, rec *q, int n) {\n";
    OS << "  int acc; int i; int j; int k; int t;\n";
    OS << "  acc = 0;\n";
    Depth = 1;
    int NumStmts = 6 + static_cast<int>(R.next(8));
    for (int I = 0; I != NumStmts; ++I)
      emitStmt();
    OS << "  return acc;\n";
    OS << "}\n\n";

    OS << "int main() {\n";
    OS << "  rec *x; rec *y; rec *z;\n";
    OS << "  int r1; int r2;\n";
    OS << "  x = pmalloc(sizeof(rec))@node(1 % num_nodes());\n";
    OS << "  y = pmalloc(sizeof(rec))@node(2 % num_nodes());\n";
    OS << "  x->a = 1; x->b = 2; x->c = 3; x->d = 4; x->link = y;\n";
    OS << "  y->a = 5; y->b = 6; y->c = 7; y->d = 8; y->link = x;\n";
    // Sometimes pass aliasing pointers.
    if (R.next(2))
      OS << "  z = x;\n";
    else
      OS << "  z = y;\n";
    OS << "  r1 = work(x, z, 5);\n";
    OS << "  r2 = work(y, x, 3);\n";
    OS << "  return r1 * 31 + r2 + x->a + y->c + x->d + y->b;\n";
    OS << "}\n";
    return OS.str();
  }

private:
  void indent() {
    for (int I = 0; I != Depth; ++I)
      OS << "  ";
  }

  std::string ptr() { return R.next(2) ? "p" : "q"; }
  std::string field() {
    static const char *Fields[] = {"a", "b", "c", "d"};
    return Fields[R.next(4)];
  }

  void emitStmt() {
    // Nesting is bounded to keep programs terminating and readable.
    switch (R.next(Depth >= 3 ? 6 : 8)) {
    case 0: // Remote read into scalar.
      indent();
      OS << "t = " << ptr() << "->" << field() << ";\n";
      indent();
      OS << "acc = acc + t;\n";
      return;
    case 1: // Remote write.
      indent();
      OS << ptr() << "->" << field() << " = acc % 1000 + "
         << R.next(50) << ";\n";
      return;
    case 2: // Read-modify-write of one field.
      indent();
      OS << ptr() << "->" << field() << " = " << ptr() << "->" << field()
         << " + " << (1 + R.next(9)) << ";\n";
      return;
    case 3: // Pure call.
      indent();
      OS << "acc = mix(acc, " << R.next(100) << ");\n";
      return;
    case 4: // Heap-writing call (kills tuples interprocedurally).
      indent();
      OS << "clobber(" << ptr() << ");\n";
      return;
    case 5: // Accumulate several fields (blocking candidates).
      indent();
      OS << "acc = acc + " << ptr() << "->a + " << ptr() << "->b + "
         << ptr() << "->c;\n";
      return;
    case 6: { // Conditional.
      indent();
      OS << "if (acc % " << (2 + R.next(3)) << " == " << R.next(2)
         << ") {\n";
      ++Depth;
      int N = 1 + static_cast<int>(R.next(3));
      for (int I = 0; I != N; ++I)
        emitStmt();
      --Depth;
      indent();
      OS << "} else {\n";
      ++Depth;
      emitStmt();
      --Depth;
      indent();
      OS << "}\n";
      return;
    }
    default: { // Bounded loop; each nesting level gets its own counter.
      static const char *Counters[] = {"i", "j", "k"};
      if (LoopDepth >= 3) {
        indent();
        OS << "acc = acc + " << R.next(10) << ";\n";
        return;
      }
      const char *C = Counters[LoopDepth];
      indent();
      OS << "for (" << C << " = 0; " << C << " < " << (2 + R.next(4))
         << "; " << C << " = " << C << " + 1) {\n";
      ++Depth;
      ++LoopDepth;
      int N = 1 + static_cast<int>(R.next(3));
      for (int I = 0; I != N; ++I)
        emitStmt();
      --LoopDepth;
      --Depth;
      indent();
      OS << "}\n";
      return;
    }
    }
  }

  Rng R;
  std::ostringstream OS;
  int Depth = 1;
  int LoopDepth = 0;
};

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, OptimizationPreservesSemantics) {
  ProgramGenerator Gen(static_cast<uint64_t>(GetParam()));
  std::string Src = Gen.generate();
  SCOPED_TRACE(Src);

  // Reference: sequential execution of the unoptimized compile.
  Pipeline P;
  CompileResult SimpleCR = P.compile(CompileRequest::simple(Src));
  ASSERT_TRUE(SimpleCR.OK) << SimpleCR.Messages;
  RunRequest SeqRR;
  SeqRR.SequentialMode = true;
  RunResult Seq = P.run(SimpleCR, SeqRR);
  ASSERT_TRUE(Seq.OK) << Seq.Error;

  for (unsigned Nodes : {1u, 3u}) {
    RunRequest RR;
    RR.NumNodes = Nodes;
    RunResult Simple = P.run(SimpleCR, RR);
    ASSERT_TRUE(Simple.OK) << Simple.Error;
    EXPECT_EQ(Simple.ExitValue.I, Seq.ExitValue.I) << Nodes << " nodes";

    for (unsigned Threshold : {1u, 2u, 3u, 5u}) {
      CompileRequest CReq = CompileRequest::optimized(Src);
      CReq.BlockThresholdWords = Threshold;
      RunResult Opt = P.run(P.compile(CReq), RR);
      ASSERT_TRUE(Opt.OK)
          << "nodes " << Nodes << " threshold " << Threshold << ": "
          << Opt.Error;
      EXPECT_EQ(Opt.ExitValue.I, Seq.ExitValue.I)
          << "nodes " << Nodes << " threshold " << Threshold;
      EXPECT_LE(Opt.Counters.total(), Simple.Counters.total())
          << "optimization increased communication (threshold " << Threshold
          << ")";
    }
  }
}

TEST_P(RandomProgramTest, KnockoutsPreserveSemantics) {
  ProgramGenerator Gen(static_cast<uint64_t>(GetParam()) + 7777);
  std::string Src = Gen.generate();
  SCOPED_TRACE(Src);

  Pipeline P;
  RunRequest SeqRR;
  SeqRR.SequentialMode = true;
  RunResult Seq = P.run(P.compile(CompileRequest::simple(Src)), SeqRR);
  ASSERT_TRUE(Seq.OK) << Seq.Error;

  RunRequest RR;
  RR.NumNodes = 3;
  for (int Knockout = 0; Knockout != 5; ++Knockout) {
    CompileRequest CReq = CompileRequest::optimized(Src);
    switch (Knockout) {
    case 0: CReq.EnableReadMotion = false; break;
    case 1: CReq.EnableBlocking = false; break;
    case 2: CReq.EnableWriteBlocking = false; break;
    case 3: CReq.Placement.OptimisticConditionalReads = false; break;
    case 4:
      CReq.EnableReadMotion = false;
      CReq.EnableBlocking = false;
      break;
    }
    RunResult Opt = P.run(P.compile(CReq), RR);
    ASSERT_TRUE(Opt.OK) << "knockout " << Knockout << ": " << Opt.Error;
    EXPECT_EQ(Opt.ExitValue.I, Seq.ExitValue.I) << "knockout " << Knockout;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(1, 41));

} // namespace
