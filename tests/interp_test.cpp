//===- interp_test.cpp - Simulator/interpreter tests ------------------------===//
//
// Part of the earthcc project.
//
// Semantics, timing behaviour, determinism, and error paths of the EARTH
// simulator, plus end-to-end checks that optimized programs compute the
// same results with fewer remote operations and less simulated time.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "simple/IRBuilder.h"

#include <gtest/gtest.h>

using namespace earthcc;

namespace {

MachineConfig machine(unsigned Nodes) {
  MachineConfig MC;
  MC.NumNodes = Nodes;
  return MC;
}

RunResult runSrc(const std::string &Src, unsigned Nodes = 1,
                 bool Optimize = false,
                 const std::vector<RtValue> &Args = {}) {
  Pipeline P(Optimize ? PipelineOptions::optimized()
                      : PipelineOptions::simple());
  RunResult R = P.compileAndRun(Src, machine(Nodes), "main", Args);
  EXPECT_TRUE(R.OK) << R.Error;
  return R;
}

//===----------------------------------------------------------------------===//
// Core semantics.
//===----------------------------------------------------------------------===//

TEST(SemanticsTest, ArithmeticAndReturn) {
  RunResult R = runSrc("int main() { return 6 * 7; }");
  EXPECT_EQ(R.ExitValue.I, 42);
}

TEST(SemanticsTest, LoopsAndConditionals) {
  RunResult R = runSrc(R"(
    int main() {
      int i; int s;
      s = 0;
      for (i = 1; i <= 10; i = i + 1) {
        if (i % 2 == 0) { s = s + i; }
      }
      return s;
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 30);
}

TEST(SemanticsTest, DoWhileRunsAtLeastOnce) {
  RunResult R = runSrc(R"(
    int main() {
      int i;
      i = 100;
      do { i = i + 1; } while (i < 0);
      return i;
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 101);
}

TEST(SemanticsTest, SwitchSelectsCase) {
  RunResult R = runSrc(R"(
    int classify(int q) {
      int r;
      switch (q) {
      case 0: r = 10; break;
      case 1: r = 20; break;
      default: r = 30; break;
      }
      return r;
    }
    int main() {
      return classify(0) + classify(1) + classify(7);
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 60);
}

TEST(SemanticsTest, RecursionFibonacci) {
  RunResult R = runSrc(R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main() { return fib(12); }
  )");
  EXPECT_EQ(R.ExitValue.I, 144);
}

TEST(SemanticsTest, DoubleMath) {
  RunResult R = runSrc(R"(
    int main() {
      double x; double y;
      x = 3.0;
      y = sqrt(x * x + 4.0 * 4.0);
      if (fabs(y - 5.0) < 0.000001) { return 1; }
      return 0;
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 1);
}

TEST(SemanticsTest, HeapListTraversal) {
  RunResult R = runSrc(R"(
    struct node { int v; node *next; };
    node *build(int n) {
      node *head; node *p;
      int i;
      head = NULL;
      for (i = n; i >= 1; i = i - 1) {
        p = pmalloc(sizeof(node));
        p->v = i;
        p->next = head;
        head = p;
      }
      return head;
    }
    int main() {
      node *p;
      int s;
      s = 0;
      p = build(10);
      while (p != NULL) {
        s = s + p->v;
        p = p->next;
      }
      return s;
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 55);
  EXPECT_GT(R.Counters.ReadData, 0u);
}

// A runtime value has one meaningful field, chosen by its kind; a step that
// reads the integer field without checking the kind reads zero from any
// other kind. Negating a pointer is such a read: both engines print and
// return 0, not a negated address. The frontend rejects `-p`, so the module
// (`p = pmalloc(1); x = -p; print(x); return x;`) is built directly.
TEST(SemanticsTest, InactiveFieldReadsAsZero) {
  Module M;
  const Type *IntTy = M.types().intTy();
  Function *Main = M.createFunction("main", IntTy);
  Var *Ptr = Main->addLocal("p", M.types().pointerTo(IntTy));
  Var *X = Main->addLocal("x", IntTy);
  IRBuilder B(M, *Main);
  B.call(Ptr, "pmalloc", {Operand::intConst(1)})->Intrin = Intrinsic::PMalloc;
  B.assign(X, B.unary(UnaryOp::Neg, Operand::var(Ptr)));
  B.call(nullptr, "print", {Operand::var(X)})->Intrin = Intrinsic::Print;
  B.ret(Operand::var(X));
  B.finish();
  Pipeline P;
  for (ExecEngine Engine : {ExecEngine::AST, ExecEngine::Bytecode}) {
    MachineConfig MC = machine(1);
    MC.Engine = Engine;
    RunResult R = P.run(M, MC);
    ASSERT_TRUE(R.OK) << R.Error;
    EXPECT_EQ(R.Output, std::vector<std::string>{"0"});
    EXPECT_EQ(R.ExitValue.K, RtValue::Kind::Int);
    EXPECT_EQ(R.ExitValue.I, 0);
  }
}

TEST(SemanticsTest, PrintOutput) {
  RunResult R = runSrc(R"(
    int main() {
      print(1);
      print(2 + 3);
      return 0;
    }
  )");
  ASSERT_EQ(R.Output.size(), 2u);
  EXPECT_EQ(R.Output[0], "1");
  EXPECT_EQ(R.Output[1], "5");
}

TEST(SemanticsTest, NestedStructAccess) {
  RunResult R = runSrc(R"(
    struct D { double P; double Q; };
    struct branch { double R; D d; };
    int main() {
      branch *b;
      double v;
      b = pmalloc(sizeof(branch));
      b->R = 1.5;
      b->d.P = 2.5;
      b->d.Q = 4.0;
      v = b->R + b->d.P + b->d.Q;
      if (fabs(v - 8.0) < 0.000001) { return 1; }
      return 0;
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 1);
}

TEST(SemanticsTest, AddressOfField) {
  RunResult R = runSrc(R"(
    struct cell { int v; };
    struct box { int pad; cell c; };
    int bump(cell *p) {
      p->v = p->v + 1;
      return p->v;
    }
    int main() {
      box *b;
      cell *inner;
      b = pmalloc(sizeof(box));
      b->c.v = 41;
      inner = &(b->c);
      return bump(inner);
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 42);
}

//===----------------------------------------------------------------------===//
// Parallel constructs and distribution.
//===----------------------------------------------------------------------===//

TEST(ParallelTest, ForallSharedCounter) {
  RunResult R = runSrc(R"(
    struct node { int v; node *next; };
    node *build(int n) {
      node *head; node *p; int i;
      head = NULL;
      for (i = 1; i <= n; i = i + 1) {
        p = pmalloc(sizeof(node));
        p->v = i;
        p->next = head;
        head = p;
      }
      return head;
    }
    int main() {
      shared int total;
      node *head; node *p;
      int r;
      head = build(20);
      writeto(&total, 0);
      forall (p = head; p != NULL; p = p->next) {
        addto(&total, p->v);
      }
      r = valueof(&total);
      return r;
    }
  )",
                       4);
  EXPECT_EQ(R.ExitValue.I, 210);
  EXPECT_GT(R.Counters.Atomic, 0u);
}

TEST(ParallelTest, ParallelSequenceJoin) {
  RunResult R = runSrc(R"(
    int work(int n) {
      int i; int s;
      s = 0;
      for (i = 0; i < n; i = i + 1) { s = s + i; }
      return s;
    }
    int main() {
      int a; int b;
      {^
        a = work(100);
        b = work(50);
      ^}
      return a + b;
    }
  )");
  EXPECT_EQ(R.ExitValue.I, 4950 + 1225);
}

TEST(ParallelTest, PlacedCallsRunOnTargetNode) {
  RunResult R = runSrc(R"(
    int whereami() { return my_node(); }
    int main() {
      int a; int b; int c;
      a = whereami()@node(2);
      b = whereami()@HOME;
      c = whereami();
      return a * 100 + b * 10 + c;
    }
  )",
                       4);
  EXPECT_EQ(R.ExitValue.I, 200);
}

TEST(ParallelTest, OwnerOfTargetsDataHome) {
  RunResult R = runSrc(R"(
    struct node { int v; };
    int probe(node *p) { return my_node(); }
    int main() {
      node *p;
      p = pmalloc(sizeof(node))@node(3);
      return probe(p)@OWNER_OF(p);
    }
  )",
                       4);
  EXPECT_EQ(R.ExitValue.I, 3);
}

TEST(ParallelTest, DataDistributionAcrossNodes) {
  RunResult R = runSrc(R"(
    struct node { int v; };
    int main() {
      node *p;
      int i; int n;
      n = num_nodes();
      for (i = 0; i < 8; i = i + 1) {
        p = pmalloc(sizeof(node))@node(i % n);
        p->v = i;
      }
      return n;
    }
  )",
                       4);
  EXPECT_EQ(R.ExitValue.I, 4);
  ASSERT_EQ(R.WordsPerNode.size(), 4u);
  for (unsigned N = 0; N != 4; ++N)
    EXPECT_GE(R.WordsPerNode[N], 2u) << "node " << N;
}

TEST(ParallelTest, ParallelSpeedsUpIndependentWork) {
  const char *Src = R"(
    struct node { int v; };
    int work(node *p, int n) {
      int i; int s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        p->v = i;
        s = s + p->v;
      }
      return s;
    }
    int main() {
      node *a; node *b; node *c; node *d;
      int r1; int r2; int r3; int r4;
      a = pmalloc(sizeof(node))@node(0);
      b = pmalloc(sizeof(node))@node(1);
      c = pmalloc(sizeof(node))@node(2);
      d = pmalloc(sizeof(node))@node(3);
      {^
        r1 = work(a, 200)@OWNER_OF(a);
        r2 = work(b, 200)@OWNER_OF(b);
        r3 = work(c, 200)@OWNER_OF(c);
        r4 = work(d, 200)@OWNER_OF(d);
      ^}
      return r1 + r2 + r3 + r4;
    }
  )";
  RunResult R1 = runSrc(Src, 1);
  RunResult R4 = runSrc(Src, 4);
  EXPECT_EQ(R1.ExitValue.I, R4.ExitValue.I);
  // Four independent node-local loops: 4 nodes must be much faster.
  EXPECT_LT(R4.TimeNs, R1.TimeNs / 2.0);
}

//===----------------------------------------------------------------------===//
// Timing model.
//===----------------------------------------------------------------------===//

TEST(TimingTest, TableOneSequentialRead) {
  CostModel CM;
  EXPECT_DOUBLE_EQ(CM.sequentialRead(), 7109.0);
  EXPECT_DOUBLE_EQ(CM.sequentialWrite(), 6458.0);
  EXPECT_DOUBLE_EQ(CM.sequentialBlk(1), 9700.0);
}

TEST(TimingTest, DependentReadsPaySequentialLatency) {
  // A pointer chase: each read's result feeds the next -> ~7109 ns/hop.
  const char *Src = R"(
    struct node { int v; node *next; };
    node *build(int n) {
      node *head; node *p; int i;
      head = NULL;
      for (i = 0; i < n; i = i + 1) {
        p = pmalloc(sizeof(node))@node(1);
        p->v = i;
        p->next = head;
        head = p;
      }
      return head;
    }
    int walk(node *head) {
      node *p;
      int c;
      c = 0;
      p = head;
      while (p != NULL) {
        p = p->next;
        c = c + 1;
      }
      return c;
    }
    int main() {
      node *head;
      head = build(100);
      return walk(head);
    }
  )";
  RunResult R = runSrc(Src, 2);
  EXPECT_EQ(R.ExitValue.I, 100);
  // The walk alone contains 100 dependent remote reads from node 0 to
  // node 1; the total must therefore exceed 100 * 7109 ns.
  EXPECT_GT(R.TimeNs, 100 * 7109.0);
}

TEST(TimingTest, IndependentReadsPipeline) {
  // Reads of distinct fields with uses afterwards: issue cost dominates.
  const char *SrcPipelined = R"(
    struct rec { int a; int b; int c; int d; int e; int f; int g; int h; };
    int main() {
      rec *r;
      int t1; int t2; int t3; int t4; int t5; int t6; int t7; int t8;
      r = pmalloc(sizeof(rec))@node(1);
      r->a = 1; r->b = 2; r->c = 3; r->d = 4;
      r->e = 5; r->f = 6; r->g = 7; r->h = 8;
      t1 = r->a; t2 = r->b; t3 = r->c; t4 = r->d;
      t5 = r->e; t6 = r->f; t7 = r->g; t8 = r->h;
      return t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8;
    }
  )";
  RunResult R = runSrc(SrcPipelined, 2);
  EXPECT_EQ(R.ExitValue.I, 36);
  // 8 writes + 8 reads, all split-phase and overlapping: total should be
  // far below 16 sequential round trips.
  EXPECT_LT(R.TimeNs, 16 * 7109.0);
}

TEST(TimingTest, DeterministicAcrossRuns) {
  const char *Src = R"(
    struct node { int v; node *next; };
    int main() {
      node *p; node *head; int i; int s;
      head = NULL;
      for (i = 0; i < 50; i = i + 1) {
        p = pmalloc(sizeof(node))@node(i % num_nodes());
        p->v = i;
        p->next = head;
        head = p;
      }
      s = 0;
      p = head;
      while (p != NULL) { s = s + p->v; p = p->next; }
      return s;
    }
  )";
  RunResult A = runSrc(Src, 4);
  RunResult B = runSrc(Src, 4);
  EXPECT_EQ(A.ExitValue.I, B.ExitValue.I);
  EXPECT_DOUBLE_EQ(A.TimeNs, B.TimeNs);
  EXPECT_EQ(A.Counters.total(), B.Counters.total());
}

TEST(TimingTest, SequentialModeHasNoEarthOps) {
  MachineConfig MC = machine(1);
  MC.SequentialMode = true;
  Pipeline P(PipelineOptions::simple());
  RunResult R = P.compileAndRun(R"(
    struct node { int v; node *next; };
    int main() {
      node *p;
      p = pmalloc(sizeof(node));
      p->v = 9;
      return p->v;
    }
  )",
                                MC);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.ExitValue.I, 9);
  EXPECT_EQ(R.Counters.total(), 0u);
}

//===----------------------------------------------------------------------===//
// Optimization end-to-end: same answers, fewer ops, less time.
//===----------------------------------------------------------------------===//

const char *EndToEndSrc = R"(
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
    double sx; double sy;
    head = build(64);
    sx = 0.0;
    sy = 0.0;
    p = head;
    while (p != NULL) {
      sx = sx + p->x;
      sy = sy + p->y;
      p = p->next;
    }
    if (fabs(sx - 2016.0) < 0.0001 && fabs(sy - 4032.0) < 0.0001) {
      return 1;
    }
    return 0;
  }
)";

TEST(EndToEndTest, OptimizationPreservesSemantics) {
  RunResult Simple = runSrc(EndToEndSrc, 4, /*Optimize=*/false);
  RunResult Opt = runSrc(EndToEndSrc, 4, /*Optimize=*/true);
  EXPECT_EQ(Simple.ExitValue.I, 1);
  EXPECT_EQ(Opt.ExitValue.I, 1);
}

TEST(EndToEndTest, OptimizationReducesOpsAndTime) {
  RunResult Simple = runSrc(EndToEndSrc, 4, /*Optimize=*/false);
  RunResult Opt = runSrc(EndToEndSrc, 4, /*Optimize=*/true);
  // The traversal loop reads x, y, next per node: blocking turns 3 reads
  // into 1 blkmov.
  EXPECT_LT(Opt.Counters.ReadData, Simple.Counters.ReadData);
  EXPECT_GT(Opt.Counters.BlkMov, Simple.Counters.BlkMov);
  EXPECT_LT(Opt.Counters.total(), Simple.Counters.total());
  EXPECT_LT(Opt.TimeNs, Simple.TimeNs);
}

TEST(EndToEndTest, ResultsIdenticalAcrossNodeCounts) {
  for (unsigned Nodes : {1u, 2u, 4u, 8u}) {
    RunResult R = runSrc(EndToEndSrc, Nodes, /*Optimize=*/true);
    EXPECT_EQ(R.ExitValue.I, 1) << Nodes << " nodes";
  }
}

//===----------------------------------------------------------------------===//
// Error paths.
//===----------------------------------------------------------------------===//

TEST(ErrorTest, NullDereference) {
  Pipeline P(PipelineOptions::simple());
  RunResult R = P.compileAndRun(R"(
    struct node { int v; };
    int main() {
      node *p;
      p = NULL;
      return p->v;
    }
  )",
                                machine(1));
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("null pointer read"), std::string::npos) << R.Error;
}

TEST(ErrorTest, DivisionByZero) {
  RunResult R =
      Pipeline().compileAndRun("int main() { int z; z = 0; return 7 / z; }",
                               machine(1));
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(ErrorTest, UndefinedVariableRead) {
  Pipeline P(PipelineOptions::simple());
  RunResult R = P.compileAndRun("int main() { int x; return x + 1; }",
                                machine(1));
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("undefined variable"), std::string::npos);
}

TEST(ErrorTest, LocalityViolationCaught) {
  // A `local`-qualified pointer actually pointing to remote memory is a
  // programmer error EARTH-C cannot check; the simulator can.
  Pipeline P(PipelineOptions::simple());
  RunResult R = P.compileAndRun(R"(
    struct node { int v; };
    int get(node local *p) { return p->v; }
    int main() {
      node *p;
      p = pmalloc(sizeof(node))@node(1);
      p->v = 5;
      return get(p);
    }
  )",
                                machine(2));
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("'local' access to remote address"),
            std::string::npos)
      << R.Error;
}

TEST(ErrorTest, InfiniteLoopHitsFuel) {
  MachineConfig MC = machine(1);
  MC.MaxSteps = 10000;
  RunResult R = Pipeline().compileAndRun(
      "int main() { int i; i = 0; while (i < 1) { i = i * 1; } return 0; }",
      MC);
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(ErrorTest, MissingEntryFunction) {
  RunResult R =
      Pipeline().compileAndRun("int notmain() { return 0; }", machine(1));
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("not found"), std::string::npos);
}

} // namespace
