//===- selection_test.cpp - Communication selection tests ------------------===//
//
// Part of the earthcc project.
//
// Exercises the paper's worked examples: Figure 3 (distance), Figure 4
// (scale_point), and Figure 8 (communication selection over the Figure 7
// list-walking program).
//
//===----------------------------------------------------------------------===//

#include "simple/Printer.h"
#include "simple/Verifier.h"
#include "frontend/Simplify.h"
#include "transform/CommSelection.h"

#include <gtest/gtest.h>

using namespace earthcc;

namespace {

struct Optimized {
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  Statistics Stats;
};

Optimized optimize(const std::string &Src, const std::string &FuncName,
                   CommOptions Opts = {}) {
  DiagnosticsEngine Diags;
  Optimized O;
  O.M = compileToSimple(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<std::string> Errors;
  EXPECT_TRUE(optimizeModuleCommunication(*O.M, Opts, O.Stats, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  O.F = O.M->findFunction(FuncName);
  EXPECT_NE(O.F, nullptr);
  return O;
}

struct OpCounts {
  int RemoteReads = 0;
  int RemoteWrites = 0;
  int BlkMovReads = 0;
  int BlkMovWrites = 0;
  int total() const {
    return RemoteReads + RemoteWrites + BlkMovReads + BlkMovWrites;
  }
};

/// Static counts of remote operations in a function body.
OpCounts countOps(const Function &F) {
  OpCounts C;
  forEachStmt(F.body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S)) {
      if (A->isRemoteRead())
        ++C.RemoteReads;
      if (A->isRemoteWrite())
        ++C.RemoteWrites;
    } else if (const auto *B = dynCastStmt<BlkMovStmt>(&S)) {
      if (B->Dir == BlkMovDir::ReadToLocal)
        ++C.BlkMovReads;
      else
        ++C.BlkMovWrites;
    }
  });
  return C;
}

//===----------------------------------------------------------------------===//
// Figure 3: distance().
//===----------------------------------------------------------------------===//

const char *DistanceProgram = R"(
  struct Point { double x; double y; };
  double distance(Point *p) {
    double dist_p;
    dist_p = sqrt(p->x * p->x + p->y * p->y);
    return dist_p;
  }
)";

TEST(Figure3Test, RedundantReadsCollapseToTwo) {
  // Paper Figure 3(c): four remote reads become two pipelined reads
  // (2 fields < the 3-word blocking threshold).
  Optimized O = optimize(DistanceProgram, "distance");
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.RemoteReads, 2);
  EXPECT_EQ(C.BlkMovReads, 0);
  EXPECT_EQ(C.total(), 2);
  EXPECT_EQ(O.Stats.get("select.pipelined_reads"), 2u);
  EXPECT_GE(O.Stats.get("select.rewritten_reads"), 4u);
}

TEST(Figure3Test, LowerThresholdSelectsBlocking) {
  // Paper Figure 3(d): with blocking allowed at 2 words, the whole Point
  // moves with one blkmov.
  CommOptions Opts;
  Opts.BlockThresholdWords = 2;
  Optimized O = optimize(DistanceProgram, "distance", Opts);
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.BlkMovReads, 1);
  EXPECT_EQ(C.RemoteReads, 0);
  EXPECT_EQ(C.total(), 1);
}

TEST(Figure3Test, ReadsMoveToFunctionTop) {
  Optimized O = optimize(DistanceProgram, "distance");
  // The first two basic statements must be the comm reads.
  const auto &Body = O.F->body().Stmts;
  ASSERT_GE(Body.size(), 2u);
  const auto *A0 = dynCastStmt<AssignStmt>(Body[0].get());
  const auto *A1 = dynCastStmt<AssignStmt>(Body[1].get());
  ASSERT_NE(A0, nullptr);
  ASSERT_NE(A1, nullptr);
  EXPECT_TRUE(A0->isRemoteRead());
  EXPECT_TRUE(A1->isRemoteRead());
  EXPECT_EQ(A0->L.V->kind(), VarKind::CommTemp);
  EXPECT_EQ(A1->L.V->kind(), VarKind::CommTemp);
}

//===----------------------------------------------------------------------===//
// Figure 4: scale_point().
//===----------------------------------------------------------------------===//

const char *ScalePointProgram = R"(
  struct Point { double x; double y; };
  double scale(double v, double k) { return v * k; }
  void scale_point(Point *p, double k) {
    p->x = scale(p->x, k);
    p->y = scale(p->y, k);
  }
)";

TEST(Figure4Test, ReadsHoistWritesStayAtThreshold3) {
  // With the default threshold the two writes cannot block (2 < 3), so
  // they stay put; the two reads pipeline at the top (Figure 4(c)).
  Optimized O = optimize(ScalePointProgram, "scale_point");
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.RemoteReads, 2);
  EXPECT_EQ(C.RemoteWrites, 2);
  EXPECT_EQ(C.BlkMovReads, 0);
  EXPECT_EQ(C.BlkMovWrites, 0);
}

TEST(Figure4Test, LowerThresholdBlocksReadsAndWrites) {
  // Figure 4(d): blkmov in, compute locally, blkmov out.
  CommOptions Opts;
  Opts.BlockThresholdWords = 2;
  Optimized O = optimize(ScalePointProgram, "scale_point", Opts);
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.BlkMovReads, 1);
  EXPECT_EQ(C.BlkMovWrites, 1);
  EXPECT_EQ(C.RemoteReads, 0);
  EXPECT_EQ(C.RemoteWrites, 0);
  EXPECT_EQ(C.total(), 2);
  // The write-back must be the last statement.
  const auto *Last = O.F->body().Stmts.back().get();
  const auto *B = dynCastStmt<BlkMovStmt>(Last);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->Dir, BlkMovDir::WriteFromLocal);
}

//===----------------------------------------------------------------------===//
// Figure 8: selection over the Figure 7 program.
//===----------------------------------------------------------------------===//

const char *Figure8Program = R"(
  struct Point { double x; double y; Point *next; };
  double f(double ax, double ay, double bx, double by) {
    return ax - bx + ay - by;
  }
  double closest(Point *head, Point *t, double epsilon) {
    Point *p;
    Point *close;
    double ax; double ay; double bx; double by; double dist;
    double cx; double tx; double diffx; double cy; double ty; double diffy;
    p = head;
    while (p != NULL) {
      ax = p->x;
      ay = p->y;
      bx = t->x;
      by = t->y;
      dist = f(ax, ay, bx, by);
      if (dist < epsilon) { close = p; }
      p = p->next;
    }
    cx = close->x;
    tx = t->x;
    diffx = cx - tx;
    cy = close->y;
    ty = t->y;
    diffy = cy - ty;
    return diffx + diffy;
  }
)";

TEST(Figure8Test, MatchesPaperSelection) {
  Optimized O = optimize(Figure8Program, "closest");
  OpCounts C = countOps(*O.F);
  // Paper Figure 8(b): two pipelined reads of t before the loop, one
  // blkmov of p per loop iteration, two pipelined reads of close after
  // the loop. Statically: 4 scalar remote reads + 1 blkmov.
  EXPECT_EQ(C.RemoteReads, 4);
  EXPECT_EQ(C.BlkMovReads, 1);
  EXPECT_EQ(C.RemoteWrites, 0);
  EXPECT_EQ(C.BlkMovWrites, 0);

  // The blkmov must be the first statement of the loop body.
  const WhileStmt *Loop = nullptr;
  forEachStmt(O.F->body(), [&](const Stmt &S) {
    if (!Loop)
      if (const auto *W = dynCastStmt<WhileStmt>(&S))
        Loop = W;
  });
  ASSERT_NE(Loop, nullptr);
  ASSERT_FALSE(Loop->Body->empty());
  const auto *B = dynCastStmt<BlkMovStmt>(Loop->Body->Stmts.front().get());
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->Dir, BlkMovDir::ReadToLocal);
  EXPECT_EQ(B->Words, 3u);

  // Inside the loop, the reads of t must be rewritten to comm temps: no
  // remote reads may remain in the body.
  int BodyRemote = 0;
  forEachStmt(*Loop->Body, [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (A->isRemoteRead())
        ++BodyRemote;
  });
  EXPECT_EQ(BodyRemote, 0);

  // The two t-reads must come before the loop (first two statements).
  const auto &Body = O.F->body().Stmts;
  const auto *A0 = dynCastStmt<AssignStmt>(Body[0].get());
  const auto *A1 = dynCastStmt<AssignStmt>(Body[1].get());
  ASSERT_NE(A0, nullptr);
  ASSERT_NE(A1, nullptr);
  EXPECT_TRUE(A0->isRemoteRead());
  EXPECT_TRUE(A1->isRemoteRead());
}

TEST(Figure8Test, TReadsReusedAfterLoop) {
  Optimized O = optimize(Figure8Program, "closest");
  // After the loop, tx/ty must be plain copies from the comm temps, not
  // fresh remote reads: exactly two new remote reads (close->x, close->y)
  // appear after the loop.
  std::string Printed = printFunction(*O.F);
  // tx = comm...; ty = comm...
  EXPECT_NE(Printed.find("tx = comm"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("ty = comm"), std::string::npos) << Printed;
  // p = bcomm1.next replaces the remote pointer chase.
  EXPECT_NE(Printed.find("p = bcomm1.next"), std::string::npos) << Printed;
}

//===----------------------------------------------------------------------===//
// Coherence and safety.
//===----------------------------------------------------------------------===//

TEST(CoherenceTest, StoreRefreshesPipelinedTemp) {
  // v1 = p->x; p->x = 2.0; v2 = p->x — the second read may reuse the temp
  // only if the store refreshed it.
  Optimized O = optimize(R"(
    struct Point { double x; double y; };
    double f(Point *p) {
      double v1; double v2;
      v1 = p->x;
      p->x = 2.0;
      v2 = p->x;
      return v1 + v2;
    }
  )",
                         "f");
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.RemoteReads, 1);  // One hoisted read; second rewritten.
  EXPECT_EQ(C.RemoteWrites, 1); // Store remains (no blocking at 2 fields).
  EXPECT_GE(O.Stats.get("select.coherence_updates"), 1u);
}

TEST(CoherenceTest, BlockedGroupAbsorbsReadsAndWrites) {
  // Three fields: read-blocked; the store rewrites into the block and a
  // blocked write-back lands at the end.
  Optimized O = optimize(R"(
    struct T { double a; double b; double c; };
    double f(T *p) {
      double v1; double v2; double v3;
      v1 = p->a;
      v2 = p->b;
      v3 = p->c;
      p->a = v1 + 1.0;
      p->b = v2 + 1.0;
      p->c = v3 + 1.0;
      return v1 + v2 + v3;
    }
  )",
                         "f");
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.BlkMovReads, 1);
  EXPECT_EQ(C.BlkMovWrites, 1);
  EXPECT_EQ(C.RemoteReads, 0);
  EXPECT_EQ(C.RemoteWrites, 0);
  EXPECT_EQ(C.total(), 2); // 6 remote ops became 2.
}

TEST(SafetyTest, NoHoistWithoutGuaranteedDeref) {
  // The read of p->x happens only when c is true; hoisting it above the
  // condition would introduce a potential null dereference. Frequency is
  // 0.5 at the top and the deref check also fails there, so the read must
  // stay inside the branch.
  Optimized O = optimize(R"(
    struct Point { double x; double y; };
    double f(Point *p, int c) {
      double v;
      v = 0.0;
      if (c > 0) {
        v = p->x;
      }
      return v;
    }
  )",
                         "f");
  const IfStmt *If = nullptr;
  forEachStmt(O.F->body(), [&](const Stmt &S) {
    if (!If)
      If = dynCastStmt<IfStmt>(&S);
  });
  ASSERT_NE(If, nullptr);
  int ReadsInThen = 0;
  forEachStmt(*If->Then, [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (A->isRemoteRead())
        ++ReadsInThen;
  });
  EXPECT_EQ(ReadsInThen, 1);
  // Nothing before the if may be a remote read.
  const auto *First = dynCastStmt<AssignStmt>(O.F->body().Stmts[0].get());
  ASSERT_NE(First, nullptr);
  EXPECT_FALSE(First->isRemoteRead());
}

TEST(SafetyTest, WriteStaysWhenOnlyOneBranchWrites) {
  Optimized O = optimize(R"(
    struct T { double a; double b; double c; };
    void f(T *p, int c) {
      double z;
      if (c > 0) {
        p->a = 1.0;
        p->b = 2.0;
        p->c = 3.0;
      }
      z = 0.0;
    }
  )",
                         "f");
  // The three writes are inside the branch; a blocked group may form
  // *inside* the then-branch, but no write-back may appear after the if
  // (the else path must not write).
  const auto &Body = O.F->body().Stmts;
  for (const auto &S : Body)
    if (const auto *B = dynCastStmt<BlkMovStmt>(S.get())) {
      EXPECT_NE(B->Dir, BlkMovDir::WriteFromLocal)
          << "write-back escaped the conditional";
    }
}

TEST(SafetyTest, AliasWritePreventsReuse) {
  Optimized O = optimize(R"(
    struct Point { double x; double y; };
    double f(Point *p) {
      Point *q;
      double v1; double v2;
      q = p;
      v1 = p->x;
      q->x = 9.0;
      v2 = p->x;
      return v1 + v2;
    }
  )",
                         "f");
  OpCounts C = countOps(*O.F);
  // The aliased store q->x kills the cached copy: both reads stay remote.
  EXPECT_EQ(C.RemoteReads, 2);
}

//===----------------------------------------------------------------------===//
// Option toggles (ablations).
//===----------------------------------------------------------------------===//

TEST(OptionsTest, AllOffLeavesProgramUntouched) {
  CommOptions Opts;
  Opts.EnableReadMotion = false;
  Opts.EnableBlocking = false;
  Opts.EnableRedundancyElim = false;
  Opts.EnableWriteBlocking = false;

  DiagnosticsEngine Diags;
  auto M1 = compileToSimple(DistanceProgram, Diags);
  auto M2 = compileToSimple(DistanceProgram, Diags);
  Statistics Stats;
  std::vector<std::string> Errors;
  ASSERT_TRUE(optimizeModuleCommunication(*M2, Opts, Stats, Errors));
  EXPECT_EQ(printModule(*M1), printModule(*M2));
}

TEST(OptionsTest, RedundancyElimWithoutMotion) {
  CommOptions Opts;
  Opts.EnableReadMotion = false;
  Opts.EnableBlocking = false;
  Opts.EnableWriteBlocking = false;
  Optimized O = optimize(DistanceProgram, "distance", Opts);
  OpCounts C = countOps(*O.F);
  // temp copies of p->x / p->y are reused in place: 2 remote reads remain.
  EXPECT_EQ(C.RemoteReads, 2);
}

TEST(OptionsTest, BlockingDisabledFallsBackToPipelining) {
  CommOptions Opts;
  Opts.EnableBlocking = false;
  Optimized O = optimize(Figure8Program, "closest", Opts);
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.BlkMovReads, 0);
  // p->x, p->y, p->next pipelined in the loop + t and close reads outside.
  EXPECT_EQ(C.RemoteReads, 7);
}

TEST(OptionsTest, OverfetchGuardPipelines) {
  // 3 fields used out of a 16-word struct: with MaxBlockOverfetch=4 the
  // block would move 16 > 4*3 words... 16 <= 12 fails, so pipelined.
  CommOptions Opts;
  Optimized O = optimize(R"(
    struct Big {
      double f0; double f1; double f2; double f3;
      double f4; double f5; double f6; double f7;
      double f8; double f9; double f10; double f11;
      double f12; double f13; double f14; double f15;
      double f16;
    };
    double f(Big *p) {
      double a; double b; double c;
      a = p->f0;
      b = p->f1;
      c = p->f2;
      return a + b + c;
    }
  )",
                         "f", Opts);
  OpCounts C = countOps(*O.F);
  EXPECT_EQ(C.BlkMovReads, 0);
  EXPECT_EQ(C.RemoteReads, 3);
}

TEST(VerifyTest, TransformedModulesAlwaysVerify) {
  for (const char *Src : {DistanceProgram, ScalePointProgram,
                          Figure8Program}) {
    for (unsigned Threshold : {1u, 2u, 3u, 4u}) {
      CommOptions Opts;
      Opts.BlockThresholdWords = Threshold;
      DiagnosticsEngine Diags;
      auto M = compileToSimple(Src, Diags);
      ASSERT_FALSE(Diags.hasErrors());
      Statistics Stats;
      std::vector<std::string> Errors;
      EXPECT_TRUE(optimizeModuleCommunication(*M, Opts, Stats, Errors))
          << "threshold " << Threshold << ": "
          << (Errors.empty() ? "" : Errors[0]);
    }
  }
}

} // namespace
