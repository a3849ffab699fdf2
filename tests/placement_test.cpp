//===- placement_test.cpp - Possible-placement analysis tests --------------===//
//
// Part of the earthcc project.
//
// The centerpiece is a statement-by-statement check of the paper's Figure 7
// example: the RemoteReads sets our analysis computes must match the sets
// printed in the paper.
//
//===----------------------------------------------------------------------===//

#include "analysis/Placement.h"
#include "analysis/PointsTo.h"
#include "analysis/SideEffects.h"
#include "frontend/Simplify.h"
#include "simple/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace earthcc;

namespace {

struct Compiled {
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  std::unique_ptr<PointsToAnalysis> PT;
  std::unique_ptr<SideEffects> SE;
  PlacementResult PR;
};

Compiled analyze(const std::string &Src, const std::string &FuncName,
                 PlacementOptions Opts = {}) {
  DiagnosticsEngine Diags;
  Compiled C;
  C.M = compileToSimple(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  C.F = C.M->findFunction(FuncName);
  EXPECT_NE(C.F, nullptr);
  C.PT = std::make_unique<PointsToAnalysis>(*C.M);
  C.SE = std::make_unique<SideEffects>(*C.M, *C.PT);
  C.PR = runPlacementAnalysis(*C.F, *C.SE, Opts);
  return C;
}

/// Finds the first basic statement whose printed form contains \p Needle.
const Stmt *findStmt(const Function &F, const std::string &Needle) {
  const Stmt *Found = nullptr;
  forEachStmt(F.body(), [&](const Stmt &S) {
    if (Found || !S.isBasic())
      return;
    std::string Text = printStmt(S, PrintOptions{/*ShowLabels=*/false});
    if (Text.find(Needle) != std::string::npos)
      Found = &S;
  });
  return Found;
}

/// Renders an RCE set as "base->field:freq" terms, sorted, for compact
/// assertions that ignore statement labels.
std::string summarize(const std::vector<RCE> &Set) {
  std::vector<std::string> Terms;
  for (const RCE &T : Set) {
    std::ostringstream OS;
    OS << T.Base->name() << "->" << T.FieldName << ":" << T.Freq;
    Terms.push_back(OS.str());
  }
  std::sort(Terms.begin(), Terms.end());
  std::string Out;
  for (const std::string &S : Terms)
    Out += (Out.empty() ? "" : " ") + S;
  return Out;
}

//===----------------------------------------------------------------------===//
// Figure 7: backward propagation of RemoteReads.
//===----------------------------------------------------------------------===//

const char *Figure7Program = R"(
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

TEST(Figure7Test, SetBeforeLoopMatchesPaper) {
  Compiled C = analyze(Figure7Program, "closest");
  // Paper, before S1/S2: { (t->x, 11, S11:S4), (t->y, 11, S12:S7) }.
  const Stmt *S1 = findStmt(*C.F, "p = head");
  ASSERT_NE(S1, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(S1)), "t->x:11 t->y:11");

  const Stmt *Loop = nullptr;
  forEachStmt(C.F->body(), [&](const Stmt &S) {
    if (!Loop && S.kind() == StmtKind::While)
      Loop = &S;
  });
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(Loop)), "t->x:11 t->y:11");
}

TEST(Figure7Test, DlistsCoverLoopAndAfterLoopUses) {
  Compiled C = analyze(Figure7Program, "closest");
  const Stmt *S1 = findStmt(*C.F, "p = head");
  ASSERT_NE(S1, nullptr);
  const auto &Set = C.PR.readsBefore(S1);
  ASSERT_EQ(Set.size(), 2u);
  // Each tuple must cover exactly two statements: the in-loop read and the
  // after-loop read (paper: S11:S4 and S12:S7).
  for (const RCE &T : Set) {
    EXPECT_EQ(T.DList.size(), 2u) << T.str();
    const Stmt *InLoop =
        findStmt(*C.F, T.FieldName == "x" ? "bx = t->x" : "by = t->y");
    const Stmt *AfterLoop =
        findStmt(*C.F, T.FieldName == "x" ? "tx = t->x" : "ty = t->y");
    ASSERT_NE(InLoop, nullptr);
    ASSERT_NE(AfterLoop, nullptr);
    EXPECT_TRUE(std::count(T.DList.begin(), T.DList.end(), InLoop->label()));
    EXPECT_TRUE(
        std::count(T.DList.begin(), T.DList.end(), AfterLoop->label()));
  }
}

TEST(Figure7Test, SetAtLoopBodyTopMatchesPaper) {
  Compiled C = analyze(Figure7Program, "closest");
  // Paper, before S9 (= ax = p->x):
  //   { (p->next,1,S15), (p->y,1,S10), (p->x,1,S9), (t->y,1,S12),
  //     (t->x,1,S11) }.
  const Stmt *S9 = findStmt(*C.F, "ax = p->x");
  ASSERT_NE(S9, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(S9)),
            "p->next:1 p->x:1 p->y:1 t->x:1 t->y:1");
}

TEST(Figure7Test, SetAfterLoopMatchesPaper) {
  Compiled C = analyze(Figure7Program, "closest");
  // Paper, before S3 (= cx = close->x):
  //   { (t->y,1,S7), (close->y,1,S6), (t->x,1,S4), (close->x,1,S3) }.
  const Stmt *S3 = findStmt(*C.F, "cx = close->x");
  ASSERT_NE(S3, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(S3)),
            "close->x:1 close->y:1 t->x:1 t->y:1");
}

TEST(Figure7Test, PTupleKilledByPointerUpdate) {
  Compiled C = analyze(Figure7Program, "closest");
  // Before S15 (p = p->next), only (p->next,1,S15) remains — everything
  // else in the body is above it; and the tuple must not survive into the
  // set before the loop (p is written inside).
  const Stmt *S15 = findStmt(*C.F, "p = p->next");
  ASSERT_NE(S15, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(S15)), "p->next:1");
}

TEST(Figure7Test, CloseTuplesDoNotCrossLoop) {
  Compiled C = analyze(Figure7Program, "closest");
  const Stmt *S1 = findStmt(*C.F, "p = head");
  for (const RCE &T : C.PR.readsBefore(S1))
    EXPECT_NE(T.Base->name(), "close")
        << "close is written in the loop; its reads must not hoist above it";
}

//===----------------------------------------------------------------------===//
// Frequency adjustment rules.
//===----------------------------------------------------------------------===//

TEST(FrequencyTest, ConditionalHalvesFrequency) {
  Compiled C = analyze(R"(
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
  const Stmt *VInit = findStmt(*C.F, "v = 0");
  ASSERT_NE(VInit, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(VInit)), "p->x:0.5");
}

TEST(FrequencyTest, BothBranchesSumToOne) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p, int c) {
      double v;
      v = 0.0;
      if (c > 0) {
        v = p->x;
      } else {
        v = p->x;
      }
      return v;
    }
  )",
                       "f");
  const Stmt *VInit = findStmt(*C.F, "v = 0");
  EXPECT_EQ(summarize(C.PR.readsBefore(VInit)), "p->x:1");
}

TEST(FrequencyTest, SwitchDividesByAlternatives) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p, int c) {
      double v;
      v = 0.0;
      switch (c) {
      case 0: v = p->x; break;
      case 1: v = 1.0; break;
      case 2: v = 2.0; break;
      default: v = 3.0; break;
      }
      return v;
    }
  )",
                       "f");
  const Stmt *VInit = findStmt(*C.F, "v = 0");
  // 4 alternatives (3 cases + default): freq 1/4.
  EXPECT_EQ(summarize(C.PR.readsBefore(VInit)), "p->x:0.25");
}

TEST(FrequencyTest, LoopMultipliesByTen) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p, int n) {
      double s;
      int i;
      s = 0.0;
      i = 0;
      while (i < n) {
        s = s + p->x;
        i = i + 1;
      }
      return s;
    }
  )",
                       "f");
  const Stmt *SInit = findStmt(*C.F, "s = 0");
  ASSERT_NE(SInit, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(SInit)), "p->x:10");
}

TEST(FrequencyTest, NestedLoopMultipliesTwice) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p, int n) {
      double s;
      int i; int j;
      s = 0.0;
      i = 0;
      while (i < n) {
        j = 0;
        while (j < n) {
          s = s + p->x;
          j = j + 1;
        }
        i = i + 1;
      }
      return s;
    }
  )",
                       "f");
  const Stmt *SInit = findStmt(*C.F, "s = 0");
  EXPECT_EQ(summarize(C.PR.readsBefore(SInit)), "p->x:100");
}

//===----------------------------------------------------------------------===//
// Kill rules: aliases and calls.
//===----------------------------------------------------------------------===//

TEST(KillRuleTest, AliasWriteKillsReadTuple) {
  // q aliases p (q = p), so the write q->x = 0 kills hoisting of p->x.
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p) {
      Point *q;
      double v;
      q = p;
      q->x = 0.0;
      v = p->x;
      return v;
    }
  )",
                       "f");
  const Stmt *Store = findStmt(*C.F, "q->x");
  ASSERT_NE(Store, nullptr);
  // Before the store, the read of p->x must NOT be placeable.
  EXPECT_EQ(summarize(C.PR.readsBefore(Store)), "");
}

TEST(KillRuleTest, DirectWriteDoesNotKillReadTuple) {
  // Paper: a direct write via p->f does not kill (p->f) read tuples —
  // blocked communication absorbs both into the local struct.
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p) {
      double v;
      p->x = 1.0;
      v = p->x;
      return v;
    }
  )",
                       "f");
  const Stmt *Store = findStmt(*C.F, "p->x{r} = ");
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(Store)), "p->x:1");
}

TEST(KillRuleTest, UnrelatedFieldWriteDoesNotKill) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p, Point *q) {
      double v;
      q->y = 0.0;
      v = p->x;
      return v;
    }
  )",
                       "f");
  const Stmt *Store = findStmt(*C.F, "q->y");
  ASSERT_NE(Store, nullptr);
  // Different field offsets never alias, even though p/q might.
  EXPECT_EQ(summarize(C.PR.readsBefore(Store)), "p->x:1");
}

TEST(KillRuleTest, CallWritingHeapKillsReadTuple) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    void clobber(Point *r) { r->x = 0.0; }
    double f(Point *p) {
      double v;
      clobber(p);
      v = p->x;
      return v;
    }
  )",
                       "f");
  const Stmt *Call = findStmt(*C.F, "clobber(p)");
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(Call)), "");
}

TEST(KillRuleTest, PureCallDoesNotKill) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    int pure(int a) { return a + 1; }
    double f(Point *p, int c) {
      double v;
      int r;
      r = pure(c);
      v = p->x;
      return v;
    }
  )",
                       "f");
  const Stmt *Call = findStmt(*C.F, "pure(c)");
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(Call)), "p->x:1");
}

TEST(KillRuleTest, RecursiveCalleeSummariesConverge) {
  Compiled C = analyze(R"(
    struct node { int v; node *next; };
    void zap(node *n) {
      if (n != NULL) {
        n->v = 0;
        zap(n);
      }
    }
    int f(node *p) {
      int v;
      zap(p);
      v = p->v;
      return v;
    }
  )",
                       "f");
  const Stmt *Call = findStmt(*C.F, "zap(p)");
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(summarize(C.PR.readsBefore(Call)), "");
}

//===----------------------------------------------------------------------===//
// RemoteWrites: forward propagation.
//===----------------------------------------------------------------------===//

TEST(WritesTest, WritesSinkToFunctionEnd) {
  // scale_point (paper Figure 4): both stores can sink to the end.
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double scale(double v, double k) { return v * k; }
    void scale_point(Point *p, double k) {
      double t1; double t2; double t3; double t4;
      t1 = p->x;
      t2 = scale(t1, k);
      p->x = t2;
      t3 = p->y;
      t4 = scale(t3, k);
      p->y = t4;
    }
  )",
                       "scale_point");
  const Stmt *Last = findStmt(*C.F, "p->y{r} = t4");
  ASSERT_NE(Last, nullptr);
  // After the last statement both writes are placeable.
  EXPECT_EQ(summarize(C.PR.writesAfter(Last)), "p->x:1 p->y:1");
}

TEST(WritesTest, DirectReadDoesNotBlockSinking) {
  // Per the paper's rule, only *aliased* reads kill write tuples; a direct
  // read via p is rewritten onto the local copy by the transformation.
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p) {
      double v;
      p->x = 1.0;
      v = p->x;
      return v;
    }
  )",
                       "f");
  const Stmt *Read = findStmt(*C.F, "v = p->x");
  ASSERT_NE(Read, nullptr);
  EXPECT_EQ(summarize(C.PR.writesAfter(Read)), "p->x:1");
}

TEST(WritesTest, AliasedReadBlocksSinking) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    double f(Point *p) {
      Point *q;
      double v;
      q = p;
      p->x = 1.0;
      v = q->x;
      return v;
    }
  )",
                       "f");
  const Stmt *Read = findStmt(*C.F, "v = q->x");
  ASSERT_NE(Read, nullptr);
  EXPECT_EQ(summarize(C.PR.writesAfter(Read)), "");
}

TEST(WritesTest, WriteOnlyInOneBranchStaysInside) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    void f(Point *p, int c) {
      if (c > 0) {
        p->x = 1.0;
      }
    }
  )",
                       "f");
  const Stmt *If = nullptr;
  forEachStmt(C.F->body(), [&](const Stmt &S) {
    if (!If && S.kind() == StmtKind::If)
      If = &S;
  });
  ASSERT_NE(If, nullptr);
  EXPECT_EQ(summarize(C.PR.writesAfter(If)), "");
}

TEST(WritesTest, WriteInBothBranchesSinksBelowIf) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    void f(Point *p, int c) {
      double z;
      if (c > 0) {
        p->x = 1.0;
      } else {
        p->x = 2.0;
      }
      z = 0.0;
    }
  )",
                       "f");
  const Stmt *If = nullptr;
  forEachStmt(C.F->body(), [&](const Stmt &S) {
    if (!If && S.kind() == StmtKind::If)
      If = &S;
  });
  ASSERT_NE(If, nullptr);
  EXPECT_EQ(summarize(C.PR.writesAfter(If)), "p->x:1");
}

TEST(WritesTest, WritesNeverLeaveLoops) {
  Compiled C = analyze(R"(
    struct node { int v; node *next; };
    void f(node *p, int n) {
      int i;
      i = 0;
      while (i < n) {
        p->v = i;
        i = i + 1;
      }
    }
  )",
                       "f");
  const Stmt *Loop = nullptr;
  forEachStmt(C.F->body(), [&](const Stmt &S) {
    if (!Loop && S.kind() == StmtKind::While)
      Loop = &S;
  });
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(summarize(C.PR.writesAfter(Loop)), "");
}

TEST(WritesTest, ReturnBlocksSinking) {
  Compiled C = analyze(R"(
    struct Point { double x; double y; };
    int f(Point *p, int c) {
      p->x = 1.0;
      if (c > 0) {
        return 1;
      }
      return 0;
    }
  )",
                       "f");
  // The write may not sink below the conditional return.
  const Stmt *If = nullptr;
  forEachStmt(C.F->body(), [&](const Stmt &S) {
    if (!If && S.kind() == StmtKind::If)
      If = &S;
  });
  ASSERT_NE(If, nullptr);
  EXPECT_EQ(summarize(C.PR.writesAfter(If)), "");
}

//===----------------------------------------------------------------------===//
// Options.
//===----------------------------------------------------------------------===//

TEST(OptionsTest, PessimisticConditionalReads) {
  PlacementOptions Opts;
  Opts.OptimisticConditionalReads = false;
  Compiled C = analyze(R"(
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
                       "f", Opts);
  const Stmt *VInit = findStmt(*C.F, "v = 0");
  EXPECT_EQ(summarize(C.PR.readsBefore(VInit)), "");
}

} // namespace
