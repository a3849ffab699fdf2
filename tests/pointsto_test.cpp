//===- pointsto_test.cpp - Points-to and side-effect analysis tests --------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"
#include "analysis/SideEffects.h"
#include "frontend/Simplify.h"

#include <gtest/gtest.h>

using namespace earthcc;

namespace {

struct Analyzed {
  std::unique_ptr<Module> M;
  std::unique_ptr<PointsToAnalysis> PT;
  std::unique_ptr<SideEffects> SE;
};

Analyzed analyze(const std::string &Src) {
  DiagnosticsEngine Diags;
  Analyzed A;
  A.M = compileToSimple(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  A.PT = std::make_unique<PointsToAnalysis>(*A.M);
  A.SE = std::make_unique<SideEffects>(*A.M, *A.PT);
  return A;
}

const Var *var(const Analyzed &A, const std::string &Fn,
               const std::string &Name) {
  Function *F = A.M->findFunction(Fn);
  EXPECT_NE(F, nullptr);
  Var *V = F->findVar(Name);
  EXPECT_NE(V, nullptr) << Name;
  return V;
}

TEST(PointsToTest, ParametersGetAnchors) {
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    int f(node *p, node *q) { return 0; }
  )");
  const Var *P = var(A, "f", "p");
  const Var *Q = var(A, "f", "q");
  EXPECT_EQ(A.PT->pointsTo(P).size(), 1u);
  EXPECT_EQ(A.PT->pointsTo(Q).size(), 1u);
  // Distinct parameters do not alias (Figure 7 relies on this for p / t).
  EXPECT_FALSE(A.PT->mayAlias(P, 0, Q, 0));
  // The same parameter aliases itself at equal offsets only.
  EXPECT_TRUE(A.PT->mayAlias(P, 0, P, 0));
  EXPECT_FALSE(A.PT->mayAlias(P, 0, P, 1));
}

TEST(PointsToTest, CopiesAlias) {
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    int f(node *p) {
      node *q;
      q = p;
      return q->v;
    }
  )");
  EXPECT_TRUE(A.PT->mayAlias(var(A, "f", "p"), 0, var(A, "f", "q"), 0));
}

TEST(PointsToTest, RegionCollapsesRecursiveStructures) {
  // q = p->next: q points into p's region -> same-offset accesses alias.
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    int f(node *p) {
      node *q;
      q = p->next;
      return q->v;
    }
  )");
  EXPECT_TRUE(A.PT->mayAlias(var(A, "f", "p"), 0, var(A, "f", "q"), 0));
}

TEST(PointsToTest, TypeSegregatedRegionsDoNotAlias) {
  // Lists hanging off a village are a different region than the village
  // itself: cell->forward must not alias village fields (the connection-
  // analysis precision the health benchmark needs).
  Analyzed A = analyze(R"(
    struct patient { int t; };
    struct list { patient *pat; list *forward; };
    struct village { list *waiting; int label; };
    int f(village *v) {
      list *c;
      c = v->waiting;
      c->forward = NULL;
      return v->label;
    }
  )");
  const Var *V = var(A, "f", "v");
  const Var *C = var(A, "f", "c");
  EXPECT_FALSE(A.PT->mayAlias(V, 1, C, 1));
  // But two list cells alias each other.
  EXPECT_TRUE(A.PT->mayAlias(C, 1, C, 1));
}

TEST(PointsToTest, AllocationSitesAreDistinct) {
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    int f() {
      node *a; node *b;
      a = pmalloc(sizeof(node));
      b = pmalloc(sizeof(node));
      a->v = 1;
      b->v = 2;
      return a->v + b->v;
    }
  )");
  EXPECT_FALSE(A.PT->mayAlias(var(A, "f", "a"), 0, var(A, "f", "b"), 0));
}

TEST(PointsToTest, CallBindingFlowsPointsTo) {
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    int helper(node *h) { return h->v; }
    int f() {
      node *a;
      a = pmalloc(sizeof(node));
      a->v = 3;
      return helper(a);
    }
  )");
  // helper's parameter includes f's allocation site (plus its own anchor).
  const Var *H = var(A, "helper", "h");
  const Var *Av = var(A, "f", "a");
  EXPECT_TRUE(A.PT->mayAlias(H, 0, Av, 0));
}

TEST(PointsToTest, ReturnValueFlows) {
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    node *make() {
      node *a;
      a = pmalloc(sizeof(node));
      return a;
    }
    int f() {
      node *x;
      x = make();
      x->v = 1;
      return x->v;
    }
  )");
  EXPECT_TRUE(
      A.PT->mayAlias(var(A, "f", "x"), 0, var(A, "make", "a"), 0));
}

TEST(PointsToTest, AddrOfFieldTracksOffsets) {
  Analyzed A = analyze(R"(
    struct cell { int v; };
    struct box { int pad; cell c; };
    int f(box *b) {
      cell *inner;
      int x;
      inner = &(b->c);
      inner->v = 1;
      x = b->pad;
      return x;
    }
  )");
  const Var *B = var(A, "f", "b");
  const Var *Inner = var(A, "f", "inner");
  // inner->v is b's word 1; b->pad is word 0.
  EXPECT_TRUE(A.PT->mayAlias(B, 1, Inner, 0));
  EXPECT_FALSE(A.PT->mayAlias(B, 0, Inner, 0));
}

//===----------------------------------------------------------------------===//
// Side effects.
//===----------------------------------------------------------------------===//


TEST(SideEffectsTest, FunctionSummariesAreInterprocedural) {
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    void deep(node *n) { n->v = 0; }
    void mid(node *m) { deep(m); }
    int f(node *p) { mid(p); return 1; }
  )");
  const Function *Mid = A.M->findFunction("mid");
  // mid writes (transitively) what deep writes.
  EXPECT_FALSE(A.SE->functionWrites(Mid).empty());
}

TEST(SideEffectsTest, VarWrittenSeesCallResults) {
  Analyzed A = analyze(R"(
    int g() { return 1; }
    int f() {
      int x;
      x = g();
      return x;
    }
  )");
  Function *F = A.M->findFunction("f");
  const Var *X = F->findVar("x");
  bool Found = false;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (S.kind() == StmtKind::Call)
      Found = A.SE->varWritten(X, S);
  });
  EXPECT_TRUE(Found);
}

TEST(SideEffectsTest, DirectReadsDetected) {
  Analyzed A = analyze(R"(
    struct node { int v; node *next; };
    int f(node *p, node *q) {
      int x;
      x = p->v;
      return x;
    }
  )");
  Function *F = A.M->findFunction("f");
  const Var *P = F->findVar("p");
  const Var *Q = F->findVar("q");
  EXPECT_TRUE(A.SE->directlyReads(P, F->body()));
  EXPECT_FALSE(A.SE->directlyReads(Q, F->body()));
}

TEST(SideEffectsTest, ContainsReturn) {
  Analyzed A = analyze(R"(
    int f(int c) {
      if (c > 0) { return 1; }
      return 0;
    }
  )");
  Function *F = A.M->findFunction("f");
  EXPECT_TRUE(A.SE->containsReturn(F->body()));
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (S.kind() == StmtKind::If) {
      EXPECT_TRUE(A.SE->containsReturn(S));
    }
  });
}

} // namespace
