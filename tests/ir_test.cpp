//===- ir_test.cpp - Unit tests for the SIMPLE IR --------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "simple/Function.h"
#include "simple/IRBuilder.h"
#include "simple/Printer.h"
#include "simple/Verifier.h"

#include <gtest/gtest.h>

using namespace earthcc;

namespace {

/// Builds `struct Point { double x; double y; };` in \p M.
StructType *makePointStruct(Module &M) {
  StructType *S = M.types().createStruct("Point");
  S->addField("x", M.types().doubleTy());
  S->addField("y", M.types().doubleTy());
  S->finalize();
  return S;
}

TEST(TypeTest, ScalarSizes) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.intTy()->sizeInWords(), 1u);
  EXPECT_EQ(Ctx.doubleTy()->sizeInWords(), 1u);
  EXPECT_EQ(Ctx.voidTy()->sizeInWords(), 0u);
  EXPECT_EQ(Ctx.pointerTo(Ctx.intTy())->sizeInWords(), 1u);
}

TEST(TypeTest, PointerInterning) {
  TypeContext Ctx;
  const Type *P1 = Ctx.pointerTo(Ctx.intTy());
  const Type *P2 = Ctx.pointerTo(Ctx.intTy());
  const Type *PL = Ctx.pointerTo(Ctx.intTy(), /*LocalQual=*/true);
  EXPECT_EQ(P1, P2);
  EXPECT_NE(P1, PL);
  EXPECT_TRUE(PL->isLocalPointer());
  EXPECT_FALSE(P1->isLocalPointer());
}

TEST(TypeTest, StructLayout) {
  Module M;
  StructType *S = M.types().createStruct("node");
  S->addField("value", M.types().intTy());
  S->addField("next",
              M.types().pointerTo(M.types().structTy(S)));
  S->finalize();
  EXPECT_EQ(S->sizeInWords(), 2u);
  EXPECT_EQ(S->findField("value")->OffsetWords, 0u);
  EXPECT_EQ(S->findField("next")->OffsetWords, 1u);
  EXPECT_EQ(S->findField("missing"), nullptr);
}

TEST(TypeTest, NestedStructLayout) {
  Module M;
  StructType *Inner = M.types().createStruct("D");
  Inner->addField("P", M.types().doubleTy());
  Inner->addField("Q", M.types().doubleTy());
  Inner->finalize();
  StructType *Outer = M.types().createStruct("branch");
  Outer->addField("R", M.types().doubleTy());
  Outer->addField("D", M.types().structTy(Inner));
  Outer->addField("alpha", M.types().doubleTy());
  Outer->finalize();
  EXPECT_EQ(Outer->sizeInWords(), 4u);
  EXPECT_EQ(Outer->findField("D")->OffsetWords, 1u);
  EXPECT_EQ(Outer->findField("alpha")->OffsetWords, 3u);
  EXPECT_EQ(Outer->fieldAtOffset(2)->Name, "D");
}

TEST(TypeTest, DuplicateStructRejected) {
  Module M;
  EXPECT_NE(M.types().createStruct("S"), nullptr);
  EXPECT_EQ(M.types().createStruct("S"), nullptr);
}

TEST(TypeTest, Printing) {
  Module M;
  StructType *S = makePointStruct(M);
  EXPECT_EQ(M.types().intTy()->str(), "int");
  EXPECT_EQ(M.types().structTy(S)->str(), "struct Point");
  EXPECT_EQ(M.types().pointerTo(M.types().structTy(S))->str(),
            "struct Point *");
  EXPECT_EQ(M.types().pointerTo(M.types().structTy(S), true)->str(),
            "struct Point local *");
}

TEST(FunctionTest, TempNaming) {
  Module M;
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *T1 = F->addTemp(M.types().intTy());
  Var *C1 = F->addTemp(M.types().intTy(), VarKind::CommTemp);
  Var *B1 = F->addTemp(M.types().intTy(), VarKind::BlockTemp);
  Var *T2 = F->addTemp(M.types().intTy());
  EXPECT_EQ(T1->name(), "temp1");
  EXPECT_EQ(T2->name(), "temp2");
  EXPECT_EQ(C1->name(), "comm1");
  EXPECT_EQ(B1->name(), "bcomm1");
}

TEST(FunctionTest, RelabelAndFind) {
  Module M;
  StructType *S = makePointStruct(M);
  Function *F = M.createFunction("distance", M.types().doubleTy());
  Var *P = F->addParam("p", M.types().pointerTo(M.types().structTy(S)));
  Var *X = F->addLocal("x", M.types().doubleTy());

  IRBuilder B(M, *F);
  B.assign(X, B.load(P, "x"));
  B.ret(Operand::var(X));
  int N = F->relabel();
  EXPECT_EQ(N, 3); // Seq + 2 basic statements.
  Stmt *S2 = F->findStmt(2);
  ASSERT_NE(S2, nullptr);
  EXPECT_EQ(S2->kind(), StmtKind::Assign);
}

TEST(IRBuilderTest, RemoteVsLocalLoads) {
  Module M;
  StructType *S = makePointStruct(M);
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *P = F->addParam("p", M.types().pointerTo(M.types().structTy(S)));
  Var *Q = F->addParam("q",
                       M.types().pointerTo(M.types().structTy(S), true));
  Var *X = F->addLocal("x", M.types().doubleTy());

  IRBuilder B(M, *F);
  AssignStmt *A1 = B.assign(X, B.load(P, "x"));
  AssignStmt *A2 = B.assign(X, B.load(Q, "x"));
  EXPECT_TRUE(A1->isRemoteRead());
  EXPECT_FALSE(A2->isRemoteRead());
}

TEST(PrinterTest, MarksRemoteAccesses) {
  Module M;
  StructType *S = makePointStruct(M);
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *P = F->addParam("p", M.types().pointerTo(M.types().structTy(S)));
  Var *X = F->addLocal("x", M.types().doubleTy());

  IRBuilder B(M, *F);
  B.assign(X, B.load(P, "x"));
  B.store(P, "y", Operand::var(X));
  B.finish();

  std::string Out = printFunction(*F);
  EXPECT_NE(Out.find("x = p->x{r};"), std::string::npos);
  EXPECT_NE(Out.find("p->y{r} = x;"), std::string::npos);
}

TEST(VerifierTest, AcceptsWellFormed) {
  Module M;
  StructType *S = makePointStruct(M);
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *P = F->addParam("p", M.types().pointerTo(M.types().structTy(S)));
  Var *X = F->addLocal("x", M.types().doubleTy());
  IRBuilder B(M, *F);
  B.assign(X, B.load(P, "x"));
  B.store(P, "y", Operand::var(X));
  B.ret();
  B.finish();
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << (Errors.empty() ? "" : Errors[0]);
}

TEST(VerifierTest, RejectsDoubleIndirection) {
  Module M;
  StructType *S = makePointStruct(M);
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *P = F->addParam("p", M.types().pointerTo(M.types().structTy(S)));
  Var *Q = F->addParam("q", M.types().pointerTo(M.types().structTy(S)));

  // q->y = p->x: two indirections in one basic statement.
  auto Load = std::make_unique<LoadRV>(P, 0, "x", M.types().doubleTy(),
                                       Locality::Remote);
  auto Bad = std::make_unique<AssignStmt>(
      LValue::makeStore(Q, 1, "y", Locality::Remote), std::move(Load));
  F->body().push(std::move(Bad));
  F->relabel();

  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("more than one indirection"), std::string::npos);
}

TEST(VerifierTest, RejectsForeignVariable) {
  Module M;
  Function *F = M.createFunction("f", M.types().voidTy());
  Function *G = M.createFunction("g", M.types().voidTy());
  Var *X = G->addLocal("x", M.types().intTy());
  IRBuilder B(M, *F);
  B.assign(X, Operand::intConst(1));
  B.finish();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(M, *F, Errors));
}

TEST(VerifierTest, RejectsSharedOutsideAtomic) {
  Module M;
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *S = F->addLocal("count", M.types().intTy(), VarKind::Shared);
  IRBuilder B(M, *F);
  B.assign(S, Operand::intConst(0)); // Must use writeto instead.
  B.finish();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(M, *F, Errors));
}

TEST(VerifierTest, AcceptsAtomicOnShared) {
  Module M;
  Function *F = M.createFunction("f", M.types().intTy());
  Var *S = F->addLocal("count", M.types().intTy(), VarKind::Shared);
  Var *R = F->addLocal("r", M.types().intTy());
  F->body().push(std::make_unique<AtomicStmt>(AtomicOp::WriteTo, S,
                                              Operand::intConst(0), nullptr));
  F->body().push(
      std::make_unique<AtomicStmt>(AtomicOp::ValueOf, S, Operand(), R));
  F->body().push(std::make_unique<ReturnStmt>(Operand::var(R)));
  F->relabel();
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyFunction(M, *F, Errors)) << (Errors.empty() ? ""
                                                                : Errors[0]);
}

TEST(VerifierTest, RejectsBadBlkMov) {
  Module M;
  StructType *S = makePointStruct(M);
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *P = F->addParam("p", M.types().pointerTo(M.types().structTy(S)));
  Var *B = F->addTemp(M.types().structTy(S), VarKind::BlockTemp);
  // Words larger than the struct.
  F->body().push(std::make_unique<BlkMovStmt>(BlkMovDir::ReadToLocal, P, B,
                                              /*Words=*/5));
  F->relabel();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(M, *F, Errors));
}

TEST(StmtTest, ForEachStmtVisitsNested) {
  Module M;
  Function *F = M.createFunction("f", M.types().voidTy());
  Var *X = F->addLocal("x", M.types().intTy());
  IRBuilder B(M, *F);
  B.beginWhile(B.cmp(BinaryOp::Lt, Operand::var(X), Operand::intConst(5)));
  B.assign(X, B.binary(BinaryOp::Add, Operand::var(X), Operand::intConst(1)));
  B.endWhile();
  B.finish();

  int Count = 0;
  forEachStmt(F->body(), [&](const Stmt &) { ++Count; });
  EXPECT_EQ(Count, 4); // outer Seq, While, body Seq, Assign.
}

} // namespace
