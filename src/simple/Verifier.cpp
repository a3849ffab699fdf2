//===- Verifier.cpp -------------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "simple/Verifier.h"

#include "simple/Printer.h"
#include "support/FlatSet.h"

#include <sstream>

using namespace earthcc;

namespace {

class FunctionVerifier {
public:
  FunctionVerifier(const Module &M, const Function &F,
                   std::vector<std::string> &Errors)
      : M(M), F(F), Errors(Errors) {}

  bool run() {
    for (const auto &V : F.vars())
      Owned.insert(V.get());
    for (const auto &G : M.globals())
      Owned.insert(G.get());
    size_t Before = Errors.size();
    forEachStmt(F.body(), [this](const Stmt &S) { check(S); });
    checkLabelsUnique();
    return Errors.size() == Before;
  }

private:
  void error(const Stmt &S, const std::string &Message) {
    std::ostringstream OS;
    OS << F.name();
    if (S.label())
      OS << ":S" << S.label();
    OS << ": " << Message;
    Errors.push_back(OS.str());
  }

  void checkLabelsUnique() {
    FlatSet<int> Seen;
    forEachStmt(F.body(), [&](const Stmt &S) {
      if (S.label() == 0)
        return;
      if (!Seen.insert(S.label()))
        error(S, "duplicate statement label");
    });
  }

  void checkVar(const Stmt &S, const Var *V, const char *Role) {
    if (!V) {
      error(S, std::string("null variable as ") + Role);
      return;
    }
    if (!Owned.count(V))
      error(S, "variable '" + V->name() + "' (" + Role +
                   ") is not owned by function or module");
    if (V->isShared() && std::string(Role) != "atomic target")
      error(S, "shared variable '" + V->name() +
                   "' accessed outside an atomic operation");
  }

  void checkOperand(const Stmt &S, const Operand &O, const char *Role) {
    if (O.isVar())
      checkVar(S, O.getVar(), Role);
  }

  /// Counts memory indirections in an rvalue and checks its variables.
  unsigned checkRValue(const Stmt &S, const RValue &R) {
    switch (R.kind()) {
    case RValueKind::Opnd:
      checkOperand(S, static_cast<const OpndRV &>(R).Val, "operand");
      return 0;
    case RValueKind::Unary:
      checkOperand(S, static_cast<const UnaryRV &>(R).Val, "operand");
      return 0;
    case RValueKind::Binary: {
      const auto &B = static_cast<const BinaryRV &>(R);
      checkOperand(S, B.A, "operand");
      checkOperand(S, B.B, "operand");
      return 0;
    }
    case RValueKind::Load: {
      const auto &L = static_cast<const LoadRV &>(R);
      checkVar(S, L.Base, "load base");
      if (L.Base && !L.Base->type()->isPointer())
        error(S, "load base '" + L.Base->name() + "' is not a pointer");
      if (L.ValueTy && !L.ValueTy->isScalar())
        error(S, "load must produce a scalar value");
      return 1;
    }
    case RValueKind::FieldRead: {
      const auto &FR = static_cast<const FieldReadRV &>(R);
      checkVar(S, FR.StructVar, "field-read base");
      if (FR.StructVar && !FR.StructVar->type()->isStruct())
        error(S, "field read of non-struct variable '" +
                     FR.StructVar->name() + "'");
      return 0;
    }
    case RValueKind::AddrOfField: {
      const auto &A = static_cast<const AddrOfFieldRV &>(R);
      checkVar(S, A.Base, "addr-of base");
      if (A.Base && !A.Base->type()->isPointer())
        error(S, "addr-of-field base '" + A.Base->name() +
                     "' is not a pointer");
      return 0;
    }
    }
    return 0;
  }

  void checkCond(const Stmt &S, const RValue &Cond) {
    switch (Cond.kind()) {
    case RValueKind::Opnd:
    case RValueKind::Unary:
    case RValueKind::Binary:
      checkRValue(S, Cond);
      return;
    default:
      error(S, "condition contains a memory indirection");
    }
  }

  void check(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      unsigned Indirections = checkRValue(S, *A.R);
      switch (A.L.Kind) {
      case LValueKind::Var:
        checkVar(S, A.L.V, "assignment target");
        break;
      case LValueKind::Store:
        checkVar(S, A.L.V, "store base");
        if (A.L.V && !A.L.V->type()->isPointer())
          error(S, "store base '" + A.L.V->name() + "' is not a pointer");
        ++Indirections;
        break;
      case LValueKind::FieldWrite:
        checkVar(S, A.L.V, "field-write base");
        if (A.L.V && !A.L.V->type()->isStruct())
          error(S, "field write of non-struct variable");
        break;
      }
      if (Indirections > 1)
        error(S, "basic statement performs more than one indirection: " +
                     printStmt(S));
      return;
    }
    case StmtKind::Call: {
      const auto &C = castStmt<CallStmt>(S);
      if (C.Result)
        checkVar(S, C.Result, "call result");
      for (const Operand &Arg : C.Args)
        checkOperand(S, Arg, "call argument");
      if (C.Placement == CallPlacement::OwnerOf ||
          C.Placement == CallPlacement::AtNode)
        checkOperand(S, C.PlacementArg, "placement argument");
      if (!C.Callee && C.Intrin == Intrinsic::None)
        error(S, "unresolved call to '" + C.CalleeName + "'");
      return;
    }
    case StmtKind::Return: {
      const auto &R = castStmt<ReturnStmt>(S);
      if (R.Val)
        checkOperand(S, *R.Val, "return value");
      if (R.Val && F.returnType()->isVoid())
        error(S, "void function returns a value");
      if (!R.Val && !F.returnType()->isVoid())
        error(S, "non-void function returns no value");
      return;
    }
    case StmtKind::BlkMov: {
      const auto &B = castStmt<BlkMovStmt>(S);
      checkVar(S, B.Ptr, "blkmov pointer");
      checkVar(S, B.LocalStruct, "blkmov local struct");
      if (B.Ptr && !B.Ptr->type()->isPointer())
        error(S, "blkmov source/target '" + B.Ptr->name() +
                     "' is not a pointer");
      if (B.LocalStruct && !B.LocalStruct->type()->isStruct())
        error(S, "blkmov local side must be a struct variable");
      if (B.LocalStruct &&
          B.LocalStruct->type()->sizeInWords() < B.Words)
        error(S, "blkmov transfers more words than the local struct holds");
      if (B.Words == 0)
        error(S, "blkmov of zero words");
      return;
    }
    case StmtKind::Atomic: {
      const auto &A = castStmt<AtomicStmt>(S);
      if (!A.SharedVar || !A.SharedVar->isShared())
        error(S, "atomic operation on a non-shared variable");
      else if (!Owned.count(A.SharedVar))
        error(S, "atomic target not owned by function or module");
      if (A.Op == AtomicOp::ValueOf) {
        checkVar(S, A.Result, "atomic result");
      } else {
        checkOperand(S, A.Val, "atomic value");
      }
      return;
    }
    case StmtKind::If:
      checkCond(S, *castStmt<IfStmt>(S).Cond);
      return;
    case StmtKind::Switch:
      checkOperand(S, castStmt<SwitchStmt>(S).Val, "switch operand");
      return;
    case StmtKind::While:
      checkCond(S, *castStmt<WhileStmt>(S).Cond);
      return;
    case StmtKind::Forall:
      checkCond(S, *castStmt<ForallStmt>(S).Cond);
      return;
    case StmtKind::Seq:
      return;
    }
  }

  const Module &M;
  const Function &F;
  std::vector<std::string> &Errors;
  FlatSet<const Var *> Owned;
};

} // namespace

bool earthcc::verifyFunction(const Module &M, const Function &F,
                             std::vector<std::string> &Errors) {
  return FunctionVerifier(M, F, Errors).run();
}

bool earthcc::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  bool Clean = true;
  for (const auto &F : M.functions())
    Clean &= verifyFunction(M, *F, Errors);
  return Clean;
}
