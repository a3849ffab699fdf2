//===- Stmt.cpp -----------------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "simple/Stmt.h"

using namespace earthcc;

RValue::~RValue() = default;
Stmt::~Stmt() = default;

const char *earthcc::unaryOpName(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Neg:
    return "-";
  case UnaryOp::Not:
    return "!";
  case UnaryOp::IntToDouble:
    return "(double)";
  case UnaryOp::DoubleToInt:
    return "(int)";
  }
  return "?";
}

const char *earthcc::binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

bool earthcc::isComparison(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return true;
  default:
    return false;
  }
}

void earthcc::forEachChildSeq(Stmt &S,
                              const std::function<void(SeqStmt &)> &Fn) {
  switch (S.kind()) {
  case StmtKind::Seq:
    // A sequence's children are statements, not sub-sequences; callers that
    // want recursion use forEachStmt.
    break;
  case StmtKind::If: {
    auto &If = castStmt<IfStmt>(S);
    Fn(*If.Then);
    Fn(*If.Else);
    break;
  }
  case StmtKind::Switch: {
    auto &Sw = castStmt<SwitchStmt>(S);
    for (auto &C : Sw.Cases)
      Fn(*C.Body);
    Fn(*Sw.Default);
    break;
  }
  case StmtKind::While:
    Fn(*castStmt<WhileStmt>(S).Body);
    break;
  case StmtKind::Forall: {
    auto &Fa = castStmt<ForallStmt>(S);
    Fn(*Fa.Init);
    Fn(*Fa.Step);
    Fn(*Fa.Body);
    break;
  }
  case StmtKind::Assign:
  case StmtKind::Call:
  case StmtKind::Return:
  case StmtKind::BlkMov:
  case StmtKind::Atomic:
    break;
  }
}

void earthcc::forEachChildSeq(const Stmt &S,
                              const std::function<void(const SeqStmt &)> &Fn) {
  forEachChildSeq(const_cast<Stmt &>(S),
                  [&Fn](SeqStmt &Seq) { Fn(Seq); });
}

void earthcc::forEachStmt(Stmt &S, const std::function<void(Stmt &)> &Fn) {
  Fn(S);
  if (auto *Seq = dynCastStmt<SeqStmt>(&S)) {
    for (auto &Child : Seq->Stmts)
      forEachStmt(*Child, Fn);
    return;
  }
  forEachChildSeq(S, [&Fn](SeqStmt &Child) { forEachStmt(Child, Fn); });
}

void earthcc::forEachStmt(const Stmt &S,
                          const std::function<void(const Stmt &)> &Fn) {
  forEachStmt(const_cast<Stmt &>(S), [&Fn](Stmt &T) { Fn(T); });
}

