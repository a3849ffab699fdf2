//===- IRBuilder.cpp ------------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "simple/IRBuilder.h"

using namespace earthcc;

const StructType::Field *
IRBuilder::resolveField(const Var *Base, const std::string &Field) const {
  assert(Base->type()->isPointer() && "field access through non-pointer");
  const Type *Pointee = Base->type()->pointee();
  assert(Pointee->isStruct() && "field access into non-struct pointee");
  const StructType::Field *F = Pointee->structType()->findField(Field);
  assert(F && "no such field");
  return F;
}

std::unique_ptr<RValue> IRBuilder::load(const Var *Base,
                                        const std::string &Field) {
  const StructType::Field *Fld = resolveField(Base, Field);
  Locality Loc =
      Base->type()->isLocalPointer() ? Locality::Local : Locality::Remote;
  return std::make_unique<LoadRV>(Base, Fld->OffsetWords, Field, Fld->Ty,
                                  Loc);
}

AssignStmt *IRBuilder::assign(const Var *Target, std::unique_ptr<RValue> R) {
  auto S = std::make_unique<AssignStmt>(LValue::makeVar(Target), std::move(R));
  return static_cast<AssignStmt *>(insert(std::move(S)));
}

AssignStmt *IRBuilder::store(const Var *Base, const std::string &Field,
                             Operand Val) {
  const StructType::Field *Fld = resolveField(Base, Field);
  Locality Loc =
      Base->type()->isLocalPointer() ? Locality::Local : Locality::Remote;
  auto S = std::make_unique<AssignStmt>(
      LValue::makeStore(Base, Fld->OffsetWords, Field, Loc),
      std::make_unique<OpndRV>(Val));
  return static_cast<AssignStmt *>(insert(std::move(S)));
}

CallStmt *IRBuilder::call(const Var *Result, const std::string &Callee,
                          std::vector<Operand> Args, CallPlacement Placement,
                          Operand PlacementArg) {
  auto S = std::make_unique<CallStmt>(Result, Callee, std::move(Args));
  S->Placement = Placement;
  S->PlacementArg = PlacementArg;
  return static_cast<CallStmt *>(insert(std::move(S)));
}

ReturnStmt *IRBuilder::ret(std::optional<Operand> Val) {
  return static_cast<ReturnStmt *>(
      insert(std::make_unique<ReturnStmt>(Val)));
}

WhileStmt *IRBuilder::beginWhile(std::unique_ptr<RValue> Cond,
                                 bool IsDoWhile) {
  auto S = std::make_unique<WhileStmt>(std::move(Cond),
                                       std::make_unique<SeqStmt>(), IsDoWhile);
  auto *While = static_cast<WhileStmt *>(insert(std::move(S)));
  SeqStack.push_back(While->Body.get());
  return While;
}

void IRBuilder::endWhile() {
  assert(SeqStack.size() > 1 && "endWhile without beginWhile");
  SeqStack.pop_back();
}
