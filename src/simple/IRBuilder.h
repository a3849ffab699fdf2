//===- IRBuilder.h - Convenience construction of SIMPLE IR ------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small builder for constructing SIMPLE programs directly from C++ —
/// used by unit tests and by example programs that want to build IR without
/// going through the EARTH-C frontend.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SIMPLE_IRBUILDER_H
#define EARTHCC_SIMPLE_IRBUILDER_H

#include "simple/Function.h"

namespace earthcc {

/// Builds statements into a current insertion sequence.
///
/// Typical use:
/// \code
///   IRBuilder B(M, F);
///   B.assign(X, B.load(P, "x"));
///   B.beginWhile(B.cmp(BinaryOp::Lt, X, Operand::intConst(3)));
///   ... build the body ...
///   B.endWhile();
/// \endcode
class IRBuilder {
public:
  IRBuilder(Module &M, Function &F)
      : M(M), F(F) { SeqStack.push_back(&F.body()); }

  Module &module() { return M; }
  Function &function() { return F; }

  //===--------------------------------------------------------------------===
  // RValue factories.
  //===--------------------------------------------------------------------===

  std::unique_ptr<RValue> opnd(Operand O) {
    return std::make_unique<OpndRV>(O);
  }
  std::unique_ptr<RValue> use(const Var *V) {
    return std::make_unique<OpndRV>(Operand::var(V));
  }
  std::unique_ptr<RValue> cmp(BinaryOp Op, Operand A, Operand B) {
    return std::make_unique<BinaryRV>(Op, A, B);
  }
  std::unique_ptr<RValue> binary(BinaryOp Op, Operand A, Operand B) {
    return std::make_unique<BinaryRV>(Op, A, B);
  }
  std::unique_ptr<RValue> unary(UnaryOp Op, Operand A) {
    return std::make_unique<UnaryRV>(Op, A);
  }

  /// Builds `Base->Field`, resolving the field by name in the pointee
  /// struct. Locality defaults to Remote unless Base is a `local` pointer.
  std::unique_ptr<RValue> load(const Var *Base, const std::string &Field);

  //===--------------------------------------------------------------------===
  // Statement insertion.
  //===--------------------------------------------------------------------===

  AssignStmt *assign(const Var *Target, std::unique_ptr<RValue> R);
  AssignStmt *assign(const Var *Target, Operand O) {
    return assign(Target, opnd(O));
  }

  /// Builds `Base->Field = Val`.
  AssignStmt *store(const Var *Base, const std::string &Field, Operand Val);

  CallStmt *call(const Var *Result, const std::string &Callee,
                 std::vector<Operand> Args,
                 CallPlacement Placement = CallPlacement::Default,
                 Operand PlacementArg = Operand());

  ReturnStmt *ret(std::optional<Operand> Val = std::nullopt);

  //===--------------------------------------------------------------------===
  // Compound statements: begin/end pairs manage the insertion stack.
  //===--------------------------------------------------------------------===

  WhileStmt *beginWhile(std::unique_ptr<RValue> Cond, bool IsDoWhile = false);
  void endWhile();

  /// Finishes construction: assigns labels, returns the function.
  Function &finish() {
    F.relabel();
    return F;
  }

private:
  Stmt *insert(StmtPtr S) {
    Stmt *Raw = S.get();
    SeqStack.back()->push(std::move(S));
    return Raw;
  }

  /// Resolves (offset, name, type) for a field of Base's pointee struct.
  const StructType::Field *resolveField(const Var *Base,
                                        const std::string &Field) const;

  Module &M;
  Function &F;
  std::vector<SeqStmt *> SeqStack;
};

} // namespace earthcc

#endif // EARTHCC_SIMPLE_IRBUILDER_H
