//===- Stmt.h - Statements of the SIMPLE IR ---------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compositional statement forms of SIMPLE: basic statements
/// (assignments, calls, returns, block moves, atomic shared-variable
/// operations) and compound statements (sequences — sequential or parallel —
/// conditionals, switches, loops, and forall loops). There is no goto;
/// programs are fully structured, which is what lets possible-placement
/// analysis run in a single structured traversal.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SIMPLE_STMT_H
#define EARTHCC_SIMPLE_STMT_H

#include "simple/Expr.h"
#include "support/SourceLoc.h"

#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace earthcc {

class Function;

/// Statement kinds.
enum class StmtKind {
  Assign,
  Call,
  Return,
  BlkMov,
  Atomic,
  Seq,
  If,
  Switch,
  While,
  Forall
};

/// Intrinsic operations recognized by Sema and executed by the runtime.
enum class Intrinsic {
  None,
  PMalloc,  ///< pmalloc(words) @ node-placement: allocate on a given node.
  Print,    ///< print(x): deterministic test/debug output.
  MyNode,   ///< my_node(): index of the executing node.
  NumNodes, ///< num_nodes(): number of nodes in the machine.
  IntSqrt,  ///< isqrt(x): integer square root.
  Sqrt,     ///< sqrt(x): double square root.
  Fabs      ///< fabs(x): double absolute value.
};

/// Base class of all SIMPLE statements.
class Stmt {
public:
  virtual ~Stmt();

  StmtKind kind() const { return Kind; }

  /// Basic statements are the unit the paper's analysis labels: they carry a
  /// unique label and contain at most one remote operation.
  bool isBasic() const {
    return Kind == StmtKind::Assign || Kind == StmtKind::Call ||
           Kind == StmtKind::Return || Kind == StmtKind::BlkMov ||
           Kind == StmtKind::Atomic;
  }

  /// Unique label (S1, S2, ...) assigned by Function::relabel(). 0 = none.
  int label() const { return Label; }
  void setLabel(int L) { Label = L; }

  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

protected:
  explicit Stmt(StmtKind Kind) : Kind(Kind) {}

private:
  StmtKind Kind;
  int Label = 0;
  SourceLoc Loc;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// A (possibly parallel) statement sequence. Parallel sequences are the
/// EARTH-C `{^ ... ^}` construct: the compiler may execute members
/// concurrently because the programmer guarantees non-interference.
class SeqStmt : public Stmt {
public:
  explicit SeqStmt(bool Parallel = false)
      : Stmt(StmtKind::Seq), Parallel(Parallel) {}

  bool Parallel;
  std::vector<StmtPtr> Stmts;

  void push(StmtPtr S) { Stmts.push_back(std::move(S)); }
  bool empty() const { return Stmts.empty(); }
  size_t size() const { return Stmts.size(); }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Seq; }
};

/// A SIMPLE assignment: `lhs = rhs` with at most one memory indirection in
/// total (enforced by the Verifier).
class AssignStmt : public Stmt {
public:
  AssignStmt(LValue L, std::unique_ptr<RValue> R)
      : Stmt(StmtKind::Assign), L(std::move(L)), R(std::move(R)) {}

  LValue L;
  std::unique_ptr<RValue> R;

  /// True if this statement performs a remote read (rhs is a remote load).
  bool isRemoteRead() const {
    const auto *Load = dynCast<LoadRV>(R.get());
    return Load && Load->isRemote();
  }
  /// True if this statement performs a remote write (lhs is a remote store).
  bool isRemoteWrite() const { return L.isRemoteStore(); }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }
};

/// Placement annotation on an EARTH-C call: where the invocation runs.
enum class CallPlacement {
  Default, ///< Run on the current node.
  OwnerOf, ///< `f(...)@OWNER_OF(p)`: run on the node owning *p.
  AtNode,  ///< `f(...)@node(n)`: run on node n.
  Home     ///< `f(...)@HOME`: run on node 0.
};

/// A call statement, possibly with a result variable and a placement
/// annotation. Intrinsics are resolved by Sema.
class CallStmt : public Stmt {
public:
  CallStmt(const Var *Result, std::string CalleeName, std::vector<Operand> Args)
      : Stmt(StmtKind::Call), Result(Result),
        CalleeName(std::move(CalleeName)), Args(std::move(Args)) {}

  const Var *Result; ///< May be nullptr for void calls.
  std::string CalleeName;
  std::vector<Operand> Args;
  Function *Callee = nullptr; ///< Resolved by Sema (null for intrinsics).
  Intrinsic Intrin = Intrinsic::None;
  CallPlacement Placement = CallPlacement::Default;
  Operand PlacementArg; ///< Pointer (OwnerOf) or node index (AtNode).

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Call; }
};

/// A return statement, optionally carrying a value operand.
class ReturnStmt : public Stmt {
public:
  explicit ReturnStmt(std::optional<Operand> Val = std::nullopt)
      : Stmt(StmtKind::Return), Val(Val) {}

  std::optional<Operand> Val;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Return; }
};

/// Direction of a block move between remote memory and a local struct.
enum class BlkMovDir {
  ReadToLocal,  ///< blkmov(p, &local, n): fetch *p into a local struct.
  WriteFromLocal ///< blkmov(&local, p, n): write a local struct back to *p.
};

/// A block transfer of `Words` machine words between the memory a pointer
/// variable targets and a local struct temporary. One EARTH blkmov
/// operation, regardless of size.
class BlkMovStmt : public Stmt {
public:
  BlkMovStmt(BlkMovDir Dir, const Var *Ptr, const Var *LocalStruct,
             unsigned Words)
      : Stmt(StmtKind::BlkMov), Dir(Dir), Ptr(Ptr), LocalStruct(LocalStruct),
        Words(Words) {}

  BlkMovDir Dir;
  const Var *Ptr;         ///< Pointer to the (possibly remote) struct.
  const Var *LocalStruct; ///< Struct-typed local variable.
  unsigned Words;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::BlkMov; }
};

/// Atomic operations on shared variables (EARTH-C writeto/addto/valueof).
enum class AtomicOp { WriteTo, AddTo, ValueOf };

/// An atomic access to a `shared` variable. Shared variables live on node 0
/// and every access is a remote atomic transaction.
class AtomicStmt : public Stmt {
public:
  AtomicStmt(AtomicOp Op, const Var *SharedVar, Operand Val, const Var *Result)
      : Stmt(StmtKind::Atomic), Op(Op), SharedVar(SharedVar), Val(Val),
        Result(Result) {}

  AtomicOp Op;
  const Var *SharedVar;
  Operand Val;       ///< Value operand for WriteTo/AddTo.
  const Var *Result; ///< Result variable for ValueOf (else nullptr).

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Atomic; }
};

/// An if statement. The condition is restricted to an operand or a single
/// comparison of operands (no memory access), as produced by Simplify.
class IfStmt : public Stmt {
public:
  IfStmt(std::unique_ptr<RValue> Cond, std::unique_ptr<SeqStmt> Then,
         std::unique_ptr<SeqStmt> Else)
      : Stmt(StmtKind::If), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  std::unique_ptr<RValue> Cond;
  std::unique_ptr<SeqStmt> Then;
  std::unique_ptr<SeqStmt> Else; ///< Never null; may be empty.

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }
};

/// A switch over an integer operand with constant cases. There is no
/// fallthrough: each case body is a self-contained sequence (Simplify
/// enforces this when lowering from EARTH-C).
class SwitchStmt : public Stmt {
public:
  struct Case {
    int64_t Value;
    std::unique_ptr<SeqStmt> Body;
  };

  explicit SwitchStmt(Operand Val) : Stmt(StmtKind::Switch), Val(Val) {}

  Operand Val;
  std::vector<Case> Cases;
  std::unique_ptr<SeqStmt> Default; ///< Never null; may be empty.

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Switch; }
};

/// A while / do-while loop. `for` loops are lowered to while by Simplify.
class WhileStmt : public Stmt {
public:
  WhileStmt(std::unique_ptr<RValue> Cond, std::unique_ptr<SeqStmt> Body,
            bool IsDoWhile)
      : Stmt(StmtKind::While), Cond(std::move(Cond)), Body(std::move(Body)),
        IsDoWhile(IsDoWhile) {}

  std::unique_ptr<RValue> Cond;
  std::unique_ptr<SeqStmt> Body;
  bool IsDoWhile;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }
};

/// The EARTH-C `forall` loop: the Init/Cond/Step driver runs sequentially,
/// spawning one logical thread per iteration of Body; all iterations may run
/// in parallel and must not interfere except through shared variables.
class ForallStmt : public Stmt {
public:
  ForallStmt(std::unique_ptr<SeqStmt> Init, std::unique_ptr<RValue> Cond,
             std::unique_ptr<SeqStmt> Step, std::unique_ptr<SeqStmt> Body)
      : Stmt(StmtKind::Forall), Init(std::move(Init)), Cond(std::move(Cond)),
        Step(std::move(Step)), Body(std::move(Body)) {}

  std::unique_ptr<SeqStmt> Init;
  std::unique_ptr<RValue> Cond;
  std::unique_ptr<SeqStmt> Step;
  std::unique_ptr<SeqStmt> Body;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Forall; }
};

/// dyn_cast helpers for statements.
template <typename T> T *dynCastStmt(Stmt *S) {
  return S && T::classof(S) ? static_cast<T *>(S) : nullptr;
}
template <typename T> const T *dynCastStmt(const Stmt *S) {
  return S && T::classof(S) ? static_cast<const T *>(S) : nullptr;
}
template <typename T> T &castStmt(Stmt &S) {
  assert(T::classof(&S) && "bad statement cast");
  return static_cast<T &>(S);
}
template <typename T> const T &castStmt(const Stmt &S) {
  assert(T::classof(&S) && "bad statement cast");
  return static_cast<const T &>(S);
}

/// Invokes \p Fn on \p S and every statement nested inside it, pre-order.
void forEachStmt(Stmt &S, const std::function<void(Stmt &)> &Fn);
void forEachStmt(const Stmt &S, const std::function<void(const Stmt &)> &Fn);

/// Invokes \p Fn on every directly nested sub-sequence of \p S (not
/// recursively): if/switch alternatives, loop bodies, forall parts.
void forEachChildSeq(Stmt &S, const std::function<void(SeqStmt &)> &Fn);
void forEachChildSeq(const Stmt &S,
                     const std::function<void(const SeqStmt &)> &Fn);

} // namespace earthcc

#endif // EARTHCC_SIMPLE_STMT_H
