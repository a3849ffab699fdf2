//===- Expr.h - SIMPLE right-hand sides and left-hand sides -----*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expression forms of the SIMPLE IR. SIMPLE restricts every basic statement
/// to at most one memory indirection, so right-hand sides are flat: a copy,
/// one unary or binary operation over leaf operands, or a single load.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SIMPLE_EXPR_H
#define EARTHCC_SIMPLE_EXPR_H

#include "simple/Operand.h"

#include <memory>

namespace earthcc {

/// Static locality of a memory access, as the compiler sees it.
///
/// The EARTH-C compiler must assume that indirect references are Remote
/// unless locality information (a `local` pointer qualifier, or locality
/// analysis) proves otherwise. Remote accesses compile to split-phase EARTH
/// runtime operations; Local accesses are ordinary loads/stores.
enum class Locality { Unknown, Local, Remote };

/// Unary operators.
enum class UnaryOp { Neg, Not, IntToDouble, DoubleToInt };

/// Binary operators. Comparison operators always produce int 0/1.
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And, ///< Logical-and over already-evaluated ints (non-short-circuit).
  Or   ///< Logical-or over already-evaluated ints (non-short-circuit).
};

const char *unaryOpName(UnaryOp Op);
const char *binaryOpName(BinaryOp Op);
bool isComparison(BinaryOp Op);

/// Kinds of SIMPLE right-hand sides.
enum class RValueKind {
  Opnd,       ///< Plain copy of an operand.
  Unary,      ///< op a
  Binary,     ///< a op b
  Load,       ///< p->f (or *p): the only possibly-remote read form.
  FieldRead,  ///< s.f where s is a struct-typed variable (always local).
  AddrOfField ///< &(p->f): pointer arithmetic, no memory access.
};

/// Base class for right-hand sides. Uses LLVM-style kind dispatch.
class RValue {
public:
  virtual ~RValue();
  RValueKind kind() const { return Kind; }

protected:
  explicit RValue(RValueKind Kind) : Kind(Kind) {}

private:
  RValueKind Kind;
};

/// A plain operand copy: `x` or `42`.
class OpndRV : public RValue {
public:
  explicit OpndRV(Operand Val) : RValue(RValueKind::Opnd), Val(Val) {}
  Operand Val;

  static bool classof(const RValue *R) {
    return R->kind() == RValueKind::Opnd;
  }
};

/// A unary operation over one operand.
class UnaryRV : public RValue {
public:
  UnaryRV(UnaryOp Op, Operand Val)
      : RValue(RValueKind::Unary), Op(Op), Val(Val) {}
  UnaryOp Op;
  Operand Val;

  static bool classof(const RValue *R) {
    return R->kind() == RValueKind::Unary;
  }
};

/// A binary operation over two operands.
class BinaryRV : public RValue {
public:
  BinaryRV(BinaryOp Op, Operand A, Operand B)
      : RValue(RValueKind::Binary), Op(Op), A(A), B(B) {}
  BinaryOp Op;
  Operand A;
  Operand B;

  static bool classof(const RValue *R) {
    return R->kind() == RValueKind::Binary;
  }
};

/// A load through a pointer variable: `Base->field` (word OffsetWords into
/// the pointee), or `*Base` with offset 0 for scalar pointees. This is the
/// form the communication optimization targets when Loc is Remote.
class LoadRV : public RValue {
public:
  LoadRV(const Var *Base, unsigned OffsetWords, std::string FieldName,
         const Type *ValueTy, Locality Loc)
      : RValue(RValueKind::Load), Base(Base), OffsetWords(OffsetWords),
        FieldName(std::move(FieldName)), ValueTy(ValueTy), Loc(Loc) {}

  const Var *Base;
  unsigned OffsetWords;
  std::string FieldName; ///< Printable dotted path, e.g. "hosp.free_personnel".
  const Type *ValueTy;   ///< Type of the loaded value (scalar).
  Locality Loc;

  bool isRemote() const { return Loc != Locality::Local; }

  static bool classof(const RValue *R) {
    return R->kind() == RValueKind::Load;
  }
};

/// A read of a field of a struct-typed *variable* (e.g. a bcommN block
/// temporary): always local and cheap.
class FieldReadRV : public RValue {
public:
  FieldReadRV(const Var *StructVar, unsigned OffsetWords,
              std::string FieldName, const Type *ValueTy)
      : RValue(RValueKind::FieldRead), StructVar(StructVar),
        OffsetWords(OffsetWords), FieldName(std::move(FieldName)),
        ValueTy(ValueTy) {}

  const Var *StructVar;
  unsigned OffsetWords;
  std::string FieldName;
  const Type *ValueTy;

  static bool classof(const RValue *R) {
    return R->kind() == RValueKind::FieldRead;
  }
};

/// The address of a field: `&(Base->field)`. Pure pointer arithmetic.
class AddrOfFieldRV : public RValue {
public:
  AddrOfFieldRV(const Var *Base, unsigned OffsetWords, std::string FieldName,
                const Type *ResultTy)
      : RValue(RValueKind::AddrOfField), Base(Base), OffsetWords(OffsetWords),
        FieldName(std::move(FieldName)), ResultTy(ResultTy) {}

  const Var *Base;
  unsigned OffsetWords;
  std::string FieldName;
  const Type *ResultTy;

  static bool classof(const RValue *R) {
    return R->kind() == RValueKind::AddrOfField;
  }
};

/// LLVM-style dyn_cast helpers, specialized to this small hierarchy.
template <typename T> T *dynCast(RValue *R) {
  return R && T::classof(R) ? static_cast<T *>(R) : nullptr;
}
template <typename T> const T *dynCast(const RValue *R) {
  return R && T::classof(R) ? static_cast<const T *>(R) : nullptr;
}

/// Kinds of SIMPLE left-hand sides.
enum class LValueKind {
  Var,       ///< x = ...
  Store,     ///< p->f = ...: the only possibly-remote write form.
  FieldWrite ///< s.f = ... where s is a struct-typed variable (local).
};

/// A SIMPLE assignment target.
struct LValue {
  LValueKind Kind = LValueKind::Var;
  const Var *V = nullptr;    ///< Target var (Var), base pointer (Store), or
                             ///< struct var (FieldWrite).
  unsigned OffsetWords = 0;  ///< Field offset for Store/FieldWrite.
  std::string FieldName;     ///< Printable field path for Store/FieldWrite.
  Locality Loc = Locality::Unknown; ///< For Store: static locality.

  static LValue makeVar(const Var *V) {
    LValue L;
    L.Kind = LValueKind::Var;
    L.V = V;
    return L;
  }
  static LValue makeStore(const Var *Base, unsigned OffsetWords,
                          std::string FieldName, Locality Loc) {
    LValue L;
    L.Kind = LValueKind::Store;
    L.V = Base;
    L.OffsetWords = OffsetWords;
    L.FieldName = std::move(FieldName);
    L.Loc = Loc;
    return L;
  }
  static LValue makeFieldWrite(const Var *StructVar, unsigned OffsetWords,
                               std::string FieldName) {
    LValue L;
    L.Kind = LValueKind::FieldWrite;
    L.V = StructVar;
    L.OffsetWords = OffsetWords;
    L.FieldName = std::move(FieldName);
    return L;
  }

  bool isRemoteStore() const {
    return Kind == LValueKind::Store && Loc != Locality::Local;
  }
};

} // namespace earthcc

#endif // EARTHCC_SIMPLE_EXPR_H
