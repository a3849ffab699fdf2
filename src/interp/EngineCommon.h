//===- EngineCommon.h - Shared execution-engine helpers ---------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value semantics shared by the two execution engines (the AST walker in
/// Interp.cpp and the bytecode engine in Bytecode.cpp). Both engines must
/// produce bit-identical simulated results, so the pure value computations
/// live here exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_INTERP_ENGINECOMMON_H
#define EARTHCC_INTERP_ENGINECOMMON_H

#include "earth/Runtime.h"
#include "simple/Expr.h"

#include <limits>
#include <string>

namespace earthcc {
namespace interp {

/// Unwinds to the event loop on runtime errors. The interpreter is a
/// simulation sandbox, so this is a tool-level error path, not library
/// control flow.
struct RuntimeFailure {
  std::string Message;
};

[[noreturn]] inline void fail(std::string Message) {
  throw RuntimeFailure{std::move(Message)};
}

inline bool isNullish(const RtValue &V) {
  return (V.K == RtValue::Kind::Int && V.I == 0) ||
         (V.K == RtValue::Kind::Ptr && V.P.isNull());
}

/// The simulated machine's integers behave like 64-bit hardware registers:
/// overflow wraps in two's complement. Doing the arithmetic in unsigned
/// keeps that behavior defined in C++ (signed overflow is UB and the
/// randomized property tests do reach it).
inline int64_t wrapAdd(int64_t X, int64_t Y) {
  return static_cast<int64_t>(static_cast<uint64_t>(X) +
                              static_cast<uint64_t>(Y));
}
inline int64_t wrapSub(int64_t X, int64_t Y) {
  return static_cast<int64_t>(static_cast<uint64_t>(X) -
                              static_cast<uint64_t>(Y));
}
inline int64_t wrapMul(int64_t X, int64_t Y) {
  return static_cast<int64_t>(static_cast<uint64_t>(X) *
                              static_cast<uint64_t>(Y));
}

/// double -> int64 with saturation, NaN -> 0. The plain cast is undefined
/// for out-of-range values; every conversion the toolchain performs —
/// engine DoubleToInt steps and the frontend's compile-time folding of
/// double literals in int context — must agree on this one definition, or
/// constant-folded programs could diverge from interpreted ones.
inline int64_t doubleToIntSat(double D) {
  constexpr double Lim = 9223372036854775808.0; // 2^63
  if (D >= -Lim && D < Lim)
    return static_cast<int64_t>(D);
  if (D != D)
    return 0;
  return D < 0 ? std::numeric_limits<int64_t>::min()
               : std::numeric_limits<int64_t>::max();
}

inline RtValue evalBinary(BinaryOp Op, const RtValue &A, const RtValue &B) {
  if (A.K == RtValue::Kind::Ptr || B.K == RtValue::Kind::Ptr) {
    bool Eq;
    if (A.K == RtValue::Kind::Ptr && B.K == RtValue::Kind::Ptr)
      Eq = A.P == B.P;
    else if (A.K == RtValue::Kind::Ptr)
      Eq = A.P.isNull() && isNullish(B);
    else
      Eq = B.P.isNull() && isNullish(A);
    if (Op == BinaryOp::Eq)
      return RtValue::makeInt(Eq ? 1 : 0);
    if (Op == BinaryOp::Ne)
      return RtValue::makeInt(Eq ? 0 : 1);
    fail("invalid pointer arithmetic");
  }

  if (A.K == RtValue::Kind::Dbl || B.K == RtValue::Kind::Dbl) {
    double X =
        A.K == RtValue::Kind::Dbl ? A.D : static_cast<double>(A.asInt());
    double Y =
        B.K == RtValue::Kind::Dbl ? B.D : static_cast<double>(B.asInt());
    switch (Op) {
    case BinaryOp::Add: return RtValue::makeDbl(X + Y);
    case BinaryOp::Sub: return RtValue::makeDbl(X - Y);
    case BinaryOp::Mul: return RtValue::makeDbl(X * Y);
    case BinaryOp::Div:
      if (Y == 0.0)
        fail("floating division by zero");
      return RtValue::makeDbl(X / Y);
    case BinaryOp::Rem:
      fail("'%' on doubles");
    case BinaryOp::Lt: return RtValue::makeInt(X < Y);
    case BinaryOp::Le: return RtValue::makeInt(X <= Y);
    case BinaryOp::Gt: return RtValue::makeInt(X > Y);
    case BinaryOp::Ge: return RtValue::makeInt(X >= Y);
    case BinaryOp::Eq: return RtValue::makeInt(X == Y);
    case BinaryOp::Ne: return RtValue::makeInt(X != Y);
    case BinaryOp::And: return RtValue::makeInt(X != 0.0 && Y != 0.0);
    case BinaryOp::Or: return RtValue::makeInt(X != 0.0 || Y != 0.0);
    }
  }

  int64_t X = A.asInt(), Y = B.asInt();
  switch (Op) {
  case BinaryOp::Add: return RtValue::makeInt(wrapAdd(X, Y));
  case BinaryOp::Sub: return RtValue::makeInt(wrapSub(X, Y));
  case BinaryOp::Mul: return RtValue::makeInt(wrapMul(X, Y));
  case BinaryOp::Div:
    if (Y == 0)
      fail("integer division by zero");
    // INT64_MIN / -1 wraps to INT64_MIN (the one overflowing division).
    if (Y == -1)
      return RtValue::makeInt(wrapSub(0, X));
    return RtValue::makeInt(X / Y);
  case BinaryOp::Rem:
    if (Y == 0)
      fail("integer remainder by zero");
    if (Y == -1)
      return RtValue::makeInt(0);
    return RtValue::makeInt(X % Y);
  case BinaryOp::Lt: return RtValue::makeInt(X < Y);
  case BinaryOp::Le: return RtValue::makeInt(X <= Y);
  case BinaryOp::Gt: return RtValue::makeInt(X > Y);
  case BinaryOp::Ge: return RtValue::makeInt(X >= Y);
  case BinaryOp::Eq: return RtValue::makeInt(X == Y);
  case BinaryOp::Ne: return RtValue::makeInt(X != Y);
  case BinaryOp::And: return RtValue::makeInt(X != 0 && Y != 0);
  case BinaryOp::Or: return RtValue::makeInt(X != 0 || Y != 0);
  }
  fail("bad binary operator");
}

inline RtValue evalUnary(UnaryOp Op, const RtValue &A) {
  switch (Op) {
  case UnaryOp::Neg:
    if (A.K == RtValue::Kind::Dbl)
      return RtValue::makeDbl(-A.D);
    return RtValue::makeInt(wrapSub(0, A.asInt()));
  case UnaryOp::Not:
    return RtValue::makeInt(A.truthy() ? 0 : 1);
  case UnaryOp::IntToDouble:
    return RtValue::makeDbl(static_cast<double>(A.asInt()));
  case UnaryOp::DoubleToInt:
    if (A.K != RtValue::Kind::Dbl)
      return A;
    return RtValue::makeInt(doubleToIntSat(A.D));
  }
  fail("bad unary operator");
}

} // namespace interp
} // namespace earthcc

#endif // EARTHCC_INTERP_ENGINECOMMON_H
