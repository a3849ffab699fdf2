//===- Operand.h - Variables, constants and operands ------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variables and the leaf operands of SIMPLE expressions. SIMPLE is a
/// three-address representation: every expression operand is either a
/// variable or a literal constant.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SIMPLE_OPERAND_H
#define EARTHCC_SIMPLE_OPERAND_H

#include "simple/Type.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <charconv>
#include <cstdint>
#include <string>

namespace earthcc {

/// Storage classes of SIMPLE variables.
///
/// The memory-model distinctions of EARTH-C map onto these: Param/Local/Temp
/// variables are always node-local (register-allocatable); Shared variables
/// may only be touched through atomic operations; Global variables live on a
/// fixed home node and direct accesses to them are ordinary remote accesses.
enum class VarKind {
  Param,     ///< Function parameter.
  Local,     ///< Programmer-declared local variable.
  Temp,      ///< Compiler temporary introduced by simplification.
  CommTemp,  ///< Scalar landing pad for a pipelined remote read (commN).
  BlockTemp, ///< Local struct copy used by blocked communication (bcommN).
  Shared,    ///< EARTH-C `shared` variable (atomic access only).
  Global     ///< File-scope ordinary variable (remote access).
};

/// A named storage location. Vars are owned by their Function (or by the
/// Module for globals/shared globals); pointer identity is variable identity.
class Var {
public:
  Var(std::string Name, const Type *Ty, VarKind Kind, unsigned Id)
      : Name(std::move(Name)), Ty(Ty), Kind(Kind), Id(Id) {
    assert(Ty && "variable must have a type");
  }

  const std::string &name() const { return Name; }
  const Type *type() const { return Ty; }
  VarKind kind() const { return Kind; }
  unsigned id() const { return Id; }

  bool isShared() const { return Kind == VarKind::Shared; }
  bool isGlobal() const { return Kind == VarKind::Global; }

private:
  std::string Name;
  const Type *Ty;
  VarKind Kind;
  unsigned Id;
};

/// A literal constant (int or double).
struct ConstantValue {
  enum class Kind { Int, Double } K = Kind::Int;
  int64_t I = 0;
  double D = 0.0;

  static ConstantValue makeInt(int64_t V) {
    ConstantValue C;
    C.K = Kind::Int;
    C.I = V;
    return C;
  }
  static ConstantValue makeDouble(double V) {
    ConstantValue C;
    C.K = Kind::Double;
    C.D = V;
    return C;
  }

  bool isInt() const { return K == Kind::Int; }
  /// The constant as C source. A double is spelled in its shortest
  /// round-trip form, so the text reads back as the same value, with ".0"
  /// appended to a whole number so the literal stays a double ("1.0",
  /// "2.5", "1e+20").
  std::string str() const {
    if (isInt())
      return std::to_string(I);
    char Buf[32];
    std::string S(Buf, std::to_chars(Buf, Buf + sizeof(Buf), D).ptr);
    if (S.find_first_not_of("-0123456789") == std::string::npos)
      S += ".0";
    return S;
  }
};

/// A leaf operand: a variable use or a constant.
class Operand {
public:
  Operand() = default;

  static Operand var(const Var *V) {
    assert(V && "null variable operand");
    Operand O;
    O.V = V;
    return O;
  }
  static Operand intConst(int64_t Value) {
    Operand O;
    O.C = ConstantValue::makeInt(Value);
    return O;
  }
  static Operand doubleConst(double Value) {
    Operand O;
    O.C = ConstantValue::makeDouble(Value);
    return O;
  }

  bool isVar() const { return V != nullptr; }
  bool isConst() const { return V == nullptr; }

  const Var *getVar() const {
    assert(isVar() && "operand is not a variable");
    return V;
  }
  const ConstantValue &getConst() const {
    assert(isConst() && "operand is not a constant");
    return C;
  }

  std::string str() const { return isVar() ? V->name() : C.str(); }

private:
  const Var *V = nullptr;
  ConstantValue C;
};

} // namespace earthcc

#endif // EARTHCC_SIMPLE_OPERAND_H
