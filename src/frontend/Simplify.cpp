//===- Simplify.cpp - Semantic analysis + lowering to SIMPLE --------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Simplify.h"

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
// For the defined-wrap / saturating conversion helpers only (header-inline;
// this adds no link dependency on the interpreter).
#include "interp/EngineCommon.h"

#include <map>

using namespace earthcc;
using namespace earthcc::ast;

namespace {

/// A resolved access path: either a plain variable, a field of a
/// struct-typed variable, or an indirection through a pointer variable.
struct AccessPath {
  enum class Kind { Var, StructField, Indirect } K = Kind::Var;
  const earthcc::Var *Base = nullptr;
  unsigned OffsetWords = 0;
  std::string FieldName;       ///< Dotted path for StructField/Indirect.
  const earthcc::Type *Ty = nullptr; ///< Type of the accessed value.
};

class Lowering {
public:
  Lowering(const TranslationUnit &Unit, DiagnosticsEngine &Diags)
      : Unit(Unit), Diags(Diags), M(std::make_unique<earthcc::Module>()) {}

  std::unique_ptr<earthcc::Module> run() {
    declareStructs();
    declareGlobals();
    declareFunctions();
    if (Diags.hasErrors())
      return std::move(M);
    for (const FuncDecl &FD : Unit.Functions)
      if (FD.Body)
        lowerFunction(FD);
    return std::move(M);
  }

private:
  using Type = earthcc::Type;
  using Var = earthcc::Var;

  //===--------------------------------------------------------------------===
  // Declaration passes.
  //===--------------------------------------------------------------------===

  void declareStructs() {
    // Create all tags first so pointer fields can reference any struct.
    for (const StructDecl &SD : Unit.Structs)
      if (!M->types().createStruct(SD.Name))
        Diags.error(SD.Loc, "redefinition of struct '" + SD.Name + "'");
    for (const StructDecl &SD : Unit.Structs) {
      StructType *S = M->types().findStruct(SD.Name);
      if (!S || S->isComplete())
        continue;
      for (const FieldDecl &FD : SD.Fields) {
        const Type *Ty = resolveType(FD.Type, FD.Loc);
        if (!Ty)
          continue;
        if (Ty->isStruct() && !Ty->structType()->isComplete() &&
            Ty->structType() != S) {
          // Nested struct values require the nested type to be complete.
          Diags.error(FD.Loc, "field of incomplete struct type");
          continue;
        }
        if (Ty->isStruct() && Ty->structType() == S) {
          Diags.error(FD.Loc, "struct cannot contain itself by value");
          continue;
        }
        if (Ty->isVoid()) {
          Diags.error(FD.Loc, "field cannot have void type");
          continue;
        }
        if (S->findField(FD.Name))
          Diags.error(FD.Loc, "duplicate field '" + FD.Name + "'");
        else
          S->addField(FD.Name, Ty);
      }
      S->finalize();
    }
  }

  void declareGlobals() {
    for (const GlobalDecl &GD : Unit.Globals) {
      const Type *Ty = resolveType(GD.Decl.Type, GD.Decl.Loc);
      if (!Ty)
        continue;
      if (M->findGlobal(GD.Decl.Name)) {
        Diags.error(GD.Decl.Loc,
                    "redefinition of global '" + GD.Decl.Name + "'");
        continue;
      }
      VarKind Kind =
          GD.Decl.Type.SharedQual ? VarKind::Shared : VarKind::Global;
      M->addGlobal(GD.Decl.Name, Ty, Kind);
      if (GD.Decl.Init)
        Diags.error(GD.Decl.Loc,
                    "global initializers are not supported; assign in main");
    }
  }

  void declareFunctions() {
    for (const FuncDecl &FD : Unit.Functions) {
      const Type *RetTy = resolveType(FD.ReturnType, FD.Loc);
      if (!RetTy)
        continue;
      if (RetTy->isStruct()) {
        Diags.error(FD.Loc, "functions cannot return structs by value");
        continue;
      }
      earthcc::Function *Existing = M->findFunction(FD.Name);
      if (Existing) {
        if (!FD.Body)
          continue; // Re-prototype: tolerated.
        if (!FunctionHasBody[FD.Name]) {
          FunctionHasBody[FD.Name] = true;
          continue; // Prototype earlier, body now: same Function object.
        }
        Diags.error(FD.Loc, "redefinition of function '" + FD.Name + "'");
        continue;
      }
      earthcc::Function *F = M->createFunction(FD.Name, RetTy);
      FunctionHasBody[FD.Name] = FD.Body != nullptr;
      for (const ParamDecl &PD : FD.Params) {
        const Type *PTy = resolveType(PD.Type, PD.Loc);
        if (!PTy)
          continue;
        if (PTy->isStruct() || PTy->isVoid()) {
          Diags.error(PD.Loc, "parameters must have scalar type");
          continue;
        }
        F->addParam(PD.Name, PTy);
      }
    }
  }

  const Type *resolveType(const TypeSpec &TS, SourceLoc Loc) {
    const Type *Base = nullptr;
    switch (TS.BaseKind) {
    case TypeSpec::Base::Int:
      Base = M->types().intTy();
      break;
    case TypeSpec::Base::Double:
      Base = M->types().doubleTy();
      break;
    case TypeSpec::Base::Void:
      Base = M->types().voidTy();
      break;
    case TypeSpec::Base::Struct: {
      StructType *S = M->types().findStruct(TS.StructName);
      if (!S) {
        Diags.error(Loc, "unknown struct '" + TS.StructName + "'");
        return nullptr;
      }
      Base = M->types().structTy(S);
      break;
    }
    }
    if (TS.PointerDepth == 0) {
      if (TS.LocalQual)
        Diags.error(Loc, "'local' only qualifies pointers");
      return Base;
    }
    const Type *T = Base;
    for (unsigned I = 0; I + 1 < TS.PointerDepth; ++I)
      T = M->types().pointerTo(T, /*LocalQual=*/false);
    // The qualifier attaches to the outermost pointer level.
    return M->types().pointerTo(T, TS.LocalQual);
  }

  //===--------------------------------------------------------------------===
  // Function lowering.
  //===--------------------------------------------------------------------===

  void lowerFunction(const FuncDecl &FD) {
    F = M->findFunction(FD.Name);
    if (!F)
      return;
    Scopes.clear();
    Scopes.emplace_back();
    for (Var *P : F->params())
      Scopes.back()[P->name()] = P;
    SeqStack.clear();
    SeqStack.push_back(&F->body());
    lowerStmtInto(*FD.Body);
    Scopes.pop_back();
    F->relabel();
  }

  SeqStmt &seq() { return *SeqStack.back(); }

  template <typename T, typename... Args> T *emit(Args &&...ArgsV) {
    auto S = std::make_unique<T>(std::forward<Args>(ArgsV)...);
    T *Raw = S.get();
    seq().push(std::move(S));
    return Raw;
  }

  Var *lookup(const std::string &Name, SourceLoc Loc) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    if (Var *G = M->findGlobal(Name))
      return G;
    Diags.error(Loc, "use of undeclared identifier '" + Name + "'");
    return nullptr;
  }

  //===--------------------------------------------------------------------===
  // Type coercion helpers.
  //===--------------------------------------------------------------------===

  bool isNullConst(const Operand &O) {
    return O.isConst() && O.getConst().isInt() && O.getConst().I == 0;
  }

  /// Coerces \p O of type \p From to \p To, inserting a conversion temp if
  /// needed. Reports an error for incompatible types.
  Operand coerce(Operand O, const Type *From, const Type *To, SourceLoc Loc) {
    if (!From || !To || From == To)
      return O;
    if (From->isInt() && To->isDouble()) {
      if (O.isConst())
        return Operand::doubleConst(static_cast<double>(O.getConst().I));
      Var *T = F->addTemp(To);
      emit<AssignStmt>(LValue::makeVar(T),
                       std::make_unique<UnaryRV>(UnaryOp::IntToDouble, O))
          ->setLoc(Loc);
      return Operand::var(T);
    }
    if (From->isDouble() && To->isInt()) {
      // Fold with the engines' conversion (saturating, NaN -> 0); the bare
      // cast is UB out of range and would let folding diverge from runtime.
      if (O.isConst())
        return Operand::intConst(interp::doubleToIntSat(O.getConst().D));
      Var *T = F->addTemp(To);
      emit<AssignStmt>(LValue::makeVar(T),
                       std::make_unique<UnaryRV>(UnaryOp::DoubleToInt, O))
          ->setLoc(Loc);
      return Operand::var(T);
    }
    if (To->isPointer() && From->isInt() && isNullConst(O))
      return O; // NULL literal.
    if (To->isPointer() && From->isPointer()) {
      // Pointee must match; `local` may be added or dropped (adding it is
      // the programmer's locality assertion, as in EARTH-C).
      const Type *A = From->pointee();
      const Type *B = To->pointee();
      if (A == B || (A->isStruct() && B->isStruct() &&
                     A->structType() == B->structType()))
        return O;
    }
    if (To->isInt() && From->isPointer())
      return O; // Pointer used in a boolean/integer context.
    Diags.error(Loc, "cannot convert '" + From->str() + "' to '" + To->str() +
                         "'");
    return O;
  }

  //===--------------------------------------------------------------------===
  // Operator typing: every binary and unary expression is typed here.
  //===--------------------------------------------------------------------===

  static BinaryOp binaryOpOf(Expr::BinOp Op) {
    switch (Op) {
    case Expr::BinOp::Add: return BinaryOp::Add;
    case Expr::BinOp::Sub: return BinaryOp::Sub;
    case Expr::BinOp::Mul: return BinaryOp::Mul;
    case Expr::BinOp::Div: return BinaryOp::Div;
    case Expr::BinOp::Rem: return BinaryOp::Rem;
    case Expr::BinOp::Lt: return BinaryOp::Lt;
    case Expr::BinOp::Le: return BinaryOp::Le;
    case Expr::BinOp::Gt: return BinaryOp::Gt;
    case Expr::BinOp::Ge: return BinaryOp::Ge;
    case Expr::BinOp::Eq: return BinaryOp::Eq;
    case Expr::BinOp::Ne: return BinaryOp::Ne;
    case Expr::BinOp::LAnd: return BinaryOp::And;
    case Expr::BinOp::LOr: return BinaryOp::Or;
    }
    return BinaryOp::Add;
  }

  static BinaryOp negatedComparison(BinaryOp Op) {
    switch (Op) {
    case BinaryOp::Lt: return BinaryOp::Ge;
    case BinaryOp::Le: return BinaryOp::Gt;
    case BinaryOp::Gt: return BinaryOp::Le;
    case BinaryOp::Ge: return BinaryOp::Lt;
    case BinaryOp::Eq: return BinaryOp::Ne;
    case BinaryOp::Ne: return BinaryOp::Eq;
    default: return Op;
    }
  }

  /// Types `A Op B` and returns its result type. A pointer operand allows
  /// only ==/!=. Otherwise an int operand is promoted to double when the
  /// other side is double (both are coerced at \p Loc), '%' requires
  /// integers, and a comparison yields int.
  const Type *typeBinary(BinaryOp Op, Operand &A, const Type *TyA, Operand &B,
                         const Type *TyB, SourceLoc Loc) {
    const Type *IntTy = M->types().intTy();
    if (TyA->isPointer() || TyB->isPointer()) {
      if (Op != BinaryOp::Eq && Op != BinaryOp::Ne)
        Diags.error(Loc, "only ==/!= comparisons are defined on pointers");
      return IntTy;
    }
    const Type *OpTy =
        TyA->isDouble() || TyB->isDouble() ? M->types().doubleTy() : IntTy;
    A = coerce(A, TyA, OpTy, Loc);
    B = coerce(B, TyB, OpTy, Loc);
    if (Op == BinaryOp::Rem && OpTy->isDouble())
      Diags.error(Loc, "'%' requires integer operands");
    return isComparison(Op) ? IntTy : OpTy;
  }

  /// Types `Op A` for an operand of type \p Ty and returns its result type:
  /// `-` requires an int or double operand, and `!` yields int.
  const Type *typeUnary(Expr::UnOp Op, const Type *Ty, SourceLoc Loc) {
    if (Op == Expr::UnOp::Not)
      return M->types().intTy();
    if (!Ty->isInt() && !Ty->isDouble())
      Diags.error(Loc, "'-' requires an arithmetic operand");
    return Ty;
  }

  //===--------------------------------------------------------------------===
  // Access-path resolution.
  //===--------------------------------------------------------------------===

  Locality localityOf(const Var *Ptr) {
    return Ptr->type()->isLocalPointer() ? Locality::Local : Locality::Remote;
  }

  /// Lowers \p E to a pointer-typed variable (emitting loads as needed).
  Var *lowerToPointerVar(const Expr &E) {
    auto [O, Ty] = lowerExpr(E);
    if (!Ty || !Ty->isPointer()) {
      Diags.error(E.Loc, "expected a pointer expression");
      return nullptr;
    }
    if (O.isVar())
      return const_cast<Var *>(O.getVar());
    Var *T = F->addTemp(Ty);
    emit<AssignStmt>(LValue::makeVar(T), std::make_unique<OpndRV>(O))
        ->setLoc(E.Loc);
    return T;
  }

  /// Resolves an lvalue-ish expression to an access path. Returns nullopt
  /// and reports an error on unsupported shapes.
  std::optional<AccessPath> resolvePath(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::Ident: {
      Var *V = lookup(E.Name, E.Loc);
      if (!V)
        return std::nullopt;
      if (V->isShared()) {
        Diags.error(E.Loc, "shared variable '" + V->name() +
                               "' must be accessed with "
                               "writeto/addto/valueof");
        return std::nullopt;
      }
      AccessPath P;
      if (V->type()->isStruct()) {
        P.K = AccessPath::Kind::StructField; // Whole struct: offset 0.
        P.Base = V;
        P.Ty = V->type();
      } else {
        P.K = AccessPath::Kind::Var;
        P.Base = V;
        P.Ty = V->type();
      }
      return P;
    }
    case Expr::Kind::Deref: {
      Var *Ptr = lowerToPointerVar(*E.Lhs);
      if (!Ptr)
        return std::nullopt;
      AccessPath P;
      P.K = AccessPath::Kind::Indirect;
      P.Base = Ptr;
      P.OffsetWords = 0;
      P.Ty = Ptr->type()->pointee();
      return P;
    }
    case Expr::Kind::Member: {
      if (E.IsArrow) {
        Var *Ptr = lowerToPointerVar(*E.Lhs);
        if (!Ptr)
          return std::nullopt;
        const Type *Pointee = Ptr->type()->pointee();
        if (!Pointee->isStruct()) {
          Diags.error(E.Loc, "'->' into non-struct pointee");
          return std::nullopt;
        }
        const StructType::Field *Fld =
            Pointee->structType()->findField(E.Name);
        if (!Fld) {
          Diags.error(E.Loc, "no field '" + E.Name + "' in " +
                                 Pointee->str());
          return std::nullopt;
        }
        AccessPath P;
        P.K = AccessPath::Kind::Indirect;
        P.Base = Ptr;
        P.OffsetWords = Fld->OffsetWords;
        P.FieldName = E.Name;
        P.Ty = Fld->Ty;
        return P;
      }
      // Dot: extend the base path.
      auto BaseP = resolvePath(*E.Lhs);
      if (!BaseP)
        return std::nullopt;
      if (!BaseP->Ty || !BaseP->Ty->isStruct()) {
        Diags.error(E.Loc, "'.' applied to a non-struct value");
        return std::nullopt;
      }
      const StructType::Field *Fld =
          BaseP->Ty->structType()->findField(E.Name);
      if (!Fld) {
        Diags.error(E.Loc, "no field '" + E.Name + "' in " + BaseP->Ty->str());
        return std::nullopt;
      }
      if (BaseP->K == AccessPath::Kind::Var) {
        Diags.error(E.Loc, "'.' applied to a scalar variable");
        return std::nullopt;
      }
      AccessPath P = *BaseP;
      P.OffsetWords += Fld->OffsetWords;
      P.FieldName =
          P.FieldName.empty() ? E.Name : P.FieldName + "." + E.Name;
      P.Ty = Fld->Ty;
      return P;
    }
    default:
      Diags.error(E.Loc, "expression is not addressable");
      return std::nullopt;
    }
  }

  //===--------------------------------------------------------------------===
  // Expression lowering.
  //===--------------------------------------------------------------------===

  /// Lowers an expression to an operand plus its type. With \p Into, a
  /// binary expression, a load, a struct-field read or a call whose value
  /// has Into's type is computed straight into Into (the paper's `x = p->f`
  /// with no temp); any other value lands in a temp. A load or binary
  /// statement that writes Into, and a binary temp made for it, carries
  /// \p At; a call keeps the call's location. Comm sites are keyed by
  /// statement locations, so these are identity, not style.
  std::pair<Operand, const Type *> lowerExpr(const Expr &E,
                                             Var *Into = nullptr,
                                             SourceLoc At = {}) {
    switch (E.K) {
    case Expr::Kind::IntLit:
      return {Operand::intConst(E.IntValue), M->types().intTy()};
    case Expr::Kind::DoubleLit:
      return {Operand::doubleConst(E.DoubleValue), M->types().doubleTy()};
    case Expr::Kind::SizeOf: {
      int64_t Words = 1;
      if (!E.Name.empty()) {
        if (const StructType *S = M->types().findStruct(E.Name))
          Words = S->sizeInWords();
        else
          Diags.error(E.Loc, "sizeof of unknown struct '" + E.Name + "'");
      }
      return {Operand::intConst(Words), M->types().intTy()};
    }
    case Expr::Kind::Ident: {
      Var *V = lookup(E.Name, E.Loc);
      if (!V)
        return {Operand::intConst(0), M->types().intTy()};
      if (V->type()->isStruct()) {
        Diags.error(E.Loc, "struct variable used as a scalar value");
        return {Operand::intConst(0), M->types().intTy()};
      }
      if (V->isShared()) {
        Diags.error(E.Loc, "shared variable '" + V->name() +
                               "' must be accessed with "
                               "writeto/addto/valueof");
        return {Operand::intConst(0), M->types().intTy()};
      }
      if (V->isGlobal()) {
        // Ordinary globals live on node 0; direct use is a remote access.
        // We model them through the shared/global runtime path: load into a
        // temp via a global-access intrinsic-free mechanism is not part of
        // this dialect, so we reject reads of non-shared globals for now.
        Diags.error(E.Loc,
                    "ordinary global variables are not supported; use "
                    "shared variables or pass pointers");
        return {Operand::intConst(0), M->types().intTy()};
      }
      return {Operand::var(V), V->type()};
    }
    case Expr::Kind::Unary: {
      auto [O, Ty] = lowerExpr(*E.Lhs);
      bool Neg = E.UOp == Expr::UnOp::Neg;
      const Type *ResTy = typeUnary(E.UOp, Ty, E.Loc);
      // wrapSub(0, I): negation wraps like the engines' Neg step does
      // (plain -I is UB at INT64_MIN, reachable via -(-9223372036854775808).
      if (Neg && O.isConst())
        return {O.getConst().isInt()
                    ? Operand::intConst(interp::wrapSub(0, O.getConst().I))
                    : Operand::doubleConst(-O.getConst().D),
                ResTy};
      Var *T = F->addTemp(ResTy);
      emit<AssignStmt>(LValue::makeVar(T),
                       std::make_unique<UnaryRV>(
                           Neg ? UnaryOp::Neg : UnaryOp::Not, O))
          ->setLoc(E.Loc);
      return {Operand::var(T), ResTy};
    }
    case Expr::Kind::Binary:
      return lowerBinary(E, Into, At);
    case Expr::Kind::Deref:
    case Expr::Kind::Member: {
      auto P = resolvePath(E);
      if (!P)
        return {Operand::intConst(0), M->types().intTy()};
      return loadPath(*P, E.Loc, Into, At);
    }
    case Expr::Kind::AddrOf: {
      // Only &(p->f) and &(*p).f shapes produce values; &shared is handled
      // at intrinsic call sites.
      auto P = resolvePath(*E.Lhs);
      if (!P)
        return {Operand::intConst(0), M->types().intTy()};
      if (P->K != AccessPath::Kind::Indirect) {
        Diags.error(E.Loc, "'&' is only supported on p->field expressions "
                           "(or on shared variables in atomic intrinsics)");
        return {Operand::intConst(0), M->types().intTy()};
      }
      const Type *ResTy = M->types().pointerTo(P->Ty);
      Var *T = F->addTemp(ResTy);
      emit<AssignStmt>(LValue::makeVar(T),
                       std::make_unique<AddrOfFieldRV>(
                           P->Base, P->OffsetWords, P->FieldName, ResTy))
          ->setLoc(E.Loc);
      return {Operand::var(T), ResTy};
    }
    case Expr::Kind::Call:
      return lowerCall(E, Into);
    }
    return {Operand::intConst(0), M->types().intTy()};
  }

  /// The variable a value of type \p Ty is computed into: \p Into when the
  /// types match, else a new temp.
  Var *resultVar(Var *Into, const Type *Ty) {
    return Into && Into->type() == Ty ? Into : F->addTemp(Ty);
  }

  /// Lowers \p E as a value of type \p To, converting at \p Loc. A pmalloc
  /// bound for a pointer takes that pointer's type, landing in a fresh temp
  /// as `t = pmalloc(n)` would.
  Operand lowerAs(const Expr &E, const Type *To, SourceLoc Loc) {
    auto [O, Ty] = E.K == Expr::Kind::Call && To && To->isPointer()
                       ? lowerCall(E, nullptr, To)
                       : lowerExpr(E);
    return coerce(O, Ty, To, Loc);
  }

  /// Emits the load for a resolved access path at \p Loc (at \p At when it
  /// lands in \p Into, see lowerExpr); returns value operand.
  std::pair<Operand, const Type *> loadPath(const AccessPath &P, SourceLoc Loc,
                                            Var *Into, SourceLoc At) {
    if (P.K == AccessPath::Kind::Var)
      return {Operand::var(P.Base), P.Ty};
    bool Indirect = P.K == AccessPath::Kind::Indirect;
    if (P.Ty->isStruct()) {
      Diags.error(Loc, Indirect ? "loading whole structs is not supported; "
                                  "read fields individually"
                                : "struct value used as a scalar");
      return {Operand::intConst(0), M->types().intTy()};
    }
    std::unique_ptr<RValue> R;
    if (Indirect)
      R = std::make_unique<LoadRV>(P.Base, P.OffsetWords, P.FieldName, P.Ty,
                                   localityOf(P.Base));
    else
      R = std::make_unique<FieldReadRV>(P.Base, P.OffsetWords, P.FieldName,
                                        P.Ty);
    Var *T = resultVar(Into, P.Ty);
    emit<AssignStmt>(LValue::makeVar(T), std::move(R))
        ->setLoc(T == Into ? At : Loc);
    return {Operand::var(T), P.Ty};
  }

  std::pair<Operand, const Type *> lowerBinary(const Expr &E, Var *Into,
                                               SourceLoc At) {
    if (E.BOp == Expr::BinOp::LAnd || E.BOp == Expr::BinOp::LOr)
      return lowerShortCircuit(E);
    auto [A, TyA] = lowerExpr(*E.Lhs);
    auto [B, TyB] = lowerExpr(*E.Rhs);
    BinaryOp Op = binaryOpOf(E.BOp);
    const Type *ResTy = typeBinary(Op, A, TyA, B, TyB, E.Loc);
    Var *T = resultVar(Into, ResTy);
    emit<AssignStmt>(LValue::makeVar(T), std::make_unique<BinaryRV>(Op, A, B))
        ->setLoc(Into ? At : E.Loc);
    return {Operand::var(T), ResTy};
  }

  /// Lowers `a && b` / `a || b` with C short-circuit semantics:
  ///   t = 0; if (a) { if (b) t = 1; }            (&&)
  ///   t = 1; if (!a) { if (!b) t = 0; }          (||) — via nested ifs.
  std::pair<Operand, const Type *> lowerShortCircuit(const Expr &E) {
    const Type *IntTy = M->types().intTy();
    Var *T = F->addTemp(IntTy);
    bool IsAnd = E.BOp == Expr::BinOp::LAnd;
    emit<AssignStmt>(LValue::makeVar(T), std::make_unique<OpndRV>(
                                             Operand::intConst(IsAnd ? 0 : 1)))
        ->setLoc(E.Loc);

    auto CondA = lowerCondRV(*E.Lhs, /*Negate=*/!IsAnd);
    auto OuterIf = std::make_unique<IfStmt>(std::move(CondA),
                                            std::make_unique<SeqStmt>(),
                                            std::make_unique<SeqStmt>());
    IfStmt *Outer = OuterIf.get();
    seq().push(std::move(OuterIf));

    SeqStack.push_back(Outer->Then.get());
    auto CondB = lowerCondRV(*E.Rhs, /*Negate=*/!IsAnd);
    auto InnerIf = std::make_unique<IfStmt>(std::move(CondB),
                                            std::make_unique<SeqStmt>(),
                                            std::make_unique<SeqStmt>());
    IfStmt *Inner = InnerIf.get();
    seq().push(std::move(InnerIf));
    SeqStack.push_back(Inner->Then.get());
    emit<AssignStmt>(LValue::makeVar(T), std::make_unique<OpndRV>(
                                             Operand::intConst(IsAnd ? 1 : 0)))
        ->setLoc(E.Loc);
    SeqStack.pop_back();
    SeqStack.pop_back();
    return {Operand::var(T), IntTy};
  }

  /// Lowers a boolean condition into a SIMPLE condition RValue (operand or
  /// comparison of operands), emitting preparatory statements into the
  /// current sequence. With \p Negate, produces the negated condition.
  std::unique_ptr<RValue> lowerCondRV(const Expr &E, bool Negate = false) {
    // Direct comparison: keep it as a BinaryRV when both sides are simple.
    if (E.K == Expr::Kind::Binary && isComparison(binaryOpOf(E.BOp))) {
      auto [A, TyA] = lowerExpr(*E.Lhs);
      auto [B, TyB] = lowerExpr(*E.Rhs);
      BinaryOp Op = binaryOpOf(E.BOp);
      typeBinary(Op, A, TyA, B, TyB, E.Loc);
      return std::make_unique<BinaryRV>(Negate ? negatedComparison(Op) : Op,
                                        A, B);
    }
    auto [O, Ty] = lowerExpr(E);
    (void)Ty;
    if (Negate)
      return std::make_unique<UnaryRV>(UnaryOp::Not, O);
    return std::make_unique<OpndRV>(O);
  }

  //===--------------------------------------------------------------------===
  // Calls and intrinsics.
  //===--------------------------------------------------------------------===

  /// An intrinsic, its argument count, and what its arity error adds.
  struct IntrinsicInfo {
    const char *Name;
    Intrinsic K;
    unsigned NumArgs;
    const char *ArgsHint;
  };

  static const IntrinsicInfo *intrinsicByName(const std::string &Name) {
    static constexpr IntrinsicInfo Table[] = {
        {"pmalloc", Intrinsic::PMalloc, 1, " (size in words)"},
        {"print", Intrinsic::Print, 1, ""},
        {"my_node", Intrinsic::MyNode, 0, ""},
        {"num_nodes", Intrinsic::NumNodes, 0, ""},
        {"isqrt", Intrinsic::IntSqrt, 1, ""},
        {"sqrt", Intrinsic::Sqrt, 1, ""},
        {"fabs", Intrinsic::Fabs, 1, ""},
    };
    for (const IntrinsicInfo &I : Table)
      if (Name == I.Name)
        return &I;
    return nullptr;
  }

  /// Lowers a call expression; a result of \p Into's type lands in Into.
  /// pmalloc's pointer type is Into's, else \p AllocTy when given.
  std::pair<Operand, const Type *> lowerCall(const Expr &E, Var *Into,
                                             const Type *AllocTy = nullptr) {
    // Atomic intrinsics on shared variables.
    if (E.Name == "writeto" || E.Name == "addto" || E.Name == "valueof")
      return lowerAtomic(E);

    CallPlacement Placement = CallPlacement::Default;
    Operand PlaceArg;
    switch (E.Place) {
    case Expr::PlaceKind::None:
      break;
    case Expr::PlaceKind::Home:
      Placement = CallPlacement::Home;
      break;
    case Expr::PlaceKind::OwnerOf: {
      auto [O, Ty] = lowerExpr(*E.PlaceArg);
      if (!Ty || !Ty->isPointer())
        Diags.error(E.Loc, "OWNER_OF requires a pointer argument");
      Placement = CallPlacement::OwnerOf;
      PlaceArg = O;
      break;
    }
    case Expr::PlaceKind::AtNode: {
      auto [O, Ty] = lowerExpr(*E.PlaceArg);
      if (!Ty || !Ty->isInt())
        Diags.error(E.Loc, "@node requires an int argument");
      Placement = CallPlacement::AtNode;
      PlaceArg = O;
      break;
    }
    }

    if (const IntrinsicInfo *Intrin = intrinsicByName(E.Name))
      return lowerIntrinsic(E, *Intrin, Into, AllocTy, Placement, PlaceArg);

    earthcc::Function *Callee = M->findFunction(E.Name);
    if (!Callee) {
      Diags.error(E.Loc, "call to undeclared function '" + E.Name + "'");
      return {Operand::intConst(0), M->types().intTy()};
    }
    if (E.Args.size() != Callee->params().size()) {
      Diags.error(E.Loc, "wrong number of arguments to '" + E.Name + "'");
      return {Operand::intConst(0), Callee->returnType()};
    }
    std::vector<Operand> Args;
    for (size_t I = 0; I != E.Args.size(); ++I)
      Args.push_back(lowerAs(*E.Args[I], Callee->params()[I]->type(),
                             E.Args[I]->Loc));
    const Type *RetTy = Callee->returnType();
    Var *Result = RetTy->isVoid() ? nullptr : resultVar(Into, RetTy);
    auto *CS = emit<CallStmt>(Result, E.Name, std::move(Args));
    CS->Callee = Callee;
    CS->Placement = Placement;
    CS->PlacementArg = PlaceArg;
    CS->setLoc(E.Loc);
    if (!Result)
      return {Operand::intConst(0), RetTy};
    return {Operand::var(Result), RetTy};
  }

  /// Lowers a call of intrinsic \p Intrin after checking its argument
  /// count; \p Into and \p AllocTy are as for lowerCall.
  std::pair<Operand, const Type *>
  lowerIntrinsic(const Expr &E, const IntrinsicInfo &Intrin, Var *Into,
                 const Type *AllocTy, CallPlacement Placement,
                 Operand PlaceArg) {
    const Type *IntTy = M->types().intTy();
    const Type *DblTy = M->types().doubleTy();

    if (E.Args.size() != Intrin.NumArgs) {
      const char *Count = Intrin.NumArgs ? "one argument" : "no arguments";
      Diags.error(E.Loc, std::string(Intrin.Name) + " takes " + Count +
                             Intrin.ArgsHint);
      return {Operand::intConst(0), IntTy};
    }

    auto makeCall = [&](Var *Result, std::vector<Operand> Args) -> CallStmt * {
      auto *CS = emit<CallStmt>(Result, E.Name, std::move(Args));
      CS->Intrin = Intrin.K;
      CS->Placement = Placement;
      CS->PlacementArg = PlaceArg;
      CS->setLoc(E.Loc);
      return CS;
    };

    switch (Intrin.K) {
    case Intrinsic::PMalloc: {
      Operand O = lowerAs(*E.Args[0], IntTy, E.Loc);
      const Type *ResTy = Into      ? Into->type()
                          : AllocTy ? AllocTy
                                    : M->types().pointerTo(IntTy);
      if (!ResTy->isPointer()) {
        Diags.error(E.Loc, "pmalloc result must be assigned to a pointer");
        return {Operand::intConst(0), ResTy};
      }
      Var *Result = resultVar(Into, ResTy);
      makeCall(Result, {O});
      return {Operand::var(Result), ResTy};
    }
    case Intrinsic::Print: {
      auto [O, Ty] = lowerExpr(*E.Args[0]);
      (void)Ty;
      makeCall(nullptr, {O});
      return {Operand::intConst(0), M->types().voidTy()};
    }
    case Intrinsic::MyNode:
    case Intrinsic::NumNodes: {
      Var *Result = resultVar(Into, IntTy);
      makeCall(Result, {});
      return {Operand::var(Result), IntTy};
    }
    case Intrinsic::IntSqrt: {
      Operand O = lowerAs(*E.Args[0], IntTy, E.Loc);
      Var *Result = resultVar(Into, IntTy);
      makeCall(Result, {O});
      return {Operand::var(Result), IntTy};
    }
    case Intrinsic::Sqrt:
    case Intrinsic::Fabs: {
      Operand O = lowerAs(*E.Args[0], DblTy, E.Loc);
      Var *Result = resultVar(Into, DblTy);
      makeCall(Result, {O});
      return {Operand::var(Result), DblTy};
    }
    case Intrinsic::None:
      break;
    }
    return {Operand::intConst(0), IntTy};
  }

  /// Lowers writeto(&s, v) / addto(&s, v) / valueof(&s).
  std::pair<Operand, const Type *> lowerAtomic(const Expr &E) {
    auto sharedArg = [&](const Expr &Arg) -> Var * {
      if (Arg.K != Expr::Kind::AddrOf || Arg.Lhs->K != Expr::Kind::Ident) {
        Diags.error(Arg.Loc, "atomic intrinsics take '&sharedVar'");
        return nullptr;
      }
      Var *V = lookup(Arg.Lhs->Name, Arg.Loc);
      if (V && !V->isShared()) {
        Diags.error(Arg.Loc,
                    "'" + V->name() + "' is not a shared variable");
        return nullptr;
      }
      return V;
    };

    const Type *IntTy = M->types().intTy();
    if (E.Name == "valueof") {
      if (E.Args.size() != 1) {
        Diags.error(E.Loc, "valueof takes one argument");
        return {Operand::intConst(0), IntTy};
      }
      Var *S = sharedArg(*E.Args[0]);
      if (!S)
        return {Operand::intConst(0), IntTy};
      Var *Result = F->addTemp(S->type());
      auto *A = emit<AtomicStmt>(AtomicOp::ValueOf, S, Operand(), Result);
      A->setLoc(E.Loc);
      return {Operand::var(Result), S->type()};
    }

    if (E.Args.size() != 2) {
      Diags.error(E.Loc, E.Name + " takes two arguments");
      return {Operand::intConst(0), IntTy};
    }
    Var *S = sharedArg(*E.Args[0]);
    Operand O = lowerAs(*E.Args[1], S ? S->type() : nullptr, E.Loc);
    if (!S)
      return {Operand::intConst(0), IntTy};
    AtomicOp Op = E.Name == "writeto" ? AtomicOp::WriteTo : AtomicOp::AddTo;
    auto *A = emit<AtomicStmt>(Op, S, O, nullptr);
    A->setLoc(E.Loc);
    return {Operand::intConst(0), M->types().voidTy()};
  }

  //===--------------------------------------------------------------------===
  // Statement lowering.
  //===--------------------------------------------------------------------===

  void lowerStmtInto(const ast::Stmt &S) {
    switch (S.K) {
    case ast::Stmt::Kind::Block: {
      Scopes.emplace_back();
      for (const auto &Child : S.Body)
        lowerStmtInto(*Child);
      Scopes.pop_back();
      return;
    }
    case ast::Stmt::Kind::ParBlock: {
      auto Par = std::make_unique<SeqStmt>(/*Parallel=*/true);
      SeqStmt *ParRaw = Par.get();
      seq().push(std::move(Par));
      Scopes.emplace_back();
      for (const auto &Child : S.Body) {
        auto Branch = std::make_unique<SeqStmt>();
        SeqStmt *BranchRaw = Branch.get();
        ParRaw->push(std::move(Branch));
        SeqStack.push_back(BranchRaw);
        lowerStmtInto(*Child);
        SeqStack.pop_back();
      }
      Scopes.pop_back();
      return;
    }
    case ast::Stmt::Kind::Decl: {
      for (const VarDecl &VD : S.Decls)
        lowerDecl(VD);
      return;
    }
    case ast::Stmt::Kind::ExprStmt: {
      if (S.Rhs->K == Expr::Kind::Call) {
        lowerCall(*S.Rhs, nullptr);
        return;
      }
      Diags.error(S.Loc, "expression statement has no effect");
      return;
    }
    case ast::Stmt::Kind::Assign:
      lowerAssign(S);
      return;
    case ast::Stmt::Kind::If: {
      auto Cond = lowerCondRV(*S.Cond);
      auto If = std::make_unique<IfStmt>(std::move(Cond),
                                         std::make_unique<SeqStmt>(),
                                         std::make_unique<SeqStmt>());
      If->setLoc(S.Loc);
      IfStmt *IfRaw = If.get();
      seq().push(std::move(If));
      SeqStack.push_back(IfRaw->Then.get());
      Scopes.emplace_back();
      lowerStmtInto(*S.Then);
      Scopes.pop_back();
      SeqStack.pop_back();
      if (S.Else) {
        SeqStack.push_back(IfRaw->Else.get());
        Scopes.emplace_back();
        lowerStmtInto(*S.Else);
        Scopes.pop_back();
        SeqStack.pop_back();
      }
      return;
    }
    case ast::Stmt::Kind::While:
    case ast::Stmt::Kind::DoWhile:
      lowerLoop(S, /*InitS=*/nullptr, /*StepS=*/nullptr,
                S.K == ast::Stmt::Kind::DoWhile);
      return;
    case ast::Stmt::Kind::For:
      lowerLoop(S, S.Init.get(), S.Step.get(), /*IsDoWhile=*/false);
      return;
    case ast::Stmt::Kind::Forall:
      lowerForall(S);
      return;
    case ast::Stmt::Kind::Switch:
      lowerSwitch(S);
      return;
    case ast::Stmt::Kind::Return: {
      if (!S.Lhs) {
        if (!F->returnType()->isVoid())
          Diags.error(S.Loc, "non-void function must return a value");
        emit<ReturnStmt>()->setLoc(S.Loc);
        return;
      }
      Operand O = lowerAs(*S.Lhs, F->returnType(), S.Loc);
      emit<ReturnStmt>(std::optional<Operand>(O))->setLoc(S.Loc);
      return;
    }
    }
  }

  void lowerDecl(const VarDecl &VD) {
    const Type *Ty = resolveType(VD.Type, VD.Loc);
    if (!Ty)
      return;
    if (Ty->isVoid()) {
      Diags.error(VD.Loc, "variables cannot have void type");
      return;
    }
    if (Scopes.back().count(VD.Name)) {
      Diags.error(VD.Loc, "redefinition of '" + VD.Name + "'");
      return;
    }
    VarKind Kind = VD.Type.SharedQual ? VarKind::Shared : VarKind::Local;
    Var *V = F->addLocal(VD.Name, Ty, Kind);
    Scopes.back()[VD.Name] = V;
    if (VD.Init) {
      if (Kind == VarKind::Shared) {
        Diags.error(VD.Loc, "initialize shared variables with writeto()");
        return;
      }
      lowerAssignTo(V, *VD.Init, VD.Loc);
    }
  }

  /// Lowers `V = <E>` for a plain variable target: the value is computed
  /// into V when its type allows, else converted and copied.
  void lowerAssignTo(Var *V, const Expr &E, SourceLoc Loc) {
    auto [O, Ty] = lowerExpr(E, V, Loc);
    O = coerce(O, Ty, V->type(), Loc);
    if (O.isVar() && O.getVar() == V)
      return;
    emit<AssignStmt>(LValue::makeVar(V), std::make_unique<OpndRV>(O))
        ->setLoc(Loc);
  }

  void lowerAssign(const ast::Stmt &S) {
    auto P = resolvePath(*S.Lhs);
    if (!P)
      return;
    switch (P->K) {
    case AccessPath::Kind::Var:
      lowerAssignTo(const_cast<Var *>(P->Base), *S.Rhs, S.Loc);
      return;
    case AccessPath::Kind::StructField: {
      if (P->Ty->isStruct()) {
        Diags.error(S.Loc, "whole-struct assignment is not supported");
        return;
      }
      Operand O = lowerAs(*S.Rhs, P->Ty, S.Loc);
      emit<AssignStmt>(
          LValue::makeFieldWrite(P->Base, P->OffsetWords, P->FieldName),
          std::make_unique<OpndRV>(O))
          ->setLoc(S.Loc);
      return;
    }
    case AccessPath::Kind::Indirect: {
      if (P->Ty->isStruct()) {
        Diags.error(S.Loc, "whole-struct stores are not supported");
        return;
      }
      Operand O = lowerAs(*S.Rhs, P->Ty, S.Loc);
      emit<AssignStmt>(LValue::makeStore(P->Base, P->OffsetWords,
                                         P->FieldName, localityOf(P->Base)),
                       std::make_unique<OpndRV>(O))
          ->setLoc(S.Loc);
      return;
    }
    }
  }

  /// Lowers while/do-while/for loops. Conditions with side statements are
  /// computed into a temp before the loop and recomputed at the body end:
  ///   tc = <cond>; while (tc) { body; step; tc = <cond>; }
  void lowerLoop(const ast::Stmt &S, const ast::Stmt *InitS,
                 const ast::Stmt *StepS, bool IsDoWhile) {
    Scopes.emplace_back();
    if (InitS)
      lowerStmtInto(*InitS);

    // Trial-lower the condition into a scratch sequence to see whether it
    // needs side statements. A condition that fails to type is not lowered
    // again (its module never runs), so each of its errors is reported once.
    unsigned Errors = Diags.errorCount();
    auto Scratch = std::make_unique<SeqStmt>();
    SeqStack.push_back(Scratch.get());
    auto TrialCond = lowerCondRV(*S.Cond);
    SeqStack.pop_back();
    bool SimpleCond = Scratch->empty() || Diags.errorCount() != Errors;

    if (SimpleCond) {
      auto While = std::make_unique<WhileStmt>(
          std::move(TrialCond), std::make_unique<SeqStmt>(), IsDoWhile);
      While->setLoc(S.Loc);
      WhileStmt *W = While.get();
      seq().push(std::move(While));
      SeqStack.push_back(W->Body.get());
      lowerStmtInto(*S.LoopBody);
      if (StepS)
        lowerStmtInto(*StepS);
      SeqStack.pop_back();
      Scopes.pop_back();
      return;
    }

    // Complex condition: evaluate into a temp.
    Var *CondVar = F->addTemp(M->types().intTy());
    auto emitCondInto = [&](SeqStmt *Target) {
      SeqStack.push_back(Target);
      auto CondRV = lowerCondRV(*S.Cond);
      emit<AssignStmt>(LValue::makeVar(CondVar), std::move(CondRV))
          ->setLoc(S.Cond->Loc);
      SeqStack.pop_back();
    };
    if (!IsDoWhile)
      emitCondInto(&seq());
    auto While = std::make_unique<WhileStmt>(
        std::make_unique<OpndRV>(Operand::var(CondVar)),
        std::make_unique<SeqStmt>(), IsDoWhile);
    While->setLoc(S.Loc);
    WhileStmt *W = While.get();
    seq().push(std::move(While));
    SeqStack.push_back(W->Body.get());
    lowerStmtInto(*S.LoopBody);
    if (StepS)
      lowerStmtInto(*StepS);
    SeqStack.pop_back();
    emitCondInto(W->Body.get());
    Scopes.pop_back();
  }

  void lowerForall(const ast::Stmt &S) {
    Scopes.emplace_back();
    auto Init = std::make_unique<SeqStmt>();
    auto Step = std::make_unique<SeqStmt>();
    auto Body = std::make_unique<SeqStmt>();

    SeqStack.push_back(Init.get());
    if (S.Init)
      lowerStmtInto(*S.Init);
    std::unique_ptr<RValue> Cond;
    {
      auto Scratch = std::make_unique<SeqStmt>();
      SeqStack.push_back(Scratch.get());
      Cond = lowerCondRV(*S.Cond);
      SeqStack.pop_back();
      if (!Scratch->empty()) {
        Diags.error(S.Loc, "forall conditions must be simple (no memory "
                           "accesses or calls)");
      }
    }
    SeqStack.pop_back();

    SeqStack.push_back(Step.get());
    if (S.Step)
      lowerStmtInto(*S.Step);
    SeqStack.pop_back();

    SeqStack.push_back(Body.get());
    lowerStmtInto(*S.LoopBody);
    SeqStack.pop_back();

    auto Forall = std::make_unique<ForallStmt>(std::move(Init),
                                               std::move(Cond),
                                               std::move(Step),
                                               std::move(Body));
    Forall->setLoc(S.Loc);
    seq().push(std::move(Forall));
    Scopes.pop_back();
  }

  void lowerSwitch(const ast::Stmt &S) {
    Operand O = lowerAs(*S.Cond, M->types().intTy(), S.Loc);
    auto Switch = std::make_unique<SwitchStmt>(O);
    Switch->setLoc(S.Loc);
    Switch->Default = std::make_unique<SeqStmt>();
    SwitchStmt *Sw = Switch.get();
    seq().push(std::move(Switch));
    for (const auto &C : S.Cases) {
      auto Body = std::make_unique<SeqStmt>();
      SeqStack.push_back(Body.get());
      Scopes.emplace_back();
      for (const auto &Inner : C.Body)
        lowerStmtInto(*Inner);
      Scopes.pop_back();
      SeqStack.pop_back();
      if (C.IsDefault)
        Sw->Default = std::move(Body);
      else
        Sw->Cases.push_back({C.Value, std::move(Body)});
    }
  }

  const TranslationUnit &Unit;
  DiagnosticsEngine &Diags;
  std::unique_ptr<earthcc::Module> M;
  earthcc::Function *F = nullptr;
  std::vector<std::map<std::string, Var *>> Scopes;
  std::vector<SeqStmt *> SeqStack;
  std::map<std::string, bool> FunctionHasBody;
};

} // namespace

std::unique_ptr<Module> earthcc::lowerToSimple(const TranslationUnit &Unit,
                                               DiagnosticsEngine &Diags) {
  return Lowering(Unit, Diags).run();
}

std::unique_ptr<Module> earthcc::compileToSimple(const std::string &Source,
                                                 DiagnosticsEngine &Diags) {
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  TranslationUnit Unit = P.parseUnit();
  if (Diags.hasErrors())
    return std::make_unique<Module>();
  return lowerToSimple(Unit, Diags);
}
