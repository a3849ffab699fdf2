//===- PointsTo.cpp -------------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"

#include <cassert>

using namespace earthcc;

PointsToAnalysis::PointsToAnalysis(const Module &M) {
  collect(M);
  solve();
}

PointsToAnalysis::NodeId PointsToAnalysis::varNode(const Var *V) {
  auto It = VarNodes.find(V);
  if (It != VarNodes.end())
    return It->second;
  NodeId N = static_cast<NodeId>(Pts.size());
  Pts.emplace_back();
  CopyEdges.emplace_back();
  VarNodes[V] = N;
  return N;
}

PointsToAnalysis::NodeId
PointsToAnalysis::varFieldNode(const Var *StructVar, unsigned Off) {
  auto Key = std::make_pair(StructVar, Off);
  auto It = VarFieldNodes.find(Key);
  if (It != VarFieldNodes.end())
    return It->second;
  NodeId N = static_cast<NodeId>(Pts.size());
  Pts.emplace_back();
  CopyEdges.emplace_back();
  VarFieldNodes[Key] = N;
  return N;
}

PointsToAnalysis::NodeId PointsToAnalysis::wordNode(Target T) {
  auto It = WordNodes.find(T);
  if (It != WordNodes.end())
    return It->second;
  NodeId N = static_cast<NodeId>(Pts.size());
  Pts.emplace_back();
  CopyEdges.emplace_back();
  WordNodes[T] = N;
  return N;
}

PointsToAnalysis::NodeId PointsToAnalysis::retNode(const Function *F) {
  auto It = RetNodes.find(F);
  if (It != RetNodes.end())
    return It->second;
  NodeId N = static_cast<NodeId>(Pts.size());
  Pts.emplace_back();
  CopyEdges.emplace_back();
  RetNodes[F] = N;
  return N;
}

unsigned PointsToAnalysis::regionOf(unsigned Obj, const StructType *S) {
  unsigned Root = Objects[Obj].Root;
  if (Objects[Root].Ty == S)
    return Root; // Recursive structures fold back onto the root anchor.
  auto Key = std::make_pair(Root, S);
  auto It = Regions.find(Key);
  if (It != Regions.end())
    return It->second;
  unsigned Id = static_cast<unsigned>(Objects.size());
  Objects.push_back({/*IsAnchor=*/true, Root, S});
  Regions[Key] = Id;
  return Id;
}

void PointsToAnalysis::collect(const Module &M) {
  for (const auto &F : M.functions()) {
    // Seed every pointer parameter with its own region anchor.
    for (const Var *P : F->params()) {
      if (!P->type()->isPointer())
        continue;
      unsigned Obj = static_cast<unsigned>(Objects.size());
      const Type *Pointee = P->type()->pointee();
      const StructType *Ty =
          Pointee->isStruct() ? Pointee->structType() : nullptr;
      Objects.push_back({/*IsAnchor=*/true, Obj, Ty});
      Pts[varNode(P)].insert({Obj, 0});
    }
  }
  for (const auto &F : M.functions())
    collectFunction(*F);
}

void PointsToAnalysis::collectFunction(const Function &F) {
  forEachStmt(F.body(), [this, &F](const Stmt &S) { collectStmt(F, S); });
}

void PointsToAnalysis::collectStmt(const Function &F, const Stmt &S) {
  switch (S.kind()) {
  case StmtKind::Assign: {
    const auto &A = castStmt<AssignStmt>(S);

    // Destination node (only pointer-valued flows matter).
    NodeId Dst;
    bool DstIsStore = false;
    const Var *StoreBase = nullptr;
    unsigned StoreOff = 0;
    switch (A.L.Kind) {
    case LValueKind::Var:
      if (!A.L.V->type()->isPointer())
        return;
      Dst = varNode(A.L.V);
      break;
    case LValueKind::FieldWrite:
      Dst = varFieldNode(A.L.V, A.L.OffsetWords);
      break;
    case LValueKind::Store:
      DstIsStore = true;
      StoreBase = A.L.V;
      StoreOff = A.L.OffsetWords;
      Dst = 0; // Unused.
      break;
    }

    // Source value: find the pointer-valued source node (if any).
    auto connect = [&](NodeId Src) {
      if (DstIsStore) {
        NodeId BaseNode = varNode(StoreBase);
        Stores.push_back({BaseNode, StoreOff, Src});
      } else {
        CopyEdges[Src].insert(Dst);
      }
    };

    switch (A.R->kind()) {
    case RValueKind::Opnd: {
      const auto &O = static_cast<const OpndRV &>(*A.R);
      if (O.Val.isVar() && O.Val.getVar()->type()->isPointer())
        connect(varNode(O.Val.getVar()));
      return;
    }
    case RValueKind::Load: {
      const auto &L = static_cast<const LoadRV &>(*A.R);
      if (!L.ValueTy->isPointer())
        return;
      if (DstIsStore) {
        // Cannot happen: SIMPLE allows one indirection per statement.
        assert(false && "store of a load in one statement");
        return;
      }
      Loads.push_back({Dst, varNode(L.Base), L.OffsetWords, L.ValueTy});
      return;
    }
    case RValueKind::FieldRead: {
      const auto &FR = static_cast<const FieldReadRV &>(*A.R);
      if (!FR.ValueTy->isPointer())
        return;
      connect(varFieldNode(FR.StructVar, FR.OffsetWords));
      return;
    }
    case RValueKind::AddrOfField: {
      const auto &AF = static_cast<const AddrOfFieldRV &>(*A.R);
      if (DstIsStore) {
        assert(false && "store of addr-of in one statement");
        return;
      }
      Offsets.push_back({Dst, varNode(AF.Base), AF.OffsetWords});
      return;
    }
    case RValueKind::Unary:
    case RValueKind::Binary:
      return; // Never pointer-valued in this dialect.
    }
    return;
  }
  case StmtKind::Call: {
    const auto &C = castStmt<CallStmt>(S);
    if (C.Intrin == Intrinsic::PMalloc) {
      if (C.Result && C.Result->type()->isPointer()) {
        unsigned Obj = static_cast<unsigned>(Objects.size());
        const Type *Pointee = C.Result->type()->pointee();
        Objects.push_back({/*IsAnchor=*/false, Obj,
                           Pointee->isStruct() ? Pointee->structType()
                                               : nullptr});
        Pts[varNode(C.Result)].insert({Obj, 0});
      }
      return;
    }
    if (!C.Callee)
      return;
    const Function *Callee = C.Callee;
    size_t N = std::min(C.Args.size(), Callee->params().size());
    for (size_t I = 0; I != N; ++I) {
      const Var *Param = Callee->params()[I];
      if (!Param->type()->isPointer())
        continue;
      const Operand &Arg = C.Args[I];
      if (Arg.isVar() && Arg.getVar()->type()->isPointer()) {
        // Evaluate both node ids before indexing: varNode() may grow the
        // CopyEdges vector and invalidate references.
        NodeId ArgNode = varNode(Arg.getVar());
        NodeId ParamNode = varNode(Param);
        CopyEdges[ArgNode].insert(ParamNode);
      }
    }
    if (C.Result && C.Result->type()->isPointer()) {
      NodeId Ret = retNode(Callee);
      NodeId Res = varNode(C.Result);
      CopyEdges[Ret].insert(Res);
    }
    return;
  }
  case StmtKind::Return: {
    const auto &R = castStmt<ReturnStmt>(S);
    if (R.Val && R.Val->isVar() && R.Val->getVar()->type()->isPointer()) {
      NodeId Src = varNode(R.Val->getVar());
      NodeId Ret = retNode(&F);
      CopyEdges[Src].insert(Ret);
    }
    return;
  }
  case StmtKind::BlkMov: {
    const auto &B = castStmt<BlkMovStmt>(S);
    // Word-wise pointer flow between *Ptr and the local struct.
    const StructType *ST = B.LocalStruct->type()->structType();
    for (unsigned Off = 0; Off != B.Words; ++Off) {
      const StructType::Field *Fld = ST->fieldAtOffset(Off);
      const Type *WordTy = Fld ? Fld->Ty : nullptr;
      // Nested structs: descend one level for pointer detection.
      if (Fld && Fld->Ty->isStruct()) {
        const StructType::Field *Inner =
            Fld->Ty->structType()->fieldAtOffset(Off - Fld->OffsetWords);
        WordTy = Inner ? Inner->Ty : nullptr;
      }
      if (!WordTy || !WordTy->isPointer())
        continue;
      if (B.Dir == BlkMovDir::ReadToLocal)
        Loads.push_back({varFieldNode(B.LocalStruct, Off), varNode(B.Ptr),
                         Off, WordTy});
      else
        Stores.push_back({varNode(B.Ptr), Off,
                          varFieldNode(B.LocalStruct, Off)});
    }
    return;
  }
  default:
    return;
  }
}

bool PointsToAnalysis::addTargets(NodeId N, const TargetSet &Ts) {
  bool Changed = false;
  for (Target T : Ts)
    Changed |= Pts[N].insert(T).second;
  return Changed;
}

void PointsToAnalysis::solve() {
  bool Changed = true;
  while (Changed) {
    Changed = false;

    // Copy edges.
    for (NodeId Src = 0; Src != CopyEdges.size(); ++Src)
      for (NodeId Dst : CopyEdges[Src])
        Changed |= addTargets(Dst, Pts[Src]);

    // Offset constraints: Dst ⊇ pts(Base) + Off.
    for (const OffsetConstraint &OC : Offsets) {
      TargetSet Shifted;
      for (Target T : Pts[OC.Base])
        Shifted.insert({T.Obj, T.Off + OC.Off});
      Changed |= addTargets(OC.Dst, Shifted);
    }

    // Loads: Dst ⊇ *(pts(Base)+Off); pointer-typed loads out of a region
    // anchor yield the (type-segregated) derived region.
    for (const LoadConstraint &LC : Loads) {
      TargetSet Base = Pts[LC.Base]; // Copy: wordNode() may reallocate Pts.
      for (Target T : Base) {
        Target Word{T.Obj, T.Off + LC.Off};
        if (Objects[T.Obj].IsAnchor) {
          const Type *Pointee =
              LC.ValueTy && LC.ValueTy->isPointer() ? LC.ValueTy->pointee()
                                                    : nullptr;
          const StructType *S =
              Pointee && Pointee->isStruct() ? Pointee->structType() : nullptr;
          unsigned Region = regionOf(T.Obj, S);
          Changed |= Pts[LC.Dst].insert({Region, 0}).second;
        }
        NodeId W = wordNode(Word);
        Changed |= addTargets(LC.Dst, Pts[W]);
      }
    }

    // Stores: *(pts(Base)+Off) ⊇ pts(Src).
    for (const StoreConstraint &SC : Stores) {
      TargetSet Base = Pts[SC.Base];
      TargetSet Src = Pts[SC.Src];
      for (Target T : Base) {
        NodeId W = wordNode({T.Obj, T.Off + SC.Off});
        Changed |= addTargets(W, Src);
      }
    }
  }
}

const PointsToAnalysis::TargetSet &
PointsToAnalysis::pointsTo(const Var *V) const {
  auto It = VarNodes.find(V);
  return It == VarNodes.end() ? Empty : Pts[It->second];
}

PointsToAnalysis::TargetSet
PointsToAnalysis::accessedWords(const Var *P, unsigned OffP) const {
  TargetSet Out;
  for (Target T : pointsTo(P))
    Out.insert({T.Obj, T.Off + OffP});
  return Out;
}

bool PointsToAnalysis::mayAlias(const Var *P, unsigned OffP, const Var *Q,
                                unsigned OffQ) const {
  if (P == Q)
    return OffP == OffQ;
  // Allocation-free: pts sets are ordered by (Obj, Off), and shifting every
  // Off by a constant preserves that order, so the two accessed-word sets
  // can be intersected by a single two-pointer walk without materializing
  // either of them. This query sits on the innermost loop of the placement
  // kill checks and the selection invalidation walks.
  const TargetSet &A = pointsTo(P);
  if (A.empty())
    return false;
  const TargetSet &B = pointsTo(Q);
  auto I = A.begin(), IEnd = A.end();
  auto J = B.begin(), JEnd = B.end();
  while (I != IEnd && J != JEnd) {
    Target TA{I->Obj, I->Off + OffP};
    Target TB{J->Obj, J->Off + OffQ};
    if (TA < TB)
      ++I;
    else if (TB < TA)
      ++J;
    else
      return true;
  }
  return false;
}
