//===- SideEffects.cpp ----------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffects.h"

#include <cassert>

using namespace earthcc;

SideEffects::SideEffects(const Module &M, const PointsToAnalysis &PT)
    : PT(PT) {
  computeSummaries(M);
  // Precompute per-statement effects eagerly (cheap, keeps queries const).
  for (const auto &F : M.functions())
    computeStmt(F->body());
}

//===----------------------------------------------------------------------===//
// Function heap summaries.
//===----------------------------------------------------------------------===//

void SideEffects::computeSummaries(const Module &M) {
  // Collect each function's own direct heap accesses plus call edges. The
  // words `P->[Off]` may touch are pts(P) shifted by Off.
  auto insertWords = [this](WordSet &Set, const Var *P, unsigned Off) {
    for (auto T : PT.pointsTo(P))
      Set.insert({T.Obj, T.Off + Off});
  };
  std::unordered_map<const Function *, std::vector<const Function *>> Callees;
  for (const auto &F : M.functions()) {
    WordSet Reads, Writes;
    std::vector<const Function *> Calls;
    forEachStmt(F->body(), [&](const Stmt &S) {
      switch (S.kind()) {
      case StmtKind::Assign: {
        const auto &A = castStmt<AssignStmt>(S);
        if (const auto *L = dynCast<LoadRV>(A.R.get()))
          insertWords(Reads, L->Base, L->OffsetWords);
        if (A.L.Kind == LValueKind::Store)
          insertWords(Writes, A.L.V, A.L.OffsetWords);
        return;
      }
      case StmtKind::BlkMov: {
        const auto &B = castStmt<BlkMovStmt>(S);
        for (unsigned W = 0; W != B.Words; ++W)
          insertWords(B.Dir == BlkMovDir::ReadToLocal ? Reads : Writes, B.Ptr,
                      W);
        return;
      }
      case StmtKind::Call: {
        const auto &C = castStmt<CallStmt>(S);
        if (C.Callee)
          Calls.push_back(C.Callee);
        return;
      }
      default:
        return;
      }
    });
    SummaryReads[F.get()] = std::move(Reads);
    SummaryWrites[F.get()] = std::move(Writes);
    Callees[F.get()] = std::move(Calls);
  }

  // Close over the call graph (fixpoint handles recursion).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &F : M.functions()) {
      auto &Reads = SummaryReads[F.get()];
      auto &Writes = SummaryWrites[F.get()];
      for (const Function *Callee : Callees[F.get()]) {
        // Self-calls contribute nothing new; skipping them also keeps the
        // flat sets' no-insert-while-iterating rule trivially satisfied.
        if (Callee == F.get())
          continue;
        for (auto T : SummaryReads[Callee])
          Changed |= Reads.insert(T);
        for (auto T : SummaryWrites[Callee])
          Changed |= Writes.insert(T);
      }
    }
  }
}

const SideEffects::WordSet &
SideEffects::functionReads(const Function *F) const {
  auto It = SummaryReads.find(F);
  return It == SummaryReads.end() ? Empty : It->second;
}

const SideEffects::WordSet &
SideEffects::functionWrites(const Function *F) const {
  auto It = SummaryWrites.find(F);
  return It == SummaryWrites.end() ? Empty : It->second;
}

//===----------------------------------------------------------------------===//
// Per-statement effects.
//===----------------------------------------------------------------------===//

const SideEffects::StmtEffects &SideEffects::computeStmt(const Stmt &S) {
  auto [It, Inserted] = Cache.try_emplace(&S);
  StmtEffects &E = It->second;
  if (!Inserted)
    return E;

  auto merge = [&E](const StmtEffects &Child) {
    E.VarWrites.insert(Child.VarWrites.begin(), Child.VarWrites.end());
    E.Heap.insert(E.Heap.end(), Child.Heap.begin(), Child.Heap.end());
    E.CallReadWords.insert(Child.CallReadWords.begin(),
                           Child.CallReadWords.end());
    E.CallWriteWords.insert(Child.CallWriteWords.begin(),
                            Child.CallWriteWords.end());
    E.HasReturn |= Child.HasReturn;
  };

  switch (S.kind()) {
  case StmtKind::Assign: {
    const auto &A = castStmt<AssignStmt>(S);
    if (const auto *L = dynCast<LoadRV>(A.R.get()))
      E.Heap.push_back({L->Base, L->OffsetWords, /*IsWrite=*/false});
    switch (A.L.Kind) {
    case LValueKind::Var:
      E.VarWrites.insert(A.L.V);
      break;
    case LValueKind::FieldWrite:
      E.VarWrites.insert(A.L.V); // The struct variable is (partly) written.
      break;
    case LValueKind::Store:
      E.Heap.push_back({A.L.V, A.L.OffsetWords, /*IsWrite=*/true});
      break;
    }
    break;
  }
  case StmtKind::Call: {
    const auto &C = castStmt<CallStmt>(S);
    if (C.Result)
      E.VarWrites.insert(C.Result);
    if (C.Callee) {
      const auto &R = functionReads(C.Callee);
      const auto &W = functionWrites(C.Callee);
      E.CallReadWords.insert(R.begin(), R.end());
      E.CallWriteWords.insert(W.begin(), W.end());
    }
    break;
  }
  case StmtKind::Return:
    E.HasReturn = true;
    break;
  case StmtKind::BlkMov: {
    const auto &B = castStmt<BlkMovStmt>(S);
    if (B.Dir == BlkMovDir::ReadToLocal)
      E.VarWrites.insert(B.LocalStruct);
    for (unsigned W = 0; W != B.Words; ++W)
      E.Heap.push_back({B.Ptr, W, B.Dir == BlkMovDir::WriteFromLocal});
    break;
  }
  case StmtKind::Atomic: {
    const auto &A = castStmt<AtomicStmt>(S);
    if (A.Result)
      E.VarWrites.insert(A.Result);
    break;
  }
  case StmtKind::Seq: {
    const auto &Seq = castStmt<SeqStmt>(S);
    for (const auto &Child : Seq.Stmts)
      merge(computeStmt(*Child));
    break;
  }
  case StmtKind::If:
  case StmtKind::Switch:
  case StmtKind::While:
  case StmtKind::Forall:
    forEachChildSeq(S, [&](const SeqStmt &Child) { merge(computeStmt(Child)); });
    break;
  }

  for (const HeapAccess &H : E.Heap)
    (H.IsWrite ? E.HasHeapWrite : E.HasHeapRead) = true;
  return E;
}

const SideEffects::StmtEffects &SideEffects::effects(const Stmt &S) const {
  auto It = Cache.find(&S);
  assert(It != Cache.end() && "statement not covered by this SideEffects; "
                              "was it created after analysis?");
  return It->second;
}

bool SideEffects::varWritten(const Var *V, const Stmt &S) const {
  return effects(S).VarWrites.count(V) != 0;
}

bool SideEffects::containsReturn(const Stmt &S) const {
  return effects(S).HasReturn;
}

bool SideEffects::writesAnything(const Stmt &S) const {
  const StmtEffects &E = effects(S);
  return !E.VarWrites.empty() || E.HasHeapWrite || !E.CallWriteWords.empty();
}

bool SideEffects::blocksWriteTuples(const Stmt &S) const {
  const StmtEffects &E = effects(S);
  return !E.VarWrites.empty() || E.HasHeapWrite || !E.CallWriteWords.empty() ||
         E.HasReturn || E.HasHeapRead || !E.CallReadWords.empty();
}

bool SideEffects::directlyReads(const Var *P, const Stmt &S) const {
  for (const HeapAccess &H : effects(S).Heap)
    if (!H.IsWrite && H.Base == P)
      return true;
  return false;
}

bool SideEffects::directlyWrites(const Var *P, unsigned Off,
                                 const Stmt &S) const {
  for (const HeapAccess &H : effects(S).Heap)
    if (H.IsWrite && H.Base == P && H.Off == Off)
      return true;
  return false;
}

bool SideEffects::accessedViaAlias(const Var *P, unsigned Off, const Stmt &S,
                                   bool Write) const {
  const StmtEffects &E = effects(S);

  // Direct accesses via other base variables.
  for (const HeapAccess &H : E.Heap) {
    if (H.IsWrite != Write)
      continue;
    if (H.Base == P)
      continue; // Direct access: never an alias.
    if (PT.mayAlias(P, Off, H.Base, H.Off))
      return true;
  }

  // Call effects (always "via alias": the callee uses its own variables).
  // Walk pts(P) directly instead of materializing its words shifted by Off —
  // this query runs per tuple per statement in the placement kill checks.
  const auto &Words = Write ? E.CallWriteWords : E.CallReadWords;
  if (Words.empty())
    return false;
  for (auto T : PT.pointsTo(P))
    if (Words.count({T.Obj, T.Off + Off}))
      return true;
  return false;
}
