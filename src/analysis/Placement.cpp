//===- Placement.cpp - Possible-placement analysis ------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Placement.h"

#include "support/FlatSet.h"
#include "support/Remark.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

using namespace earthcc;

/// Renders a frequency the way RCE::str does: integral values without a
/// decimal point.
static std::string fmtFreq(double F) {
  std::ostringstream OS;
  if (F == std::floor(F))
    OS << static_cast<long long>(F);
  else
    OS << F;
  return OS.str();
}

std::string RCE::str() const {
  std::ostringstream OS;
  OS << "(" << Base->name() << "->"
     << (FieldName.empty() ? "*" : FieldName) << ", " << fmtFreq(Freq) << ", ";
  for (size_t I = 0; I != DList.size(); ++I)
    OS << (I ? ":" : "") << "S" << DList[I];
  OS << ")";
  return OS.str();
}

const std::vector<RCE> &PlacementResult::readsBefore(const Stmt *S) const {
  auto It = BeforeReads.find(S);
  return It == BeforeReads.end() || !It->second ? Empty : *It->second;
}

const std::vector<RCE> &PlacementResult::writesAfter(const Stmt *S) const {
  auto It = AfterWrites.find(S);
  return It == AfterWrites.end() || !It->second ? Empty : *It->second;
}

namespace {

/// Working sets are keyed by (base variable, word offset) so that tuples
/// for the same location merge by summing frequencies and uniting Dlists.
using RCEKey = std::pair<const Var *, unsigned>;

struct RCEKeyHash {
  size_t operator()(const RCEKey &K) const {
    return std::hash<const Var *>()(K.first) * 31 + K.second;
  }
};

/// Hash-indexed flat set of RCE tuples: contiguous storage (cheap to scan,
/// cheap to move tuples into) plus a FlatIndex for O(1) merging.
/// Iteration order is insertion order (deterministic: it only depends on
/// the order of add() calls); every output boundary goes through
/// snapshot(), which sorts by (variable id, offset).
///
/// The set doubles as the *running* set of the sequence walks: snapshot()
/// caches its sorted vector behind a shared_ptr, so a run of statements
/// across which the set does not change shares one snapshot and pays
/// neither a copy nor a sort — the delta-propagation fast path that makes
/// the analysis sparse.
class RCESet {
  auto keyAt() const {
    return [this](size_t I) { return RCEKey{Items[I].Base, Items[I].Off}; };
  }

public:
  /// Inserts \p T, or merges it into the tuple already recorded for its
  /// location (frequencies add, Dlists unite; the earlier-inserted tuple's
  /// location/field/type metadata wins).
  void add(RCE T) {
    Sorted.reset();
    size_t I = Index.findOrAdd({T.Base, T.Off}, Items.size(), keyAt());
    if (I == Items.size()) {
      Items.push_back(std::move(T));
      return;
    }
    RCE &Existing = Items[I];
    Existing.Freq += T.Freq;
    std::vector<int> Merged;
    Merged.reserve(Existing.DList.size() + T.DList.size());
    std::set_union(Existing.DList.begin(), Existing.DList.end(),
                   T.DList.begin(), T.DList.end(), std::back_inserter(Merged));
    Existing.DList = std::move(Merged);
  }

  /// Replaces this set with "gen set \p Gen, plus every current tuple not
  /// killed by \p Killed" — the per-statement transfer of the sequence
  /// walks, performing exactly the add() sequence the full re-merge did
  /// (gen tuples first, then the survivors in their existing order), so
  /// merge metadata and iteration order are preserved. Call only when the
  /// set actually changes; the unchanged case shares the snapshot instead.
  template <typename KillFn> void mergeOver(RCESet Gen, KillFn &&Killed) {
    for (RCE &T : Items)
      if (!Killed(T))
        Gen.add(std::move(T));
    *this = std::move(Gen);
  }

  const RCE *find(const RCEKey &K) const {
    size_t I = Index.find(K, Items.size(), keyAt());
    return I == Items.size() ? nullptr : &Items[I];
  }
  bool contains(const RCEKey &K) const { return find(K) != nullptr; }

  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }
  std::vector<RCE>::const_iterator begin() const { return Items.begin(); }
  std::vector<RCE>::const_iterator end() const { return Items.end(); }

  /// The set as a shared, sorted (variable id, offset) vector. Cached until
  /// the next mutation, so consecutive statements with an unchanged set
  /// share one vector.
  PlacementResult::Snapshot snapshot() const {
    if (!Sorted) {
      auto Out = std::make_shared<std::vector<RCE>>(Items.begin(),
                                                    Items.end());
      std::sort(Out->begin(), Out->end(), [](const RCE &A, const RCE &B) {
        if (A.Base->id() != B.Base->id())
          return A.Base->id() < B.Base->id();
        return A.Off < B.Off;
      });
      Sorted = std::move(Out);
    }
    return Sorted;
  }

private:
  std::vector<RCE> Items;
  FlatIndex<RCEKey, RCEKeyHash> Index;
  mutable PlacementResult::Snapshot Sorted;
};

class PlacementAnalyzer {
public:
  PlacementAnalyzer(const Function &F, const SideEffects &SE,
                    const PlacementOptions &Opts, RemarkStream *Remarks)
      : F(F), SE(SE), Opts(Opts), Remarks(Remarks) {}

  PlacementResult run() {
    collectReadsSeq(F.body());
    collectWritesSeq(F.body());
    return std::move(Result);
  }

private:
  //===--------------------------------------------------------------------===
  // Kill predicates.
  //===--------------------------------------------------------------------===

  bool killsRead(const RCE &T, const Stmt &S) const {
    if (SE.varWritten(T.Base, S))
      return true;
    return SE.accessedViaAlias(T.Base, T.Off, S, /*Write=*/true);
  }

  bool killsWrite(const RCE &T, const Stmt &S) const {
    if (SE.varWritten(T.Base, S))
      return true;
    if (SE.containsReturn(S))
      return true; // A write may never sink below a return.
    return SE.accessedViaAlias(T.Base, T.Off, S, /*Write=*/false) ||
           SE.accessedViaAlias(T.Base, T.Off, S, /*Write=*/true);
  }

  //===--------------------------------------------------------------------===
  // RemoteReads: backward propagation (paper Fig. 5/6, READ rules).
  //===--------------------------------------------------------------------===

  /// Returns the set of read RCEs placeable just before \p S (its "gen"
  /// set, in the paper's terms — what collectCommSet returns).
  RCESet collectReads(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      RCESet Out;
      if (A.isRemoteRead()) {
        const auto &L = static_cast<const LoadRV &>(*A.R);
        RCE T;
        T.Base = L.Base;
        T.Off = L.OffsetWords;
        T.FieldName = L.FieldName;
        T.ValueTy = L.ValueTy;
        T.Freq = 1.0;
        T.DList = {S.label()};
        T.Loc = S.loc();
        Out.add(std::move(T));
      }
      return Out;
    }
    case StmtKind::Call:
    case StmtKind::Return:
    case StmtKind::BlkMov:
    case StmtKind::Atomic:
      return {};
    case StmtKind::Seq: {
      const auto &Seq = castStmt<SeqStmt>(S);
      if (!Seq.Parallel)
        return collectReadsSeq(Seq);
      // Parallel sequence: branches are non-interfering; the set placeable
      // before the whole construct is the union of the branch tops.
      RCESet Out;
      for (const auto &Branch : Seq.Stmts)
        for (const RCE &T : collectReads(*Branch))
          Out.add(T);
      return Out;
    }
    case StmtKind::If: {
      const auto &If = castStmt<IfStmt>(S);
      RCESet ThenSet = collectReadsSeq(*If.Then);
      RCESet ElseSet = collectReadsSeq(*If.Else);
      if (!Opts.OptimisticConditionalReads)
        return {};
      // Reads may hoist out of either alternative (spurious reads are
      // safe); halve the frequency to reflect the branch.
      RCESet Out;
      for (const auto *Set : {&ThenSet, &ElseSet}) {
        for (const RCE &T : *Set) {
          RCE Adjusted = T;
          Adjusted.Freq = T.Freq / 2.0;
          Out.add(std::move(Adjusted));
        }
      }
      return Out;
    }
    case StmtKind::Switch: {
      const auto &Sw = castStmt<SwitchStmt>(S);
      if (!Opts.OptimisticConditionalReads)
        return {};
      std::vector<RCESet> Alternatives;
      for (const auto &C : Sw.Cases)
        Alternatives.push_back(collectReadsSeq(*C.Body));
      Alternatives.push_back(collectReadsSeq(*Sw.Default));
      double N = static_cast<double>(Alternatives.size());
      RCESet Out;
      for (const RCESet &Set : Alternatives) {
        for (const RCE &T : Set) {
          RCE Adjusted = T;
          Adjusted.Freq = T.Freq / N;
          Out.add(std::move(Adjusted));
        }
      }
      return Out;
    }
    case StmtKind::While: {
      const auto &W = castStmt<WhileStmt>(S);
      RCESet Body = collectReadsSeq(*W.Body);
      return hoistOutOfLoop(Body, S);
    }
    case StmtKind::Forall: {
      const auto &Fa = castStmt<ForallStmt>(S);
      RCESet Combined = collectReadsSeq(*Fa.Init);
      for (const RCE &T : collectReadsSeq(*Fa.Step))
        Combined.add(T);
      for (const RCE &T : collectReadsSeq(*Fa.Body))
        Combined.add(T);
      return hoistOutOfLoop(Combined, S);
    }
    }
    return {};
  }

  /// Filters \p BodySet by the loop's kill set and scales frequencies.
  RCESet hoistOutOfLoop(const RCESet &BodySet, const Stmt &Loop) {
    RCESet Out;
    for (const RCE &T : BodySet) {
      if (killsRead(T, Loop))
        continue;
      RCE Adjusted = T;
      Adjusted.Freq = T.Freq * Opts.LoopFrequencyFactor;
      if (Remarks) {
        Remark R;
        R.Pass = "placement";
        R.Category = "hoist-loop";
        R.Function = F.name();
        R.Loc = T.Loc;
        R.Message = "read " + T.Base->name() + "->" +
                    (T.FieldName.empty() ? "*" : T.FieldName) +
                    " may hoist out of loop: est. frequency " +
                    fmtFreq(T.Freq) + " -> " + fmtFreq(Adjusted.Freq) + " (x" +
                    fmtFreq(Opts.LoopFrequencyFactor) + ")";
        R.Args = {{"base", T.Base->name()},
                  {"field", T.FieldName.empty() ? "*" : T.FieldName},
                  {"freq_in", fmtFreq(T.Freq)},
                  {"freq_out", fmtFreq(Adjusted.Freq)},
                  {"factor", fmtFreq(Opts.LoopFrequencyFactor)}};
        Remarks->emit(std::move(R));
      }
      Out.add(std::move(Adjusted));
    }
    return Out;
  }

  /// The paper's collectCommReadsSeq: backward walk recording the set
  /// placeable just before every element. Sparse: per statement only the
  /// delta (gen tuples, killed tuples) is applied to the running set, and
  /// statements that neither generate nor can kill (the common case) share
  /// the predecessor's snapshot unchanged.
  RCESet collectReadsSeq(const SeqStmt &Seq) {
    if (Seq.Stmts.empty())
      return {};
    RCESet Curr = collectReads(*Seq.Stmts.back());
    Result.BeforeReads[Seq.Stmts.back().get()] = Curr.snapshot();
    for (size_t I = Seq.Stmts.size() - 1; I-- > 0;) {
      const Stmt &Pred = *Seq.Stmts[I];
      // Always collect (it also records results for nested statements).
      RCESet Gen = collectReads(Pred);
      // A statement that writes nothing kills nothing.
      bool CanKill = !Curr.empty() && SE.writesAnything(Pred);
      if (!Gen.empty() || CanKill)
        Curr.mergeOver(std::move(Gen), [&](const RCE &T) {
          return CanKill && killsRead(T, Pred);
        });
      Result.BeforeReads[&Pred] = Curr.snapshot();
    }
    return Curr;
  }

  //===--------------------------------------------------------------------===
  // RemoteWrites: forward propagation (paper Fig. 5/6, WRITE rules).
  //===--------------------------------------------------------------------===

  RCESet collectWrites(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      RCESet Out;
      if (A.isRemoteWrite()) {
        RCE T;
        T.Base = A.L.V;
        T.Off = A.L.OffsetWords;
        T.FieldName = A.L.FieldName;
        T.ValueTy = nullptr;
        T.Freq = 1.0;
        T.DList = {S.label()};
        T.Loc = S.loc();
        Out.add(std::move(T));
      }
      return Out;
    }
    case StmtKind::Call:
    case StmtKind::Return:
    case StmtKind::BlkMov:
    case StmtKind::Atomic:
      return {};
    case StmtKind::Seq: {
      const auto &Seq = castStmt<SeqStmt>(S);
      if (!Seq.Parallel)
        return collectWritesSeq(Seq);
      RCESet Out;
      for (const auto &Branch : Seq.Stmts)
        for (const RCE &T : collectWrites(*Branch))
          Out.add(T);
      return Out;
    }
    case StmtKind::If: {
      const auto &If = castStmt<IfStmt>(S);
      RCESet ThenSet = collectWritesSeq(*If.Then);
      RCESet ElseSet = collectWritesSeq(*If.Else);
      // Conservative: only writes present in BOTH alternatives may move
      // below the conditional (it is never safe to write spurious fields).
      RCESet Out;
      for (const RCE &T : ThenSet) {
        const RCE *Other = ElseSet.find({T.Base, T.Off});
        if (!Other)
          continue;
        RCE A = T;
        A.Freq = T.Freq / 2.0;
        Out.add(std::move(A));
        RCE B = *Other;
        B.Freq = B.Freq / 2.0;
        Out.add(std::move(B));
      }
      return Out;
    }
    case StmtKind::Switch: {
      const auto &Sw = castStmt<SwitchStmt>(S);
      std::vector<RCESet> Alternatives;
      for (const auto &C : Sw.Cases)
        Alternatives.push_back(collectWritesSeq(*C.Body));
      Alternatives.push_back(collectWritesSeq(*Sw.Default));
      if (Alternatives.empty())
        return {};
      double N = static_cast<double>(Alternatives.size());
      RCESet Out;
      for (const RCE &T : Alternatives.front()) {
        RCEKey Key{T.Base, T.Off};
        bool InAll = true;
        for (size_t I = 1; I < Alternatives.size() && InAll; ++I)
          InAll = Alternatives[I].contains(Key);
        if (!InAll)
          continue;
        for (const RCESet &Set : Alternatives) {
          RCE A = *Set.find(Key);
          A.Freq /= N;
          Out.add(std::move(A));
        }
      }
      return Out;
    }
    case StmtKind::While:
    case StmtKind::Forall:
      // Loops are not known to execute exactly once: writes stay inside
      // (the paper's executesOnce() guard; we have no such static proof).
      collectWritesSeq(loopBody(S));
      if (S.kind() == StmtKind::Forall) {
        collectWritesSeq(*castStmt<ForallStmt>(S).Init);
        collectWritesSeq(*castStmt<ForallStmt>(S).Step);
      }
      return {};
    }
    return {};
  }

  static const SeqStmt &loopBody(const Stmt &S) {
    if (const auto *W = dynCastStmt<WhileStmt>(&S))
      return *W->Body;
    return *castStmt<ForallStmt>(S).Body;
  }

  /// Forward counterpart of collectReadsSeq, with the same sparse delta
  /// propagation.
  RCESet collectWritesSeq(const SeqStmt &Seq) {
    if (Seq.Stmts.empty())
      return {};
    RCESet Curr = collectWrites(*Seq.Stmts.front());
    Result.AfterWrites[Seq.Stmts.front().get()] = Curr.snapshot();
    for (size_t I = 1; I != Seq.Stmts.size(); ++I) {
      const Stmt &Succ = *Seq.Stmts[I];
      RCESet Gen = collectWrites(Succ);
      bool CanKill = !Curr.empty() && SE.blocksWriteTuples(Succ);
      if (!Gen.empty() || CanKill)
        Curr.mergeOver(std::move(Gen), [&](const RCE &T) {
          return CanKill && killsWrite(T, Succ);
        });
      Result.AfterWrites[&Succ] = Curr.snapshot();
    }
    return Curr;
  }

  const Function &F;
  const SideEffects &SE;
  const PlacementOptions &Opts;
  RemarkStream *Remarks = nullptr;
  PlacementResult Result;
};

} // namespace

PlacementResult earthcc::runPlacementAnalysis(const Function &F,
                                              const SideEffects &SE,
                                              const PlacementOptions &Opts,
                                              RemarkStream *Remarks) {
  return PlacementAnalyzer(F, SE, Opts, Remarks).run();
}
