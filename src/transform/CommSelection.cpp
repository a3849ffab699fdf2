//===- CommSelection.cpp - Communication selection transform --------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "transform/CommSelection.h"

#include "analysis/PointsTo.h"
#include "simple/Verifier.h"
#include "support/FlatSet.h"
#include "support/Remark.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <deque>
#include <iterator>
#include <set>

using namespace earthcc;

namespace {

using RCEKey = std::pair<const Var *, unsigned>;

struct RCEKeyHash {
  size_t operator()(const RCEKey &K) const {
    return std::hash<const Var *>()(K.first) * 31 + K.second;
  }
};

/// Tri-state result of the "dereference on all paths" check (the paper's
/// footnote 2: a hoisted read is only safe where some dereference of the
/// pointer is guaranteed to happen anyway).
enum class Deref { Yes, No, Transparent };

class Selector {
public:
  Selector(Module &M, Function &F, const CommOptions &Opts, Statistics &Stats,
           RemarkStream *Remarks, const PointsToAnalysis &PT,
           const SideEffects &SE, const PlacementResult &PR)
      : M(M), F(F), Opts(Opts), Stats(Stats), Remarks(Remarks), PT(PT),
        SE(SE), PR(PR) {}

  void run() {
    if (Opts.EnableWriteBlocking && Opts.EnableBlocking)
      planWritesSeq(F.body());
    processSeq(F.body());
    F.relabel();
  }

private:
  /// Emits one "comm-select" remark at \p Loc (no-op without a stream).
  void remark(const char *Category, SourceLoc Loc, std::string Message,
              std::vector<std::pair<std::string, std::string>> Args = {}) {
    if (!Remarks)
      return;
    Remark R;
    R.Pass = "comm-select";
    R.Category = Category;
    R.Function = F.name();
    R.Loc = Loc;
    R.Message = std::move(Message);
    R.Args = std::move(Args);
    Remarks->emit(std::move(R));
  }

  //===--------------------------------------------------------------------===
  // Write-group planning (latest placement, blocked only).
  //===--------------------------------------------------------------------===

  struct WriteGroup {
    const Var *Base = nullptr;
    unsigned StructWords = 0;
    std::set<unsigned> Offsets;
    std::set<int> CoveredLabels;
    SourceLoc Loc; ///< First covered store's access location.
    const Stmt *FillBeforeElem = nullptr; ///< Element of the sink sequence.
    const Stmt *SinkAfterElem = nullptr;  ///< Element of the sink sequence.
    Var *Block = nullptr;                 ///< Chosen during the rewrite walk.
    bool ElideFill = false; ///< All words stored + no direct reads: no fill.
  };

  /// True if any basic statement inside \p S carries one of \p Labels.
  static bool containsLabel(const Stmt &S, const std::set<int> &Labels) {
    bool Found = false;
    forEachStmt(S, [&](const Stmt &Inner) {
      if (!Found && Labels.count(Inner.label()))
        Found = true;
    });
    return Found;
  }

  void planWritesSeq(SeqStmt &Seq) {
    if (Seq.Parallel) {
      for (auto &Branch : Seq.Stmts)
        planWritesSeq(castStmt<SeqStmt>(*Branch));
      return;
    }
    for (size_t I = Seq.Stmts.size(); I-- > 0;) {
      Stmt &S = *Seq.Stmts[I];
      planWritesAt(Seq, I);
      forEachChildSeq(S, [this](SeqStmt &Child) { planWritesSeq(Child); });
    }
  }

  /// Considers sinking write tuples to "just after Seq.Stmts[I]".
  void planWritesAt(SeqStmt &Seq, size_t I) {
    const Stmt *S = Seq.Stmts[I].get();
    const std::vector<RCE> &Tuples = PR.writesAfter(S);
    if (Tuples.empty())
      return;

    // Group unselected candidate tuples by base pointer (keyed by the
    // variable id so the emission order is deterministic).
    std::map<unsigned, std::pair<const Var *, std::vector<const RCE *>>>
        ByBase;
    for (const RCE &T : Tuples) {
      if (SelectedWriteKeys.count({T.Base, T.Off}))
        continue;
      if (T.Freq < 1.0)
        continue;
      const Type *BaseTy = T.Base->type();
      if (!BaseTy->isPointer() || !BaseTy->pointee()->isStruct())
        continue;
      auto &Slot = ByBase[T.Base->id()];
      Slot.first = T.Base;
      Slot.second.push_back(&T);
    }

    for (auto &[BaseId, Entry] : ByBase) {
      const Var *Base = Entry.first;
      auto &Group = Entry.second;
      unsigned Words = Base->type()->pointee()->sizeInWords();
      if (!Opts.preferBlock(static_cast<unsigned>(Group.size()), Words))
        continue;

      WriteGroup G;
      G.Base = Base;
      G.StructWords = Words;
      G.Loc = Group.front()->Loc;
      for (const RCE *T : Group) {
        G.Offsets.insert(T->Off);
        G.CoveredLabels.insert(T->DList.begin(), T->DList.end());
      }

      // Locate the earliest element of this sequence containing a covered
      // store; the fill goes right before it.
      size_t J = I + 1;
      for (size_t K = 0; K <= I; ++K) {
        if (containsLabel(*Seq.Stmts[K], G.CoveredLabels)) {
          J = K;
          break;
        }
      }
      if (J > I)
        continue; // Covered stores not found here — give up on this group.

      if (!writeRegionSafe(G, Seq, J, I))
        continue;

      if (G.Offsets.size() == Words) {
        // RemoteFill elision: every word is stored on every path, so no
        // fill read is needed — unless a direct read in the region would
        // observe not-yet-written block words.
        G.ElideFill = true;
        for (size_t K = J; K <= I && G.ElideFill; ++K)
          if (SE.directlyReads(Base, *Seq.Stmts[K]))
            G.ElideFill = false;
      }

      G.FillBeforeElem = Seq.Stmts[J].get();
      G.SinkAfterElem = S;
      Groups.push_back(G);
      WriteGroup *GP = &Groups.back();
      for (int L : G.CoveredLabels)
        LabelToGroup[L] = GP;
      FillAt[G.FillBeforeElem].push_back(GP);
      SinkAt[G.SinkAfterElem].push_back(GP);
      for (unsigned Off : G.Offsets)
        SelectedWriteKeys.insert({Base, Off});
      Stats.add("select.write_groups");
      remark("blocked-write", G.Loc,
             "sunk " + std::to_string(G.Offsets.size()) + " stores through " +
                 Base->name() + " into one blkmov write-back of " +
                 std::to_string(Words) + " words (crossover >= " +
                 std::to_string(Opts.BlockThresholdWords) + " words)",
             {{"base", Base->name()},
              {"stores", std::to_string(G.Offsets.size())},
              {"struct_words", std::to_string(Words)},
              {"threshold", std::to_string(Opts.BlockThresholdWords)}});
    }
  }

  /// Checks that between the fill point (before element \p J) and the sink
  /// (after element \p I) nothing invalidates a block write-back: the base
  /// pointer is not reassigned and no *uncovered* word of the struct is
  /// written through an alias (covered words are already protected by the
  /// placement analysis; writing back a stale uncovered word would lose an
  /// aliased update).
  bool writeRegionSafe(const WriteGroup &G, const SeqStmt &Seq, size_t J,
                       size_t I) const {
    for (size_t K = J; K <= I; ++K) {
      const Stmt &E = *Seq.Stmts[K];
      if (SE.varWritten(G.Base, E))
        return false;
      for (unsigned Off = 0; Off != G.StructWords; ++Off) {
        if (G.Offsets.count(Off))
          continue;
        if (SE.accessedViaAlias(G.Base, Off, E, /*Write=*/true))
          return false;
      }
    }
    return true;
  }

  //===--------------------------------------------------------------------===
  // Deref-on-all-paths safety check.
  //===--------------------------------------------------------------------===

  Deref derefGuarantee(const Stmt &S, const Var *P) const {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      if (const auto *L = dynCast<LoadRV>(A.R.get()))
        if (L->Base == P)
          return Deref::Yes;
      if (A.L.Kind == LValueKind::Store && A.L.V == P)
        return Deref::Yes;
      if (A.L.Kind == LValueKind::Var && A.L.V == P)
        return Deref::No;
      return Deref::Transparent;
    }
    case StmtKind::Call: {
      const auto &C = castStmt<CallStmt>(S);
      return C.Result == P ? Deref::No : Deref::Transparent;
    }
    case StmtKind::Atomic: {
      const auto &A = castStmt<AtomicStmt>(S);
      return A.Result == P ? Deref::No : Deref::Transparent;
    }
    case StmtKind::BlkMov:
      return castStmt<BlkMovStmt>(S).Ptr == P ? Deref::Yes
                                              : Deref::Transparent;
    case StmtKind::Return:
      return Deref::No;
    case StmtKind::Seq: {
      const auto &Seq = castStmt<SeqStmt>(S);
      if (Seq.Parallel) {
        bool AnyNo = false;
        for (const auto &Branch : Seq.Stmts) {
          Deref D = derefGuarantee(*Branch, P);
          if (D == Deref::Yes)
            return Deref::Yes; // Every branch executes.
          AnyNo |= D == Deref::No;
        }
        return AnyNo ? Deref::No : Deref::Transparent;
      }
      for (const auto &Child : Seq.Stmts) {
        Deref D = derefGuarantee(*Child, P);
        if (D != Deref::Transparent)
          return D;
      }
      return Deref::Transparent;
    }
    case StmtKind::If: {
      const auto &If = castStmt<IfStmt>(S);
      Deref T = derefGuarantee(*If.Then, P);
      Deref E = derefGuarantee(*If.Else, P);
      if (T == Deref::No || E == Deref::No)
        return Deref::No;
      if (T == Deref::Yes && E == Deref::Yes)
        return Deref::Yes;
      return Deref::Transparent;
    }
    case StmtKind::Switch: {
      const auto &Sw = castStmt<SwitchStmt>(S);
      bool AllYes = true;
      for (const auto &C : Sw.Cases) {
        Deref D = derefGuarantee(*C.Body, P);
        if (D == Deref::No)
          return Deref::No;
        AllYes &= D == Deref::Yes;
      }
      Deref D = derefGuarantee(*Sw.Default, P);
      if (D == Deref::No)
        return Deref::No;
      AllYes &= D == Deref::Yes;
      return AllYes ? Deref::Yes : Deref::Transparent;
    }
    case StmtKind::While: {
      const auto &W = castStmt<WhileStmt>(S);
      Deref D = derefGuarantee(*W.Body, P);
      if (D == Deref::No)
        return Deref::No;
      if (W.IsDoWhile)
        return D; // The body runs at least once.
      return SE.varWritten(P, S) ? Deref::No : Deref::Transparent;
    }
    case StmtKind::Forall:
      return SE.varWritten(P, S) ? Deref::No : Deref::Transparent;
    }
    return Deref::Transparent;
  }

  /// True if every path starting just before element \p I of \p Elems is
  /// guaranteed to dereference \p P (conservatively: within this sequence).
  bool safeToDeref(const std::vector<Stmt *> &Elems, size_t I,
                   const Var *P) const {
    for (size_t K = I; K != Elems.size(); ++K) {
      Deref D = derefGuarantee(*Elems[K], P);
      if (D != Deref::Transparent)
        return D == Deref::Yes;
    }
    return false;
  }

  //===--------------------------------------------------------------------===
  // Live read bindings (the paper's hash table of selected operations).
  //===--------------------------------------------------------------------===

  struct ScalarBinding {
    const Var *Temp = nullptr;
    bool TempIsProgramVar = false; ///< Redundancy-elim-only mode reuses the
                                   ///< original target variable as cache.
  };

  /// The paper's hash table of selected operations, as hashed flat maps:
  /// the branch walks snapshot/restore these wholesale (If/Switch/While and
  /// every parallel branch), so cheap contiguous copies matter more than
  /// ordered iteration — nothing iterates them except invalidateAfter.
  FlatMap<RCEKey, ScalarBinding, RCEKeyHash> LiveScalar;
  FlatMap<const Var *, Var *> LiveBlock;
  std::optional<std::pair<RCEKey, ScalarBinding>> PendingBinding;

  /// True if reading (T.Base, T.Off) might observe memory that an active
  /// write group is still holding back in its block copy.
  bool aliasesActiveWriteGroup(const RCE &T) const {
    for (const WriteGroup *G : ActiveGroups) {
      if (G->Base == T.Base)
        continue; // Direct accesses are rewritten onto the block copy.
      for (unsigned Off : G->Offsets)
        if (PT.mayAlias(T.Base, T.Off, G->Base, Off))
          return true;
    }
    return false;
  }

  struct BindingSnapshot {
    FlatMap<RCEKey, ScalarBinding, RCEKeyHash> Scalars;
    FlatMap<const Var *, Var *> Blocks;
  };

  BindingSnapshot snapshot() const { return {LiveScalar, LiveBlock}; }
  void restore(BindingSnapshot Snap) {
    LiveScalar = std::move(Snap.Scalars);
    LiveBlock = std::move(Snap.Blocks);
  }

  /// Drops every binding whose cached value \p S may invalidate.
  void invalidateAfter(const Stmt &S) {
    LiveScalar.eraseIf([&](const RCEKey &Key, const ScalarBinding &B) {
      return SE.varWritten(Key.first, S) ||
             SE.accessedViaAlias(Key.first, Key.second, S, /*Write=*/true) ||
             // Program-variable caches (redundancy-elim-only mode) cannot
             // be refreshed by emitted coherence code, so any direct store
             // inside S — e.g. within a branch whose binding updates were
             // rolled back — kills them too.
             (B.TempIsProgramVar &&
              (SE.varWritten(B.Temp, S) ||
               SE.directlyWrites(Key.first, Key.second, S)));
    });
    LiveBlock.eraseIf([&](const Var *Base, Var *) {
      if (SE.varWritten(Base, S))
        return true;
      unsigned Words = Base->type()->pointee()->sizeInWords();
      for (unsigned Off = 0; Off != Words; ++Off)
        if (SE.accessedViaAlias(Base, Off, S, /*Write=*/true))
          return true;
      return false;
    });
  }

  //===--------------------------------------------------------------------===
  // The rewrite walk.
  //===--------------------------------------------------------------------===

  Var *makeBlockVar(const Var *Base) {
    const Type *StructTy = Base->type()->pointee();
    return F.addTemp(StructTy, VarKind::BlockTemp);
  }

  void emitFill(SeqStmt &Out, WriteGroup *G) {
    ActiveGroups.insert(G);
    if (Var *const *Block = LiveBlock.find(G->Base)) {
      G->Block = *Block; // RemoteFill satisfied by the blocked read.
      Stats.add("select.fill_reused");
      remark("remote-fill", G->Loc,
             "RemoteFill for " + G->Base->name() +
                 " satisfied by an existing blocked read (no extra blkmov)",
             {{"base", G->Base->name()}, {"action", "reused"}});
      return;
    }
    G->Block = makeBlockVar(G->Base);
    if (G->ElideFill) {
      // Every word of the struct is stored on every path and nothing reads
      // the base in the region, so there are no stale words to preserve:
      // no fill read needed (the common fresh-allocation pattern).
      LiveBlock[G->Base] = G->Block;
      Stats.add("select.fill_elided");
      remark("remote-fill", G->Loc,
             "RemoteFill for " + G->Base->name() + " elided: all " +
                 std::to_string(G->StructWords) +
                 " words stored on every path",
             {{"base", G->Base->name()},
              {"action", "elided"},
              {"struct_words", std::to_string(G->StructWords)}});
      return;
    }
    auto Fill = std::make_unique<BlkMovStmt>(BlkMovDir::ReadToLocal, G->Base,
                                             G->Block, G->StructWords);
    Fill->setLoc(G->Loc);
    Out.push(std::move(Fill));
    LiveBlock[G->Base] = G->Block;
    Stats.add("select.fill_blkmovs");
    remark("remote-fill", G->Loc,
           "RemoteFill inserted: blkmov read of " +
               std::to_string(G->StructWords) + " words of " +
               G->Base->name() + " before the first covered store",
           {{"base", G->Base->name()},
            {"action", "inserted"},
            {"struct_words", std::to_string(G->StructWords)}});
  }

  /// Issues the reads placeable before element \p I of the current
  /// sequence, following the earliest-placement policy.
  void placeReadsBefore(SeqStmt &Out, const std::vector<Stmt *> &Elems,
                        size_t I) {
    const std::vector<RCE> &Tuples = PR.readsBefore(Elems[I]);
    if (Tuples.empty())
      return;

    std::map<unsigned, std::pair<const Var *, std::vector<const RCE *>>>
        ByBase;
    for (const RCE &T : Tuples) {
      if (LiveBlock.count(T.Base) || LiveScalar.count({T.Base, T.Off})) {
        Stats.add("select.already_selected");
        continue;
      }
      if (T.Freq < 1.0)
        continue;
      if (!safeToDeref(Elems, I, T.Base))
        continue;
      if (aliasesActiveWriteGroup(T)) {
        // The location's current value may live only in a write group's
        // pending block copy: hoisting the read here would observe stale
        // memory. Leave the read at its original position.
        Stats.add("select.suppressed_by_write_group");
        continue;
      }
      auto &Slot = ByBase[T.Base->id()];
      Slot.first = T.Base;
      Slot.second.push_back(&T);
    }

    for (auto &[BaseId, Entry] : ByBase) {
      const Var *Base = Entry.first;
      auto &Group = Entry.second;
      const Type *Pointee = Base->type()->pointee();
      unsigned Words = Pointee->isStruct() ? Pointee->sizeInWords() : 1;
      bool Block = Pointee->isStruct() &&
                   Opts.preferBlock(static_cast<unsigned>(Group.size()),
                                    Words);
      if (Block) {
        Var *B = makeBlockVar(Base);
        auto Mov = std::make_unique<BlkMovStmt>(BlkMovDir::ReadToLocal, Base,
                                                B, Words);
        Mov->setLoc(Group.front()->Loc);
        Out.push(std::move(Mov));
        LiveBlock[Base] = B;
        Stats.add("select.blocked_reads");
        remark("blocked-read", Group.front()->Loc,
               "merged " + std::to_string(Group.size()) + " reads of " +
                   Base->name() + " into one blkmov of " +
                   std::to_string(Words) + " words (crossover >= " +
                   std::to_string(Opts.BlockThresholdWords) + " words)",
               {{"base", Base->name()},
                {"fields", std::to_string(Group.size())},
                {"struct_words", std::to_string(Words)},
                {"threshold", std::to_string(Opts.BlockThresholdWords)}});
        continue;
      }
      for (const RCE *T : Group) {
        Var *Temp = F.addTemp(T->ValueTy, VarKind::CommTemp);
        auto Rd = std::make_unique<AssignStmt>(
            LValue::makeVar(Temp),
            std::make_unique<LoadRV>(T->Base, T->Off, T->FieldName,
                                     T->ValueTy, Locality::Remote));
        Rd->setLoc(T->Loc);
        Out.push(std::move(Rd));
        LiveScalar[{T->Base, T->Off}] = {Temp, /*TempIsProgramVar=*/false};
        Stats.add("select.pipelined_reads");
        remark("pipelined-read", T->Loc,
               "read " + T->Base->name() + "->" +
                   (T->FieldName.empty() ? "*" : T->FieldName) +
                   " hoisted to its earliest placement as a pipelined "
                   "split-phase read (est. frequency " +
                   std::to_string(static_cast<long long>(T->Freq)) + ")",
               {{"base", T->Base->name()},
                {"field", T->FieldName.empty() ? "*" : T->FieldName},
                {"freq", std::to_string(static_cast<long long>(T->Freq))}});
      }
    }
  }

  /// Rewrites one assignment statement in place; may append coherence
  /// updates to \p Out after pushing the statement.
  void rewriteAssign(SeqStmt &Out, StmtPtr S) {
    auto &A = castStmt<AssignStmt>(*S);

    // Remote reads: substitute a live local copy if one exists.
    if (A.isRemoteRead()) {
      const auto &L = static_cast<const LoadRV &>(*A.R);
      // Captured before any rewrite: reassigning A.R destroys the LoadRV
      // that L refers into.
      const std::string BaseName = L.Base->name();
      const std::string Field = L.FieldName.empty() ? "*" : L.FieldName;
      if (Var *const *Block = LiveBlock.find(L.Base)) {
        A.R = std::make_unique<FieldReadRV>(*Block, L.OffsetWords,
                                            L.FieldName, L.ValueTy);
        Stats.add("select.rewritten_reads");
        remark("redundant", S->loc(),
               "remote read " + BaseName + "->" + Field +
                   " eliminated: reads the live blocked copy instead",
               {{"base", BaseName}, {"field", Field}, {"copy", "block"}});
      } else if (const ScalarBinding *SB =
                     LiveScalar.find({L.Base, L.OffsetWords})) {
        A.R = std::make_unique<OpndRV>(Operand::var(SB->Temp));
        Stats.add("select.rewritten_reads");
        remark("redundant", S->loc(),
               "remote read " + BaseName + "->" + Field +
                   " eliminated: reuses the live pipelined copy",
               {{"base", BaseName}, {"field", Field}, {"copy", "scalar"}});
      } else if (Opts.EnableRedundancyElim && !Opts.EnableReadMotion &&
                 A.L.Kind == LValueKind::Var && A.L.V != L.Base) {
        // Pure redundancy elimination: the loaded-into variable becomes the
        // cached copy until something clobbers it. Registered *after* the
        // invalidation step, or the defining write would kill it at birth.
        // Pointer-chase statements (p = p->next) are excluded: the loaded
        // value belongs to the *old* p.
        PendingBinding = {{L.Base, L.OffsetWords},
                          {A.L.V, /*TempIsProgramVar=*/true}};
      }
      Out.push(std::move(S));
      return;
    }

    // Remote writes.
    if (A.isRemoteWrite()) {
      const Var *Base = A.L.V;
      unsigned Off = A.L.OffsetWords;
      assert(A.R->kind() == RValueKind::Opnd &&
             "SIMPLE stores take operand rhs");
      Operand Val = static_cast<const OpndRV &>(*A.R).Val;

      if (auto It = LabelToGroup.find(S->label());
          It != LabelToGroup.end() && It->second->Block) {
        // Covered by a blocked write group: the store becomes a local
        // update of the block copy; the blkmov at the sink writes it back.
        WriteGroup *G = It->second;
        std::string FieldName = A.L.FieldName;
        SourceLoc StoreLoc = S->loc();
        A.L = LValue::makeFieldWrite(G->Block, Off, FieldName);
        Stats.add("select.rewritten_writes");
        Out.push(std::move(S));
        // A live pipelined copy of this location must track the new value
        // (the read may have been hoisted above this store).
        if (const ScalarBinding *SB = LiveScalar.find({Base, Off});
            SB && !SB->TempIsProgramVar) {
          auto Upd = std::make_unique<AssignStmt>(
              LValue::makeVar(SB->Temp), std::make_unique<OpndRV>(Val));
          Upd->setLoc(StoreLoc);
          Out.push(std::move(Upd));
          Stats.add("select.coherence_updates");
        }
        return;
      }

      // Keep the remote store, but refresh *every* live local copy of the
      // location — both the block copy and any pipelined scalar copy can
      // outlive each other, so both must track the new value.
      std::string FieldName = A.L.FieldName;
      SourceLoc StoreLoc = S->loc();
      Out.push(std::move(S));
      if (Var *const *Block = LiveBlock.find(Base)) {
        auto Upd = std::make_unique<AssignStmt>(
            LValue::makeFieldWrite(*Block, Off, FieldName),
            std::make_unique<OpndRV>(Val));
        Upd->setLoc(StoreLoc);
        Out.push(std::move(Upd));
        Stats.add("select.coherence_updates");
      }
      if (const ScalarBinding *SB = LiveScalar.find({Base, Off})) {
        if (SB->TempIsProgramVar &&
            (!Val.isVar() || Val.getVar() != SB->Temp)) {
          // The cached program variable no longer matches; drop it.
          LiveScalar.erase({Base, Off});
        } else if (!SB->TempIsProgramVar) {
          auto Upd = std::make_unique<AssignStmt>(
              LValue::makeVar(SB->Temp), std::make_unique<OpndRV>(Val));
          Upd->setLoc(StoreLoc);
          Out.push(std::move(Upd));
          Stats.add("select.coherence_updates");
        }
      }
      return;
    }

    Out.push(std::move(S));
  }

  void processSeq(SeqStmt &Seq) {
    if (Seq.Parallel) {
      // Each branch sees the pre-existing bindings; nothing escapes.
      BindingSnapshot Snap = snapshot();
      for (auto &Branch : Seq.Stmts) {
        restore(BindingSnapshot(Snap));
        processSeq(castStmt<SeqStmt>(*Branch));
      }
      restore(std::move(Snap));
      return;
    }

    std::vector<StmtPtr> Old = std::move(Seq.Stmts);
    Seq.Stmts.clear();
    std::vector<Stmt *> Elems;
    Elems.reserve(Old.size());
    for (auto &S : Old)
      Elems.push_back(S.get());

    for (size_t I = 0; I != Old.size(); ++I) {
      StmtPtr S = std::move(Old[I]);
      Stmt *Raw = S.get();

      // RemoteFill obligations whose first covered store lives here.
      if (auto It = FillAt.find(Raw); It != FillAt.end())
        for (WriteGroup *G : It->second)
          emitFill(Seq, G);

      // Earliest placement of remote reads.
      if (Opts.EnableReadMotion)
        placeReadsBefore(Seq, Elems, I);

      switch (Raw->kind()) {
      case StmtKind::Assign:
        rewriteAssign(Seq, std::move(S));
        break;
      case StmtKind::If: {
        auto &If = castStmt<IfStmt>(*Raw);
        BindingSnapshot Snap = snapshot();
        processSeq(*If.Then);
        restore(BindingSnapshot(Snap));
        processSeq(*If.Else);
        restore(std::move(Snap));
        Seq.push(std::move(S));
        break;
      }
      case StmtKind::Switch: {
        auto &Sw = castStmt<SwitchStmt>(*Raw);
        BindingSnapshot Snap = snapshot();
        for (auto &C : Sw.Cases) {
          restore(BindingSnapshot(Snap));
          processSeq(*C.Body);
        }
        restore(BindingSnapshot(Snap));
        processSeq(*Sw.Default);
        restore(std::move(Snap));
        Seq.push(std::move(S));
        break;
      }
      case StmtKind::While: {
        auto &W = castStmt<WhileStmt>(*Raw);
        BindingSnapshot Snap = snapshot();
        // Bindings must be valid on *every* iteration: filter by the
        // loop's own effects before entering the body.
        invalidateAfter(*Raw);
        processSeq(*W.Body);
        restore(std::move(Snap));
        Seq.push(std::move(S));
        break;
      }
      case StmtKind::Forall: {
        auto &Fa = castStmt<ForallStmt>(*Raw);
        BindingSnapshot Snap = snapshot();
        invalidateAfter(*Raw);
        processSeq(*Fa.Init);
        processSeq(*Fa.Step);
        processSeq(*Fa.Body);
        restore(std::move(Snap));
        Seq.push(std::move(S));
        break;
      }
      case StmtKind::Seq:
        processSeq(castStmt<SeqStmt>(*Raw));
        Seq.push(std::move(S));
        break;
      default:
        Seq.push(std::move(S));
        break;
      }

      // Anything this statement may have clobbered invalidates caches.
      invalidateAfter(*Raw);
      if (PendingBinding) {
        LiveScalar[PendingBinding->first] = PendingBinding->second;
        PendingBinding.reset();
      }

      // Blocked write-backs sunk to just after this element.
      if (auto It = SinkAt.find(Raw); It != SinkAt.end()) {
        for (WriteGroup *G : It->second) {
          ActiveGroups.erase(G);
          if (!G->Block)
            continue; // Fill never ran (group degenerated); stores stayed
                      // remote, nothing to write back.
          auto WB = std::make_unique<BlkMovStmt>(BlkMovDir::WriteFromLocal,
                                                 G->Base, G->Block,
                                                 G->StructWords);
          WB->setLoc(G->Loc);
          Seq.push(std::move(WB));
          Stats.add("select.blocked_writes");
        }
      }
    }
  }

  Module &M;
  Function &F;
  const CommOptions &Opts;
  Statistics &Stats;
  RemarkStream *Remarks = nullptr;
  const PointsToAnalysis &PT;
  const SideEffects &SE;
  const PlacementResult &PR;

  std::deque<WriteGroup> Groups;
  std::set<WriteGroup *> ActiveGroups;
  std::map<int, WriteGroup *> LabelToGroup;
  std::map<const Stmt *, std::vector<WriteGroup *>> FillAt;
  std::map<const Stmt *, std::vector<WriteGroup *>> SinkAt;
  FlatSet<RCEKey, RCEKeyHash> SelectedWriteKeys;
};

/// Records the placement tuple-set sizes — the quantity the paper's
/// Figures 5-7 reason about.
static void addPlacementStats(const PlacementResult &PR, Statistics &Stats) {
  auto addTotal = [&Stats](const char *Key, const PlacementResult::SetMap &M) {
    if (M.empty())
      return;
    uint64_t Total = 0;
    for (const auto &[S, Tuples] : M)
      Total += Tuples ? Tuples->size() : 0;
    Stats.add(Key, Total);
  };
  addTotal("placement.read_tuples", PR.BeforeReads);
  addTotal("placement.write_tuples", PR.AfterWrites);
}

/// Runs \p Fn over [0, N) with the LowerThreads fan-out convention: 1 =
/// serial on the caller's thread, 0 = all hardware threads.
template <typename Fn>
static void forEachIndex(size_t N, unsigned Threads, Fn &&Body) {
  if (Threads == 0)
    Threads = ThreadPool::hardwareThreads();
  size_t Lanes = std::min<size_t>(Threads, N);
  if (Lanes <= 1) {
    for (size_t I = 0; I != N; ++I)
      Body(I);
    return;
  }
  ThreadPool Pool(Lanes);
  Pool.parallelFor(N, Body);
}

} // namespace

CommAnalysis::Prepared::Prepared(Module &M) {
  M.invalidateExecCache(); // The IR is about to change; drop stale bytecode.
  for (const auto &F : M.functions())
    F->relabel();
}

CommAnalysis::CommAnalysis(Module &M, const CommOptions &Opts,
                           Statistics &Stats, bool EmitRemarks,
                           unsigned Threads)
    : Prep(M), PT(M), SE(M, PT) {
  const auto &Funcs = M.functions();
  Results.resize(Funcs.size());
  for (size_t I = 0; I != Funcs.size(); ++I)
    Index[Funcs[I].get()] = I;
  // Each worker writes only its own pre-allocated slot; PT/SE are const
  // after construction.
  forEachIndex(Funcs.size(), Threads, [&](size_t I) {
    FuncAnalysis &FA = Results[I];
    FA.PR = runPlacementAnalysis(*Funcs[I], SE, Opts.Placement,
                                 EmitRemarks ? &FA.Remarks : nullptr);
  });
  for (const FuncAnalysis &FA : Results)
    addPlacementStats(FA.PR, Stats);
}

const PlacementResult &CommAnalysis::placement(const Function &F) const {
  auto It = Index.find(&F);
  assert(It != Index.end() && "function not covered by this CommAnalysis");
  return Results[It->second].PR;
}

const RemarkStream &CommAnalysis::placementRemarks(const Function &F) const {
  auto It = Index.find(&F);
  assert(It != Index.end() && "function not covered by this CommAnalysis");
  return Results[It->second].Remarks;
}

bool earthcc::selectModuleCommunication(Module &M, CommAnalysis &CA,
                                        const CommOptions &Opts,
                                        Statistics &Stats,
                                        std::vector<std::string> &Errors,
                                        RemarkStream *Remarks,
                                        unsigned Threads) {
  const auto &Funcs = M.functions();

  // Per-function sinks: each rewrite touches only its own function (its
  // statements, temps and labels), so functions fan out freely; counters,
  // remarks and errors are buffered and merged in function order below,
  // making the observable output independent of the thread count.
  struct FuncOutput {
    Statistics Stats;
    RemarkStream Remarks;
    std::vector<std::string> Errors;
    bool OK = true;
  };
  std::vector<FuncOutput> Outputs(Funcs.size());

  forEachIndex(Funcs.size(), Threads, [&](size_t I) {
    Function &F = *Funcs[I];
    FuncOutput &Out = Outputs[I];
    Selector(M, F, Opts, Out.Stats, Remarks ? &Out.Remarks : nullptr,
             CA.pointsTo(), CA.sideEffects(), CA.placement(F))
        .run();
    Out.OK = verifyFunction(M, F, Out.Errors);
  });

  bool OK = true;
  for (size_t I = 0; I != Funcs.size(); ++I) {
    FuncOutput &Out = Outputs[I];
    if (Remarks) {
      // Splice [placement(f), selection(f)] per function — the same
      // interleaving the serial pipeline historically emitted.
      for (const Remark &R : CA.placementRemarks(*Funcs[I]).all())
        Remarks->emit(R);
      for (const Remark &R : Out.Remarks.all())
        Remarks->emit(R);
    }
    Stats.merge(Out.Stats);
    Errors.insert(Errors.end(), std::make_move_iterator(Out.Errors.begin()),
                  std::make_move_iterator(Out.Errors.end()));
    OK &= Out.OK;
  }
  return OK;
}

bool earthcc::optimizeModuleCommunication(Module &M, const CommOptions &Opts,
                                          Statistics &Stats,
                                          std::vector<std::string> &Errors,
                                          RemarkStream *Remarks) {
  CommAnalysis CA(M, Opts, Stats, /*EmitRemarks=*/Remarks != nullptr);
  return selectModuleCommunication(M, CA, Opts, Stats, Errors, Remarks);
}
