//===- SideEffects.h - Read/write sets for SIMPLE statements ----*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decorates statements with the side-effect information the paper's
/// possible-placement analysis consumes:
///
///  - varWritten(v, S): S (or anything nested in it, including calls'
///    results) assigns the variable v directly;
///  - accessedViaAlias(p, off, S, Write): S may read/write the memory that
///    `p->off` denotes through a base variable *different from* p, or
///    through a function call. Direct accesses via p itself are excluded —
///    the paper relies on that to keep read tuples alive across direct
///    writes (which blocked communication later absorbs into the local
///    struct copy).
///
/// Heap effects of calls are interprocedural: every function gets a summary
/// of abstract words (from PointsToAnalysis) it may read/write, closed over
/// the call graph by fixpoint (recursion-safe).
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_ANALYSIS_SIDEEFFECTS_H
#define EARTHCC_ANALYSIS_SIDEEFFECTS_H

#include "analysis/PointsTo.h"
#include "support/FlatSet.h"

#include <unordered_map>

namespace earthcc {

/// Module-wide side-effect information (see file comment).
class SideEffects {
public:
  /// Abstract heap words, as a hashed flat set (contiguous scan + O(1)
  /// membership; the summaries are built once and queried hot from the
  /// selection's invalidation walks).
  using WordSet =
      FlatSet<PointsToAnalysis::Target, PointsToAnalysis::TargetHash>;

  SideEffects(const Module &M, const PointsToAnalysis &PT);

  /// True if \p S may assign \p V directly (recursively over children).
  bool varWritten(const Var *V, const Stmt &S) const;

  /// True if \p S may access the words `pts(P)+Off` through an alias (a
  /// different base variable or a call). \p Write selects write effects;
  /// otherwise read effects.
  bool accessedViaAlias(const Var *P, unsigned Off, const Stmt &S,
                        bool Write) const;

  /// True if \p S contains any return statement (write tuples cannot sink
  /// across returns).
  bool containsReturn(const Stmt &S) const;

  /// Quick rejection for the placement/selection kill checks: false when
  /// \p S writes nothing at all (no variable assignments, no direct heap
  /// stores, no callee write effects) — then no read tuple and no live
  /// binding can be killed by it, and the per-tuple checks can be skipped
  /// wholesale.
  bool writesAnything(const Stmt &S) const;

  /// Quick rejection for the write-tuple kill check: false when \p S also
  /// performs no heap/call *read* and contains no return, i.e. no write
  /// tuple can be stopped by it.
  bool blocksWriteTuples(const Stmt &S) const;

  /// True if \p S (recursively) performs a *direct* heap read through the
  /// base variable \p P (any offset). Used by the RemoteFill elision check.
  bool directlyReads(const Var *P, const Stmt &S) const;

  /// True if \p S (recursively) performs a *direct* heap write through \p P
  /// at offset \p Off. Used to invalidate value caches across compound
  /// statements whose interior updates do not escape.
  bool directlyWrites(const Var *P, unsigned Off, const Stmt &S) const;

  /// Abstract words function \p F may read (write) — for tests.
  const WordSet &functionReads(const Function *F) const;
  const WordSet &functionWrites(const Function *F) const;

private:
  /// One direct heap access through a base variable.
  struct HeapAccess {
    const Var *Base;
    unsigned Off;
    bool IsWrite;
  };

  /// Aggregated effects of one statement subtree.
  struct StmtEffects {
    FlatSet<const Var *> VarWrites;
    std::vector<HeapAccess> Heap;
    WordSet CallReadWords;
    WordSet CallWriteWords;
    bool HasReturn = false;
    bool HasHeapWrite = false; ///< Any Heap entry with IsWrite.
    bool HasHeapRead = false;  ///< Any Heap entry without IsWrite.
  };

  void computeSummaries(const Module &M);
  /// Fills \p S's Cache entry in place (children first) and returns it.
  const StmtEffects &computeStmt(const Stmt &S);
  const StmtEffects &effects(const Stmt &S) const;

  const PointsToAnalysis &PT;
  /// Node-based, so an entry's reference survives the inserts its
  /// children's computeStmt makes while it is being filled.
  std::unordered_map<const Stmt *, StmtEffects> Cache;
  std::unordered_map<const Function *, WordSet> SummaryReads;
  std::unordered_map<const Function *, WordSet> SummaryWrites;
  WordSet Empty;
};

} // namespace earthcc

#endif // EARTHCC_ANALYSIS_SIDEEFFECTS_H
