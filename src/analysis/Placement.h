//===- Placement.h - Possible-placement analysis ----------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's possible-placement analysis (Section 4.1, Figures 5 and 6).
///
/// It computes, for every statement S of a function:
///
///  - RemoteReads(S): the remote communication expressions (RCEs) that may
///    safely be issued *just before* S — propagated backwards, through a
///    single structured traversal, optimistically hoisted out of
///    conditionals (reads of spurious fields are safe) and out of loops
///    that cannot kill them;
///
///  - RemoteWrites(S): the RCEs that may safely be issued *just after* S —
///    propagated forwards, conservatively (a write may only move below a
///    conditional if it occurs in every alternative, and never out of a
///    loop that is not known to execute exactly once).
///
/// An RCE is the paper's 4-tuple (p, f, n, Dlist): base pointer, field
/// (word offset in our representation), estimated execution frequency, and
/// the set of basic-statement labels whose accesses the tuple covers.
/// Frequencies are adjusted ×LoopFactor when leaving a loop and
/// ÷#alternatives when leaving a conditional.
///
/// Kill rules (computed by SideEffects):
///  - a tuple (p,f) cannot cross a statement that writes p itself;
///  - a *read* tuple cannot cross a statement that may write p->f via an
///    alias (a direct write via p does NOT kill — blocked communication
///    later absorbs it into the local struct copy);
///  - a *write* tuple cannot cross a statement that may read or write p->f
///    via an alias, nor a return statement.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_ANALYSIS_PLACEMENT_H
#define EARTHCC_ANALYSIS_PLACEMENT_H

#include "analysis/SideEffects.h"
#include "support/SourceLoc.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace earthcc {

class RemarkStream;

/// A remote communication expression: the paper's (p, f, n, Dlist) tuple.
struct RCE {
  const Var *Base = nullptr;
  unsigned Off = 0;
  std::string FieldName;          ///< For printing.
  const Type *ValueTy = nullptr;  ///< Scalar type of the accessed field.
  double Freq = 1.0;
  std::vector<int> DList;         ///< Sorted basic-statement labels.
  /// Location of the first access the tuple was generated from; carried so
  /// remarks and inserted communication keep a stable source anchor.
  SourceLoc Loc;

  /// Renders like the paper: "(p->x, 11, S4:S11)".
  std::string str() const;
};

/// Options for the placement analysis.
struct PlacementOptions {
  /// Paper: "freq * 10" out of loops.
  static constexpr double LoopFrequencyFactor = 10.0;
  bool OptimisticConditionalReads = true; ///< Hoist reads out of if-branches.
};

/// Result of possible-placement analysis on one function.
///
/// The per-statement sets are stored as *shared* sorted snapshots: the
/// analysis walks each sequence propagating only set deltas, and every run
/// of statements across which the set does not change shares one snapshot
/// vector (most statements neither generate a tuple nor can kill one, so
/// this is the common case). Consumers only ever read the vectors.
class PlacementResult {
public:
  /// RCEs placeable just before \p S (empty vector if none), sorted by
  /// (base variable id, offset).
  const std::vector<RCE> &readsBefore(const Stmt *S) const;
  /// RCEs placeable just after \p S.
  const std::vector<RCE> &writesAfter(const Stmt *S) const;

  using Snapshot = std::shared_ptr<const std::vector<RCE>>;
  using SetMap = std::unordered_map<const Stmt *, Snapshot>;
  SetMap BeforeReads;
  SetMap AfterWrites;

private:
  std::vector<RCE> Empty;
};

/// Runs possible-placement analysis over \p F. When \p Remarks is non-null,
/// the analysis emits one "placement" remark per tuple it hoists out of a
/// loop, carrying the frequency adjustment (the paper's x LoopFactor).
PlacementResult runPlacementAnalysis(const Function &F, const SideEffects &SE,
                                     const PlacementOptions &Opts = {},
                                     RemarkStream *Remarks = nullptr);

} // namespace earthcc

#endif // EARTHCC_ANALYSIS_PLACEMENT_H
