//===- CommSelection.h - Communication selection transform ------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's communication-selection transformation (Section 4.2).
/// Driven by possible-placement analysis, it:
///
///  - places remote reads at their *earliest* safe point (top-down walk with
///    a hash table of already-issued operations, which doubles as redundant
///    communication elimination);
///  - chooses between *pipelined* scalar split-phase reads (commN temps) and
///    *blocked* transfers (one blkmov into a local struct copy, bcommN) —
///    blocked when at least BlockThresholdWords distinct words of one
///    pointer move together (the paper's measured crossover is 3);
///  - sinks remote writes to their *latest* safe point, but only when this
///    enables a blocked write-back; the RemoteFill obligation (every word of
///    the struct must hold a valid value before the block is written) is
///    satisfied either by a previously placed blocked read of the same
///    pointer or by inserting a fill blkmov before the first covered store;
///  - keeps local copies coherent across direct writes (a store p->f = v
///    also refreshes the live commN/bcommN copy), so later covered reads can
///    still use the local copy.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_TRANSFORM_COMMSELECTION_H
#define EARTHCC_TRANSFORM_COMMSELECTION_H

#include "analysis/Placement.h"
#include "support/Remark.h"
#include "support/Statistics.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace earthcc {

/// Tunable policy for communication selection. Defaults reproduce the
/// paper's configuration; the flags feed the ablation benchmarks.
struct CommOptions {
  bool EnableReadMotion = true;      ///< Hoist reads to earliest placement.
  bool EnableBlocking = true;        ///< Allow blkmov selection.
  bool EnableRedundancyElim = true;  ///< Reuse live comm temps.
  bool EnableWriteBlocking = true;   ///< Sink + block remote writes.
  unsigned BlockThresholdWords = 3;  ///< Paper: blkmov wins at >= 3 words.
  /// Pipeline if struct > this * fields.
  static constexpr unsigned MaxBlockOverfetch = 4;
  PlacementOptions Placement;

  /// The cost-model decision between pipelining and blocking a group of
  /// \p Fields accesses to a struct of \p StructWords words.
  bool preferBlock(unsigned Fields, unsigned StructWords) const {
    if (!EnableBlocking || Fields < BlockThresholdWords)
      return false;
    // Large structs with few needed fields: spurious words shift the
    // trade-off back to pipelined scalars (paper, Section 4.2).
    return StructWords <= MaxBlockOverfetch * Fields;
  }
};

/// The analysis phase of communication selection, split out so the driver
/// can run (and time) it as its own "placement" pass stage.
///
/// Construction snapshots the module *before* any function is transformed:
/// it drops stale bytecode, relabels every function, builds one module-wide
/// points-to analysis and side-effect summary, and runs possible-placement
/// analysis per function. Because every per-function placement is computed
/// against the same untransformed module, the results are independent of
/// function order and of how many \p Threads computed them — the property
/// the parallel selection phase relies on for bit-identical output.
///
/// Placement remarks are buffered per function (in deterministic program
/// order) and spliced into the output stream by selectModuleCommunication,
/// which keeps the emitted remark stream byte-identical to the historical
/// serial interleaving [placement(f), selection(f)] per function.
class CommAnalysis {
public:
  /// Analyzes \p M. \p Stats receives the placement.* counters. Placement
  /// remarks are generated only when \p EmitRemarks is set. \p Threads
  /// parallelizes the per-function placement analyses (1 = serial on the
  /// caller's thread, 0 = all hardware threads).
  CommAnalysis(Module &M, const CommOptions &Opts, Statistics &Stats,
               bool EmitRemarks = true, unsigned Threads = 1);

  CommAnalysis(const CommAnalysis &) = delete;
  CommAnalysis &operator=(const CommAnalysis &) = delete;

  const PointsToAnalysis &pointsTo() const { return PT; }
  const SideEffects &sideEffects() const { return SE; }
  const PlacementResult &placement(const Function &F) const;
  /// The buffered placement remarks for \p F, in emission order.
  const RemarkStream &placementRemarks(const Function &F) const;

private:
  /// Pre-analysis module preparation, ordered before the analyses below.
  struct Prepared {
    explicit Prepared(Module &M);
  };

  struct FuncAnalysis {
    PlacementResult PR;
    RemarkStream Remarks;
  };

  Prepared Prep;
  PointsToAnalysis PT;
  SideEffects SE;
  std::vector<FuncAnalysis> Results; ///< Parallel to M.functions().
  std::unordered_map<const Function *, size_t> Index;
};

/// The transform phase: runs the selection rewrite over every function of
/// \p M using the snapshots in \p CA, optionally fanning the per-function
/// rewrites out over \p Threads workers (1 = serial, 0 = all hardware).
/// Output — module, counters, remark stream — is bit-identical at every
/// thread count: functions are rewritten independently (each touches only
/// its own statements and temps) and per-function counters/remarks/errors
/// are buffered and merged in function order afterwards. Returns false
/// (with \p Errors populated) if any transformed function fails
/// verification — a bug, surfaced loudly.
bool selectModuleCommunication(Module &M, CommAnalysis &CA,
                               const CommOptions &Opts, Statistics &Stats,
                               std::vector<std::string> &Errors,
                               RemarkStream *Remarks = nullptr,
                               unsigned Threads = 1);

/// Runs communication selection on every function of \p M: one CommAnalysis
/// snapshot followed by selectModuleCommunication, both serial.
bool optimizeModuleCommunication(Module &M, const CommOptions &Opts,
                                 Statistics &Stats,
                                 std::vector<std::string> &Errors,
                                 RemarkStream *Remarks = nullptr);

} // namespace earthcc

#endif // EARTHCC_TRANSFORM_COMMSELECTION_H
