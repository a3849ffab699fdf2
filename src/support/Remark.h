//===- Remark.h - Structured optimization remarks ---------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured optimization remarks, in the spirit of LLVM's -Rpass /
/// optimization-record machinery but owned per-compilation. Placement and
/// CommSelection emit one Remark per transformation decision — tuple hoisted
/// out of a loop, reads merged into a blkmov, redundant read eliminated,
/// RemoteFill inserted — carrying the source location of the access and the
/// cost-model numbers that justified the decision. The Pipeline exposes the
/// stream as a compile product, and the profile report joins remarks with
/// the dynamic per-site profiles by (function, location).
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_REMARK_H
#define EARTHCC_SUPPORT_REMARK_H

#include "support/SourceLoc.h"

#include <string>
#include <utility>
#include <vector>

namespace earthcc {

/// One transformation decision, tied to the source location of the access
/// it concerns. Args carry the decision's numbers (frequencies, word
/// counts, thresholds) in a machine-readable form; Message renders them
/// for humans.
struct Remark {
  std::string Pass;     ///< Emitting pass: "placement" or "comm-select".
  std::string Category; ///< Decision kind: "hoist", "block", "pipeline", ...
  std::string Function; ///< Enclosing SIMPLE function.
  SourceLoc Loc;        ///< Location of the source-level access.
  std::string Message;  ///< Human-readable sentence with the numbers.
  std::vector<std::pair<std::string, std::string>> Args; ///< Key -> value.

  /// Renders "fn:line:col: [pass.category] message".
  std::string str() const;
};

/// An append-only stream of remarks in emission order (which is
/// deterministic: passes walk functions and statements in program order).
class RemarkStream {
public:
  void emit(Remark R) { Remarks.push_back(std::move(R)); }

  const std::vector<Remark> &all() const { return Remarks; }
  bool empty() const { return Remarks.empty(); }
  size_t size() const { return Remarks.size(); }

  /// True if any remark came from \p Pass (optionally narrowed to
  /// \p Category).
  bool hasPass(const std::string &Pass, const std::string &Category = "") const;

  /// One remark per line, in emission order.
  std::string str() const;

private:
  std::vector<Remark> Remarks;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_REMARK_H
