//===- Diagnostics.h - Error reporting for the compiler ---------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostics engine. Library code never prints directly or throws;
/// it records errors here and callers decide how to surface them.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_DIAGNOSTICS_H
#define EARTHCC_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace earthcc {

/// Severity of a recorded diagnostic.
enum class DiagKind { Error, Warning, Note };

/// One recorded diagnostic message.
struct Diagnostic {
  DiagKind Kind;
  SourceLoc Loc;
  std::string Message;

  /// Renders the diagnostic in "line:col: error: message" style.
  std::string str() const;
};

/// Collects diagnostics produced while compiling one translation unit.
///
/// The engine is append-only; passes query hasErrors() to decide whether it
/// is safe to continue. Only the first MaxRecordedErrors errors are kept
/// (followed by one note saying the rest were dropped); later ones are just
/// counted, so a flood of bad input cannot grow the list, or the text
/// rendered from it, without bound.
class DiagnosticsEngine {
public:
  static constexpr unsigned MaxRecordedErrors = 100;

  void error(SourceLoc Loc, const std::string &Message) {
    ++NumErrors;
    if (NumErrors <= MaxRecordedErrors)
      Diags.push_back({DiagKind::Error, Loc, Message});
    else if (NumErrors == MaxRecordedErrors + 1)
      Diags.push_back({DiagKind::Note, Loc,
                       "too many errors; later errors are not shown"});
  }
  void warning(SourceLoc Loc, const std::string &Message) {
    Diags.push_back({DiagKind::Warning, Loc, Message});
  }
  void note(SourceLoc Loc, const std::string &Message) {
    Diags.push_back({DiagKind::Note, Loc, Message});
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &all() const { return Diags; }

  /// Renders every diagnostic, one per line. Convenient for tests and tools.
  std::string str() const;

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_DIAGNOSTICS_H
