//===- Lexer.h - EARTH-C lexer ----------------------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_FRONTEND_LEXER_H
#define EARTHCC_FRONTEND_LEXER_H

#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace earthcc {

/// Turns an EARTH-C source buffer into a token stream. Handles `//` and
/// `/* */` comments and the two-character parallel-sequence brackets
/// `{^` / `^}`.
class Lexer {
public:
  Lexer(std::string Source, DiagnosticsEngine &Diags);

  /// Lexes the whole buffer. The returned vector always ends with an Eof
  /// token; on a lexical error, diagnostics are recorded and the offending
  /// character skipped.
  std::vector<Token> lexAll();

private:
  Token next();
  /// The character \p Ahead positions on, or '\0' past the end of input.
  /// A NUL byte inside the buffer also reads as '\0'; atEnd() tells the two
  /// apart.
  char peek(unsigned Ahead = 0) const;
  bool atEnd() const { return Pos >= Source.size(); }
  char advance();
  /// Steps over the current character, diagnosing it if it is a NUL byte
  /// (comments included: a NUL is an error wherever it appears).
  void skipChar();
  bool match(char Expected);
  void skipWhitespaceAndComments();
  SourceLoc here() const { return SourceLoc(Line, Col); }

  Token makeToken(TokKind Kind, SourceLoc Loc) const;
  Token lexNumber(SourceLoc Loc);
  Token lexIdentifier(SourceLoc Loc);

  std::string Source;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

} // namespace earthcc

#endif // EARTHCC_FRONTEND_LEXER_H
