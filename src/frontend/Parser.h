//===- Parser.h - Recursive-descent parser for EARTH-C ----------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_FRONTEND_PARSER_H
#define EARTHCC_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <set>
#include <vector>

namespace earthcc {

/// Parses a token stream into an ast::TranslationUnit.
///
/// The parser tracks declared struct tags so that a bare identifier can be
/// used as a type name once its struct is declared (a lightweight stand-in
/// for C typedefs, matching how the Olden sources read).
class Parser {
public:
  /// The deepest nesting accepted. While descending, the parser counts one
  /// level per statement that holds statements, per parenthesis (grouping,
  /// call arguments, placement argument) and per unary operator. It also
  /// bounds the height of every expression tree it builds: an operator
  /// node sits one level above its tallest operand, so a folded chain
  /// `a+a+...+a` gains one level per binary operator. Simplify, the
  /// analyses, lowering and the AST's own destructor all recurse over
  /// these trees, so past the limit the parser reports a located error and
  /// gives up on the rest of the input instead of building the tree.
  static constexpr unsigned MaxNestingDepth = 256;

  Parser(std::vector<Token> Tokens, DiagnosticsEngine &Diags);

  /// Parses the whole unit. On errors, diagnostics are recorded and a
  /// best-effort AST is returned; callers must check Diags.hasErrors().
  ast::TranslationUnit parseUnit();

private:
  // Token stream helpers.
  const Token &cur() const { return Tokens[Pos]; }
  const Token &peek(unsigned Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  Token consume() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }
  bool check(TokKind K) const { return cur().is(K); }
  bool accept(TokKind K);
  bool expect(TokKind K, const char *Context);
  void syncToStmtBoundary();

  /// Reports an error, unless the parser has given up on a nesting
  /// overflow: everything after that would echo the one real error.
  void error(SourceLoc Loc, const std::string &Msg);

  // Nesting limit (see MaxNestingDepth).
  /// One level of descent, released at scope exit; \p Opens false makes
  /// the scope a no-op. Tests false when the level is past the limit: the
  /// parser has then reported it and skipped to the end of input.
  class NestingScope {
  public:
    explicit NestingScope(Parser &P, bool Opens = true)
        : P(P), Opens(Opens),
          OK(!Opens || ++P.Depth <= MaxNestingDepth ||
             P.tooDeep(P.cur().Loc)) {}
    ~NestingScope() {
      if (Opens)
        --P.Depth;
    }
    NestingScope(const NestingScope &) = delete;
    NestingScope &operator=(const NestingScope &) = delete;
    explicit operator bool() const { return OK; }

  private:
    Parser &P;
    bool Opens;
    bool OK;
  };
  /// Reports the nesting overflow at \p Loc and skips to the end of input.
  /// Returns false.
  bool tooDeep(SourceLoc Loc);
  /// Sets the height of operator node \p E from its operands and gives up
  /// if that passes the limit.
  ast::ExprPtr sealed(ast::ExprPtr E);

  // Type parsing.
  bool startsTypeSpec() const;
  ast::TypeSpec parseTypeSpec();

  // Declarations.
  void parseTopLevel(ast::TranslationUnit &Unit);
  ast::StructDecl parseStructDecl();
  void parseFunctionOrGlobal(ast::TranslationUnit &Unit);

  // Statements.
  ast::StmtPtr parseStmt();
  ast::StmtPtr parseBlock(bool Parallel);
  ast::StmtPtr parseIf();
  ast::StmtPtr parseWhile();
  ast::StmtPtr parseDoWhile();
  ast::StmtPtr parseForOrForall(bool Parallel);
  ast::StmtPtr parseSwitch();
  ast::StmtPtr parseReturn();
  ast::StmtPtr parseDeclStmt();
  ast::StmtPtr parseExprOrAssign();
  ast::StmtPtr parseSimpleStmtNoSemi(); ///< For for-loop init/step clauses.

  // Expressions.
  ast::ExprPtr parseExpr();
  ast::ExprPtr parseLOr();
  ast::ExprPtr parseLAnd();
  ast::ExprPtr parseEquality();
  ast::ExprPtr parseRelational();
  ast::ExprPtr parseAdditive();
  ast::ExprPtr parseMultiplicative();
  ast::ExprPtr parseUnary();
  ast::ExprPtr parsePostfix();
  ast::ExprPtr parsePrimary();
  /// Consumes a binary operator token and folds `Lhs <op> <Operand()>`
  /// into one node.
  ast::ExprPtr fold(ast::Expr::BinOp Op, ast::ExprPtr Lhs,
                    ast::ExprPtr (Parser::*Operand)());

  std::vector<Token> Tokens;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  std::set<std::string> StructNames;
  unsigned Depth = 0;  ///< Open nesting levels (see NestingScope).
  bool GaveUp = false; ///< Set by tooDeep().
};

} // namespace earthcc

#endif // EARTHCC_FRONTEND_PARSER_H
