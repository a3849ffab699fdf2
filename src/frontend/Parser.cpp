//===- Parser.cpp ---------------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace earthcc;
using namespace earthcc::ast;

Parser::Parser(std::vector<Token> Tokens, DiagnosticsEngine &Diags)
    : Tokens(std::move(Tokens)), Diags(Diags) {
  assert(!this->Tokens.empty() && this->Tokens.back().is(TokKind::Eof) &&
         "token stream must end with Eof");
}

bool Parser::accept(TokKind K) {
  if (!check(K))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokKind K, const char *Context) {
  if (accept(K))
    return true;
  error(cur().Loc, std::string("expected ") + tokKindName(K) + " " + Context +
                       ", found " + tokKindName(cur().Kind));
  return false;
}

void Parser::error(SourceLoc Loc, const std::string &Msg) {
  if (!GaveUp)
    Diags.error(Loc, Msg);
}

bool Parser::tooDeep(SourceLoc Loc) {
  error(Loc, "nesting exceeds the limit of " +
                 std::to_string(MaxNestingDepth) + " levels");
  GaveUp = true;
  // At Eof every parse loop ends and nothing descends any further.
  Pos = Tokens.size() - 1;
  return false;
}

ExprPtr Parser::sealed(ExprPtr E) {
  unsigned Operands = 0;
  auto Take = [&Operands](const ExprPtr &C) {
    if (C)
      Operands = std::max(Operands, C->Height);
  };
  Take(E->Lhs);
  Take(E->Rhs);
  Take(E->PlaceArg);
  for (const ExprPtr &A : E->Args)
    Take(A);
  E->Height = Operands + 1;
  if (E->Height > MaxNestingDepth)
    tooDeep(E->Loc);
  return E;
}

void Parser::syncToStmtBoundary() {
  while (!check(TokKind::Eof) && !check(TokKind::Semi) &&
         !check(TokKind::RBrace))
    consume();
  accept(TokKind::Semi);
}

//===----------------------------------------------------------------------===//
// Types.
//===----------------------------------------------------------------------===//

bool Parser::startsTypeSpec() const {
  switch (cur().Kind) {
  case TokKind::KwInt:
  case TokKind::KwDouble:
  case TokKind::KwVoid:
  case TokKind::KwStruct:
  case TokKind::KwShared:
    return true;
  case TokKind::Identifier:
    return StructNames.count(cur().Text) != 0;
  default:
    return false;
  }
}

TypeSpec Parser::parseTypeSpec() {
  TypeSpec TS;
  TS.Loc = cur().Loc;
  if (accept(TokKind::KwShared))
    TS.SharedQual = true;

  switch (cur().Kind) {
  case TokKind::KwInt:
    consume();
    TS.BaseKind = TypeSpec::Base::Int;
    break;
  case TokKind::KwDouble:
    consume();
    TS.BaseKind = TypeSpec::Base::Double;
    break;
  case TokKind::KwVoid:
    consume();
    TS.BaseKind = TypeSpec::Base::Void;
    break;
  case TokKind::KwStruct: {
    consume();
    TS.BaseKind = TypeSpec::Base::Struct;
    if (check(TokKind::Identifier))
      TS.StructName = consume().Text;
    else
      error(cur().Loc, "expected struct name after 'struct'");
    break;
  }
  case TokKind::Identifier:
    TS.BaseKind = TypeSpec::Base::Struct;
    TS.StructName = consume().Text;
    break;
  default:
    error(cur().Loc, "expected a type");
    break;
  }

  // Qualifier/star soup: `node local *p`, `node *local p`, `node **p`.
  for (;;) {
    if (accept(TokKind::KwLocal)) {
      TS.LocalQual = true;
      continue;
    }
    if (accept(TokKind::Star)) {
      ++TS.PointerDepth;
      continue;
    }
    break;
  }
  return TS;
}

//===----------------------------------------------------------------------===//
// Top-level declarations.
//===----------------------------------------------------------------------===//

TranslationUnit Parser::parseUnit() {
  TranslationUnit Unit;
  while (!check(TokKind::Eof)) {
    size_t Before = Pos;
    parseTopLevel(Unit);
    if (Pos == Before) {
      // Ensure forward progress even on malformed input.
      error(cur().Loc, "unexpected token at top level: " +
                           std::string(tokKindName(cur().Kind)));
      consume();
    }
  }
  return Unit;
}

void Parser::parseTopLevel(TranslationUnit &Unit) {
  if (check(TokKind::KwStruct) && peek().is(TokKind::Identifier) &&
      peek(2).is(TokKind::LBrace)) {
    Unit.Structs.push_back(parseStructDecl());
    return;
  }
  if (startsTypeSpec()) {
    parseFunctionOrGlobal(Unit);
    return;
  }
  error(cur().Loc, "expected a declaration");
  consume();
}

StructDecl Parser::parseStructDecl() {
  StructDecl SD;
  SD.Loc = cur().Loc;
  expect(TokKind::KwStruct, "at struct declaration");
  SD.Name = consume().Text;
  StructNames.insert(SD.Name);
  expect(TokKind::LBrace, "after struct name");
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    FieldDecl FD;
    FD.Loc = cur().Loc;
    FD.Type = parseTypeSpec();
    if (check(TokKind::Identifier))
      FD.Name = consume().Text;
    else
      error(cur().Loc, "expected field name");
    expect(TokKind::Semi, "after struct field");
    SD.Fields.push_back(std::move(FD));
  }
  expect(TokKind::RBrace, "at end of struct");
  expect(TokKind::Semi, "after struct declaration");
  return SD;
}

void Parser::parseFunctionOrGlobal(TranslationUnit &Unit) {
  TypeSpec TS = parseTypeSpec();
  if (!check(TokKind::Identifier)) {
    error(cur().Loc, "expected declarator name");
    syncToStmtBoundary();
    return;
  }
  std::string Name = consume().Text;

  if (check(TokKind::LParen)) {
    // Function definition or prototype.
    FuncDecl FD;
    FD.Loc = TS.Loc;
    FD.ReturnType = TS;
    FD.Name = std::move(Name);
    consume(); // '('
    if (!check(TokKind::RParen)) {
      do {
        if (accept(TokKind::KwVoid))
          break; // `f(void)`
        ParamDecl PD;
        PD.Loc = cur().Loc;
        PD.Type = parseTypeSpec();
        if (check(TokKind::Identifier))
          PD.Name = consume().Text;
        else
          error(cur().Loc, "expected parameter name");
        FD.Params.push_back(std::move(PD));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "after parameter list");
    accept(TokKind::Semi); // Tolerate `int f(...);{...}`-style stray semi.
    if (check(TokKind::LBrace))
      FD.Body = parseBlock(/*Parallel=*/false);
    Unit.Functions.push_back(std::move(FD));
    return;
  }

  // Global variable.
  GlobalDecl GD;
  GD.Decl.Type = TS;
  GD.Decl.Name = std::move(Name);
  GD.Decl.Loc = TS.Loc;
  if (accept(TokKind::Eq))
    GD.Decl.Init = parseExpr();
  expect(TokKind::Semi, "after global declaration");
  Unit.Globals.push_back(std::move(GD));
}

//===----------------------------------------------------------------------===//
// Statements.
//===----------------------------------------------------------------------===//

StmtPtr Parser::parseBlock(bool Parallel) {
  auto Block = std::make_unique<Stmt>(
      Parallel ? Stmt::Kind::ParBlock : Stmt::Kind::Block, cur().Loc);
  TokKind Open = Parallel ? TokKind::LBraceCaret : TokKind::LBrace;
  TokKind Close = Parallel ? TokKind::CaretRBrace : TokKind::RBrace;
  expect(Open, "at block start");
  while (!check(Close) && !check(TokKind::Eof)) {
    size_t Before = Pos;
    if (StmtPtr S = parseStmt())
      Block->Body.push_back(std::move(S));
    if (Pos == Before)
      consume();
  }
  expect(Close, "at block end");
  return Block;
}

/// True for the statements that hold statements; each opens one nesting
/// level.
static bool holdsStatements(TokKind K) {
  switch (K) {
  case TokKind::LBrace:
  case TokKind::LBraceCaret:
  case TokKind::KwIf:
  case TokKind::KwWhile:
  case TokKind::KwDo:
  case TokKind::KwFor:
  case TokKind::KwForall:
  case TokKind::KwSwitch:
    return true;
  default:
    return false;
  }
}

StmtPtr Parser::parseStmt() {
  NestingScope Nest(*this, holdsStatements(cur().Kind));
  if (!Nest)
    return nullptr;
  switch (cur().Kind) {
  case TokKind::LBrace:
    return parseBlock(/*Parallel=*/false);
  case TokKind::LBraceCaret:
    return parseBlock(/*Parallel=*/true);
  case TokKind::KwIf:
    return parseIf();
  case TokKind::KwWhile:
    return parseWhile();
  case TokKind::KwDo:
    return parseDoWhile();
  case TokKind::KwFor:
    return parseForOrForall(/*Parallel=*/false);
  case TokKind::KwForall:
    return parseForOrForall(/*Parallel=*/true);
  case TokKind::KwSwitch:
    return parseSwitch();
  case TokKind::KwReturn:
    return parseReturn();
  case TokKind::Semi:
    consume();
    return std::make_unique<Stmt>(Stmt::Kind::Block, cur().Loc);
  default:
    if (startsTypeSpec())
      return parseDeclStmt();
    return parseExprOrAssign();
  }
}

StmtPtr Parser::parseIf() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::If, cur().Loc);
  consume(); // if
  expect(TokKind::LParen, "after 'if'");
  S->Cond = parseExpr();
  expect(TokKind::RParen, "after if condition");
  S->Then = parseStmt();
  if (accept(TokKind::KwElse))
    S->Else = parseStmt();
  return S;
}

StmtPtr Parser::parseWhile() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::While, cur().Loc);
  consume(); // while
  expect(TokKind::LParen, "after 'while'");
  S->Cond = parseExpr();
  expect(TokKind::RParen, "after while condition");
  S->LoopBody = parseStmt();
  return S;
}

StmtPtr Parser::parseDoWhile() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::DoWhile, cur().Loc);
  consume(); // do
  S->LoopBody = parseStmt();
  expect(TokKind::KwWhile, "after do-while body");
  expect(TokKind::LParen, "after 'while'");
  S->Cond = parseExpr();
  expect(TokKind::RParen, "after do-while condition");
  expect(TokKind::Semi, "after do-while");
  return S;
}

StmtPtr Parser::parseSimpleStmtNoSemi() {
  if (check(TokKind::Semi) || check(TokKind::RParen))
    return nullptr; // Empty clause.
  ExprPtr Lhs = parseExpr();
  if (accept(TokKind::Eq)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Assign, Lhs->Loc);
    S->Lhs = std::move(Lhs);
    S->Rhs = parseExpr();
    return S;
  }
  auto S = std::make_unique<Stmt>(Stmt::Kind::ExprStmt, Lhs->Loc);
  S->Rhs = std::move(Lhs);
  return S;
}

StmtPtr Parser::parseForOrForall(bool Parallel) {
  auto S = std::make_unique<Stmt>(
      Parallel ? Stmt::Kind::Forall : Stmt::Kind::For, cur().Loc);
  consume(); // for / forall
  expect(TokKind::LParen, "after loop keyword");
  S->Init = parseSimpleStmtNoSemi();
  expect(TokKind::Semi, "after loop init");
  if (!check(TokKind::Semi))
    S->Cond = parseExpr();
  expect(TokKind::Semi, "after loop condition");
  S->Step = parseSimpleStmtNoSemi();
  expect(TokKind::RParen, "after loop step");
  S->LoopBody = parseStmt();
  return S;
}

StmtPtr Parser::parseSwitch() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::Switch, cur().Loc);
  consume(); // switch
  expect(TokKind::LParen, "after 'switch'");
  S->Cond = parseExpr();
  expect(TokKind::RParen, "after switch operand");
  expect(TokKind::LBrace, "at switch body");
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    Stmt::SwitchCase Case;
    if (accept(TokKind::KwCase)) {
      bool Negative = accept(TokKind::Minus);
      if (check(TokKind::IntLiteral)) {
        Case.Value = consume().IntValue;
        if (Negative)
          Case.Value = -Case.Value;
      } else {
        error(cur().Loc, "expected integer case label");
      }
    } else if (accept(TokKind::KwDefault)) {
      Case.IsDefault = true;
    } else {
      error(cur().Loc, "expected 'case' or 'default' in switch");
      syncToStmtBoundary();
      continue;
    }
    expect(TokKind::Colon, "after case label");
    while (!check(TokKind::KwCase) && !check(TokKind::KwDefault) &&
           !check(TokKind::RBrace) && !check(TokKind::Eof)) {
      if (accept(TokKind::KwBreak)) {
        expect(TokKind::Semi, "after 'break'");
        break;
      }
      size_t Before = Pos;
      if (StmtPtr Inner = parseStmt())
        Case.Body.push_back(std::move(Inner));
      if (Pos == Before)
        consume();
    }
    S->Cases.push_back(std::move(Case));
  }
  expect(TokKind::RBrace, "at end of switch");
  return S;
}

StmtPtr Parser::parseReturn() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::Return, cur().Loc);
  consume(); // return
  if (!check(TokKind::Semi))
    S->Lhs = parseExpr();
  expect(TokKind::Semi, "after return");
  return S;
}

StmtPtr Parser::parseDeclStmt() {
  auto S = std::make_unique<Stmt>(Stmt::Kind::Decl, cur().Loc);
  TypeSpec TS = parseTypeSpec();
  do {
    VarDecl VD;
    VD.Type = TS;
    VD.Loc = cur().Loc;
    // Per-declarator stars: `node *p, *q;`
    while (accept(TokKind::Star))
      ++VD.Type.PointerDepth;
    while (accept(TokKind::KwLocal)) {
      VD.Type.LocalQual = true;
      while (accept(TokKind::Star))
        ++VD.Type.PointerDepth;
    }
    if (check(TokKind::Identifier))
      VD.Name = consume().Text;
    else
      error(cur().Loc, "expected variable name");
    if (accept(TokKind::Eq))
      VD.Init = parseExpr();
    S->Decls.push_back(std::move(VD));
  } while (accept(TokKind::Comma));
  expect(TokKind::Semi, "after declaration");
  return S;
}

StmtPtr Parser::parseExprOrAssign() {
  ExprPtr Lhs = parseExpr();
  if (!Lhs) {
    syncToStmtBoundary();
    return nullptr;
  }
  if (accept(TokKind::Eq)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Assign, Lhs->Loc);
    S->Lhs = std::move(Lhs);
    S->Rhs = parseExpr();
    expect(TokKind::Semi, "after assignment");
    return S;
  }
  auto S = std::make_unique<Stmt>(Stmt::Kind::ExprStmt, Lhs->Loc);
  S->Rhs = std::move(Lhs);
  expect(TokKind::Semi, "after expression statement");
  return S;
}

//===----------------------------------------------------------------------===//
// Expressions.
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpr() { return parseLOr(); }

ExprPtr Parser::fold(Expr::BinOp Op, ExprPtr Lhs,
                     ExprPtr (Parser::*Operand)()) {
  auto B = std::make_unique<Expr>(Expr::Kind::Binary, consume().Loc);
  B->BOp = Op;
  B->Lhs = std::move(Lhs);
  B->Rhs = (this->*Operand)();
  return sealed(std::move(B));
}

ExprPtr Parser::parseLOr() {
  ExprPtr E = parseLAnd();
  while (check(TokKind::PipePipe))
    E = fold(Expr::BinOp::LOr, std::move(E), &Parser::parseLAnd);
  return E;
}

ExprPtr Parser::parseLAnd() {
  ExprPtr E = parseEquality();
  while (check(TokKind::AmpAmp))
    E = fold(Expr::BinOp::LAnd, std::move(E), &Parser::parseEquality);
  return E;
}

ExprPtr Parser::parseEquality() {
  ExprPtr E = parseRelational();
  while (check(TokKind::EqEq) || check(TokKind::NotEq)) {
    Expr::BinOp Op =
        cur().is(TokKind::EqEq) ? Expr::BinOp::Eq : Expr::BinOp::Ne;
    E = fold(Op, std::move(E), &Parser::parseRelational);
  }
  return E;
}

ExprPtr Parser::parseRelational() {
  ExprPtr E = parseAdditive();
  for (;;) {
    Expr::BinOp Op;
    switch (cur().Kind) {
    case TokKind::Less:
      Op = Expr::BinOp::Lt;
      break;
    case TokKind::LessEq:
      Op = Expr::BinOp::Le;
      break;
    case TokKind::Greater:
      Op = Expr::BinOp::Gt;
      break;
    case TokKind::GreaterEq:
      Op = Expr::BinOp::Ge;
      break;
    default:
      return E;
    }
    E = fold(Op, std::move(E), &Parser::parseAdditive);
  }
}

ExprPtr Parser::parseAdditive() {
  ExprPtr E = parseMultiplicative();
  while (check(TokKind::Plus) || check(TokKind::Minus)) {
    Expr::BinOp Op =
        cur().is(TokKind::Plus) ? Expr::BinOp::Add : Expr::BinOp::Sub;
    E = fold(Op, std::move(E), &Parser::parseMultiplicative);
  }
  return E;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr E = parseUnary();
  for (;;) {
    Expr::BinOp Op;
    switch (cur().Kind) {
    case TokKind::Star:
      Op = Expr::BinOp::Mul;
      break;
    case TokKind::Slash:
      Op = Expr::BinOp::Div;
      break;
    case TokKind::Percent:
      Op = Expr::BinOp::Rem;
      break;
    default:
      return E;
    }
    E = fold(Op, std::move(E), &Parser::parseUnary);
  }
}

ExprPtr Parser::parseUnary() {
  ExprPtr U;
  switch (cur().Kind) {
  case TokKind::Minus:
  case TokKind::Bang:
    U = std::make_unique<Expr>(Expr::Kind::Unary, cur().Loc);
    U->UOp = check(TokKind::Minus) ? Expr::UnOp::Neg : Expr::UnOp::Not;
    break;
  case TokKind::Star:
    U = std::make_unique<Expr>(Expr::Kind::Deref, cur().Loc);
    break;
  case TokKind::Amp:
    U = std::make_unique<Expr>(Expr::Kind::AddrOf, cur().Loc);
    break;
  default:
    return parsePostfix();
  }
  NestingScope Nest(*this);
  if (!Nest)
    return U;
  consume();
  U->Lhs = parseUnary();
  return sealed(std::move(U));
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  for (;;) {
    if (check(TokKind::Arrow) || check(TokKind::Dot)) {
      bool IsArrow = cur().is(TokKind::Arrow);
      SourceLoc Loc = consume().Loc;
      auto M = std::make_unique<Expr>(Expr::Kind::Member, Loc);
      M->IsArrow = IsArrow;
      if (check(TokKind::Identifier))
        M->Name = consume().Text;
      else
        error(cur().Loc, "expected field name after member operator");
      M->Lhs = std::move(E);
      E = sealed(std::move(M));
      continue;
    }
    if (check(TokKind::LParen)) {
      // Calls are only valid on bare identifiers in this dialect.
      if (!E || E->K != Expr::Kind::Ident) {
        error(cur().Loc, "called object is not a function name");
        consume();
        continue;
      }
      NestingScope Nest(*this);
      if (!Nest)
        return E;
      SourceLoc Loc = consume().Loc;
      auto C = std::make_unique<Expr>(Expr::Kind::Call, Loc);
      C->Name = E->Name;
      if (!check(TokKind::RParen)) {
        do {
          C->Args.push_back(parseExpr());
        } while (accept(TokKind::Comma));
      }
      expect(TokKind::RParen, "after call arguments");
      if (accept(TokKind::At)) {
        if (check(TokKind::Identifier) && cur().Text == "OWNER_OF") {
          consume();
          expect(TokKind::LParen, "after OWNER_OF");
          C->Place = Expr::PlaceKind::OwnerOf;
          C->PlaceArg = parseExpr();
          expect(TokKind::RParen, "after OWNER_OF argument");
        } else if (check(TokKind::Identifier) && cur().Text == "node") {
          consume();
          expect(TokKind::LParen, "after @node");
          C->Place = Expr::PlaceKind::AtNode;
          C->PlaceArg = parseExpr();
          expect(TokKind::RParen, "after @node argument");
        } else if (check(TokKind::Identifier) && cur().Text == "HOME") {
          consume();
          C->Place = Expr::PlaceKind::Home;
        } else {
          error(cur().Loc,
                "expected OWNER_OF(...), node(...) or HOME after '@'");
        }
      }
      E = sealed(std::move(C));
      continue;
    }
    return E;
  }
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = cur().Loc;
  switch (cur().Kind) {
  case TokKind::IntLiteral: {
    auto E = std::make_unique<Expr>(Expr::Kind::IntLit, Loc);
    E->IntValue = consume().IntValue;
    return E;
  }
  case TokKind::DoubleLiteral: {
    auto E = std::make_unique<Expr>(Expr::Kind::DoubleLit, Loc);
    E->DoubleValue = consume().DoubleValue;
    return E;
  }
  case TokKind::KwNull: {
    consume();
    auto E = std::make_unique<Expr>(Expr::Kind::IntLit, Loc);
    E->IntValue = 0;
    return E;
  }
  case TokKind::Identifier: {
    auto E = std::make_unique<Expr>(Expr::Kind::Ident, Loc);
    E->Name = consume().Text;
    return E;
  }
  case TokKind::KwSizeof: {
    consume();
    expect(TokKind::LParen, "after 'sizeof'");
    auto E = std::make_unique<Expr>(Expr::Kind::SizeOf, Loc);
    accept(TokKind::KwStruct);
    if (check(TokKind::Identifier))
      E->Name = consume().Text;
    else
      error(cur().Loc, "expected struct name in sizeof");
    // Tolerate `sizeof(struct X *)`-style pointer sizes: one word anyway.
    while (accept(TokKind::Star))
      E->Name.clear(); // Pointer size: leave Name empty -> 1 word.
    expect(TokKind::RParen, "after sizeof");
    return E;
  }
  case TokKind::LParen: {
    NestingScope Nest(*this);
    if (!Nest)
      return std::make_unique<Expr>(Expr::Kind::IntLit, Loc);
    consume();
    ExprPtr E = parseExpr();
    expect(TokKind::RParen, "after parenthesized expression");
    return E;
  }
  default:
    error(Loc, std::string("expected an expression, found ") +
                   tokKindName(cur().Kind));
    consume();
    return std::make_unique<Expr>(Expr::Kind::IntLit, Loc);
  }
}
