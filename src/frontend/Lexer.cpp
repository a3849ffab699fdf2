//===- Lexer.cpp ----------------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>

using namespace earthcc;

const char *earthcc::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of file";
  case TokKind::Identifier:
    return "identifier";
  case TokKind::IntLiteral:
    return "integer literal";
  case TokKind::DoubleLiteral:
    return "double literal";
  case TokKind::KwInt:
    return "'int'";
  case TokKind::KwDouble:
    return "'double'";
  case TokKind::KwVoid:
    return "'void'";
  case TokKind::KwStruct:
    return "'struct'";
  case TokKind::KwLocal:
    return "'local'";
  case TokKind::KwShared:
    return "'shared'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwDo:
    return "'do'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwForall:
    return "'forall'";
  case TokKind::KwSwitch:
    return "'switch'";
  case TokKind::KwCase:
    return "'case'";
  case TokKind::KwDefault:
    return "'default'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwSizeof:
    return "'sizeof'";
  case TokKind::KwNull:
    return "'NULL'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBraceCaret:
    return "'{^'";
  case TokKind::CaretRBrace:
    return "'^}'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::Semi:
    return "';'";
  case TokKind::Comma:
    return "','";
  case TokKind::Dot:
    return "'.'";
  case TokKind::Arrow:
    return "'->'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Less:
    return "'<'";
  case TokKind::LessEq:
    return "'<='";
  case TokKind::Greater:
    return "'>'";
  case TokKind::GreaterEq:
    return "'>='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Eq:
    return "'='";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::PipePipe:
    return "'||'";
  case TokKind::Bang:
    return "'!'";
  case TokKind::At:
    return "'@'";
  case TokKind::Colon:
    return "':'";
  }
  return "<bad token>";
}

Lexer::Lexer(std::string Source, DiagnosticsEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  if (atEnd())
    return '\0';
  char C = Source[Pos];
  ++Pos;
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipChar() {
  if (peek() == '\0')
    Diags.error(here(), "null character in source");
  advance();
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  advance();
  return true;
}

void Lexer::skipWhitespaceAndComments() {
  for (;;) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        skipChar();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = here();
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/')) {
        if (atEnd()) {
          Diags.error(Start, "unterminated block comment");
          return;
        }
        skipChar();
      }
      advance();
      advance();
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokKind Kind, SourceLoc Loc) const {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  return T;
}

Token Lexer::lexNumber(SourceLoc Loc) {
  size_t Start = Pos;
  while (std::isdigit(static_cast<unsigned char>(peek())))
    advance();
  bool IsDouble = false;
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    IsDouble = true;
    advance();
    while (std::isdigit(static_cast<unsigned char>(peek())))
      advance();
  }
  if (peek() == 'e' || peek() == 'E') {
    size_t Save = Pos;
    advance();
    if (peek() == '+' || peek() == '-')
      advance();
    if (std::isdigit(static_cast<unsigned char>(peek()))) {
      IsDouble = true;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        advance();
    } else {
      Pos = Save; // Not an exponent after all.
    }
  }
  std::string Text = Source.substr(Start, Pos - Start);
  Token T;
  T.Loc = Loc;
  if (IsDouble) {
    T.Kind = TokKind::DoubleLiteral;
    T.DoubleValue = std::strtod(Text.c_str(), nullptr);
  } else {
    T.Kind = TokKind::IntLiteral;
    errno = 0;
    char *End = nullptr;
    T.IntValue = std::strtoll(Text.c_str(), &End, 10);
    // Without this check strtoll silently saturates to LLONG_MAX, turning
    // an out-of-range literal into a wrong-but-running program.
    if (errno == ERANGE || End != Text.c_str() + Text.size())
      Diags.error(Loc, "integer literal '" + Text + "' is out of range");
  }
  return T;
}

Token Lexer::lexIdentifier(SourceLoc Loc) {
  static const std::map<std::string, TokKind> Keywords = {
      {"int", TokKind::KwInt},       {"double", TokKind::KwDouble},
      {"void", TokKind::KwVoid},     {"struct", TokKind::KwStruct},
      {"local", TokKind::KwLocal},   {"shared", TokKind::KwShared},
      {"if", TokKind::KwIf},         {"else", TokKind::KwElse},
      {"while", TokKind::KwWhile},   {"do", TokKind::KwDo},
      {"for", TokKind::KwFor},       {"forall", TokKind::KwForall},
      {"switch", TokKind::KwSwitch}, {"case", TokKind::KwCase},
      {"default", TokKind::KwDefault}, {"break", TokKind::KwBreak},
      {"return", TokKind::KwReturn}, {"sizeof", TokKind::KwSizeof},
      {"NULL", TokKind::KwNull}};

  size_t Start = Pos;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    advance();
  std::string Text = Source.substr(Start, Pos - Start);
  Token T;
  T.Loc = Loc;
  auto It = Keywords.find(Text);
  if (It != Keywords.end()) {
    T.Kind = It->second;
  } else {
    T.Kind = TokKind::Identifier;
    T.Text = std::move(Text);
  }
  return T;
}

Token Lexer::next() {
  // Bad characters are diagnosed and skipped by looping, not recursing, so a
  // flood of them costs no stack.
  for (;;) {
    skipWhitespaceAndComments();
    SourceLoc Loc = here();
    if (atEnd())
      return makeToken(TokKind::Eof, Loc);
    char C = peek();
    if (C == '\0') {
      skipChar();
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C)))
      return lexNumber(Loc);
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
      return lexIdentifier(Loc);

    advance();
    switch (C) {
    case '{':
      return makeToken(match('^') ? TokKind::LBraceCaret : TokKind::LBrace,
                       Loc);
    case '^':
      if (match('}'))
        return makeToken(TokKind::CaretRBrace, Loc);
      Diags.error(Loc, "unexpected '^' (did you mean '^}' ?)");
      continue;
    case '}':
      return makeToken(TokKind::RBrace, Loc);
    case '(':
      return makeToken(TokKind::LParen, Loc);
    case ')':
      return makeToken(TokKind::RParen, Loc);
    case ';':
      return makeToken(TokKind::Semi, Loc);
    case ',':
      return makeToken(TokKind::Comma, Loc);
    case '.':
      return makeToken(TokKind::Dot, Loc);
    case '*':
      return makeToken(TokKind::Star, Loc);
    case '&':
      return makeToken(match('&') ? TokKind::AmpAmp : TokKind::Amp, Loc);
    case '|':
      if (match('|'))
        return makeToken(TokKind::PipePipe, Loc);
      Diags.error(Loc, "bitwise '|' is not supported in EARTH-C");
      continue;
    case '+':
      return makeToken(TokKind::Plus, Loc);
    case '-':
      return makeToken(match('>') ? TokKind::Arrow : TokKind::Minus, Loc);
    case '/':
      return makeToken(TokKind::Slash, Loc);
    case '%':
      return makeToken(TokKind::Percent, Loc);
    case '<':
      return makeToken(match('=') ? TokKind::LessEq : TokKind::Less, Loc);
    case '>':
      return makeToken(match('=') ? TokKind::GreaterEq : TokKind::Greater,
                       Loc);
    case '=':
      return makeToken(match('=') ? TokKind::EqEq : TokKind::Eq, Loc);
    case '!':
      return makeToken(match('=') ? TokKind::NotEq : TokKind::Bang, Loc);
    case '@':
      return makeToken(TokKind::At, Loc);
    case ':':
      return makeToken(TokKind::Colon, Loc);
    default: {
      // Bytes outside printable ASCII are spelled by code, so the message
      // stays valid UTF-8 (a serve response quotes it) and no control byte
      // reaches a terminal raw.
      unsigned char U = static_cast<unsigned char>(C);
      char Spelled[8];
      std::snprintf(Spelled, sizeof(Spelled),
                    U >= 0x20 && U <= 0x7e ? "%c" : "\\x%02x", U);
      Diags.error(Loc, std::string("unexpected character '") + Spelled + "'");
      continue;
    }
    }
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  for (;;) {
    Token T = next();
    bool Done = T.is(TokKind::Eof);
    Tokens.push_back(std::move(T));
    if (Done)
      return Tokens;
  }
}
