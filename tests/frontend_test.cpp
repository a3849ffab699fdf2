//===- frontend_test.cpp - Lexer/Parser/Simplify tests ---------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Simplify.h"
#include "simple/Printer.h"
#include "simple/Verifier.h"

#include "DeepNesting.h"

#include <gtest/gtest.h>

using namespace earthcc;

namespace {

std::vector<Token> lex(const std::string &Src, DiagnosticsEngine &Diags) {
  Lexer L(Src, Diags);
  return L.lexAll();
}

std::unique_ptr<Module> compileOK(const std::string &Src) {
  DiagnosticsEngine Diags;
  auto M = compileToSimple(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  return M;
}

//===----------------------------------------------------------------------===//
// Lexer.
//===----------------------------------------------------------------------===//

TEST(LexerTest, BasicTokens) {
  DiagnosticsEngine Diags;
  auto Toks = lex("int x = p->next;", Diags);
  ASSERT_EQ(Toks.size(), 8u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokKind::Identifier);
  EXPECT_EQ(Toks[1].Text, "x");
  EXPECT_EQ(Toks[2].Kind, TokKind::Eq);
  EXPECT_EQ(Toks[3].Kind, TokKind::Identifier);
  EXPECT_EQ(Toks[4].Kind, TokKind::Arrow);
  EXPECT_EQ(Toks[5].Kind, TokKind::Identifier);
  EXPECT_EQ(Toks[6].Kind, TokKind::Semi);
  EXPECT_EQ(Toks[7].Kind, TokKind::Eof);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, ParallelSequenceBrackets) {
  DiagnosticsEngine Diags;
  auto Toks = lex("{^ x ^} { }", Diags);
  EXPECT_EQ(Toks[0].Kind, TokKind::LBraceCaret);
  EXPECT_EQ(Toks[2].Kind, TokKind::CaretRBrace);
  EXPECT_EQ(Toks[3].Kind, TokKind::LBrace);
  EXPECT_EQ(Toks[4].Kind, TokKind::RBrace);
}

TEST(LexerTest, NumbersAndComments) {
  DiagnosticsEngine Diags;
  auto Toks = lex("// line comment\n42 3.5 1e3 /* block\n */ 7", Diags);
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Kind, TokKind::IntLiteral);
  EXPECT_EQ(Toks[0].IntValue, 42);
  EXPECT_EQ(Toks[1].Kind, TokKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(Toks[1].DoubleValue, 3.5);
  EXPECT_EQ(Toks[2].Kind, TokKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(Toks[2].DoubleValue, 1000.0);
  EXPECT_EQ(Toks[3].IntValue, 7);
}

TEST(LexerTest, OperatorsAndLocations) {
  DiagnosticsEngine Diags;
  auto Toks = lex("<= >= == != && || @", Diags);
  EXPECT_EQ(Toks[0].Kind, TokKind::LessEq);
  EXPECT_EQ(Toks[1].Kind, TokKind::GreaterEq);
  EXPECT_EQ(Toks[2].Kind, TokKind::EqEq);
  EXPECT_EQ(Toks[3].Kind, TokKind::NotEq);
  EXPECT_EQ(Toks[4].Kind, TokKind::AmpAmp);
  EXPECT_EQ(Toks[5].Kind, TokKind::PipePipe);
  EXPECT_EQ(Toks[6].Kind, TokKind::At);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Col, 4u);
}

TEST(LexerTest, ReportsBadCharacters) {
  DiagnosticsEngine Diags;
  lex("int $x;", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

// Recovery from bad characters must run in constant stack however long the
// flood is: at one stack frame per character, ~50k of them overflow it.
TEST(LexerTest, FloodOfBadCharactersEndsInDiagnostics) {
  const size_t N = 200000;
  std::string Src;
  for (size_t I = 0; I != N; ++I)
    Src += "#^|"[I % 3];
  Src += "\nint main() { return 0; }";
  DiagnosticsEngine Diags;
  auto Toks = lex(Src, Diags);
  EXPECT_EQ(Diags.errorCount(), N);
  ASSERT_FALSE(Diags.all().empty());
  EXPECT_EQ(Diags.all()[0].str(), "1:1: error: unexpected character '#'");
  // The valid program after the flood still lexes: int main ( ) { return
  // 0 ; } plus Eof.
  ASSERT_EQ(Toks.size(), 10u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[0].Loc.Line, 2u);
}

// peek() reads '\0' at the end of input, so an embedded NUL byte must be
// told apart from it and diagnosed at the byte, wherever it appears —
// otherwise it silently ends the source.
TEST(LexerTest, NulByteIsALocatedError) {
  using namespace std::string_literals;
  // Truncated at the NUL, this would compile and return 7.
  DiagnosticsEngine Trailing;
  compileToSimple("int main(){return 7;}\0garbage"s, Trailing);
  ASSERT_TRUE(Trailing.hasErrors());
  EXPECT_EQ(Trailing.all()[0].str(), "1:22: error: null character in source");

  // Truncated, this would hide main ("entry function 'main' not found").
  DiagnosticsEngine Hidden;
  compileToSimple("int helper(){return 1;}\0int main(){return 7;}"s, Hidden);
  ASSERT_TRUE(Hidden.hasErrors());
  EXPECT_EQ(Hidden.all()[0].str(), "1:24: error: null character in source");
  EXPECT_EQ(Hidden.errorCount(), 1u) << Hidden.str();

  // Inside comments too; neither comment is cut short by it.
  DiagnosticsEngine InComments;
  auto Toks = lex("// a\0b\nx /* c\0d */ y"s, InComments);
  EXPECT_EQ(InComments.str(), "1:5: error: null character in source\n"
                              "2:7: error: null character in source\n");
  ASSERT_EQ(Toks.size(), 3u); // x y Eof
  EXPECT_EQ(Toks[0].Text, "x");
  EXPECT_EQ(Toks[1].Text, "y");
}

// A diagnostic quotes the offending byte, and a serve response carries the
// diagnostic, so bytes outside printable ASCII are spelled by code: quoted
// raw, each byte of the UTF-8 'ÿ' would land alone in the response and make
// it invalid UTF-8, and control bytes would reach the terminal.
TEST(LexerTest, NonPrintableBytesAreSpelledByCode) {
  DiagnosticsEngine Diags;
  lex("int \xc3\xbf; x\x7f\x01$", Diags);
  EXPECT_EQ(Diags.str(), "1:5: error: unexpected character '\\xc3'\n"
                         "1:6: error: unexpected character '\\xbf'\n"
                         "1:10: error: unexpected character '\\x7f'\n"
                         "1:11: error: unexpected character '\\x01'\n"
                         "1:12: error: unexpected character '$'\n");
}

TEST(LexerTest, UnterminatedComment) {
  DiagnosticsEngine Diags;
  lex("/* never closed", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

// strtoll saturates out-of-range literals to LLONG_MAX without setting an
// error token, so the lexer must check errno itself — otherwise the
// program runs with a silently wrong constant.
TEST(LexerTest, IntLiteralOutOfRangeIsAnError) {
  DiagnosticsEngine Diags;
  lex("x = 99999999999999999999;", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("out of range"), std::string::npos)
      << Diags.str();
  EXPECT_NE(Diags.str().find("99999999999999999999"), std::string::npos)
      << Diags.str();
}

TEST(LexerTest, IntLiteralBoundary) {
  // INT64_MAX itself lexes fine...
  DiagnosticsEngine Diags;
  auto Toks = lex("9223372036854775807", Diags);
  ASSERT_EQ(Toks.size(), 2u); // literal + EOF
  EXPECT_EQ(Toks[0].Kind, TokKind::IntLiteral);
  EXPECT_EQ(Toks[0].IntValue, INT64_MAX);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();

  // ...but one past it is the first out-of-range value.
  DiagnosticsEngine Overflow;
  lex("9223372036854775808", Overflow);
  EXPECT_TRUE(Overflow.hasErrors());
}

//===----------------------------------------------------------------------===//
// Parser.
//===----------------------------------------------------------------------===//

TEST(ParserTest, StructAndFunction) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int value; struct node *next; };\n"
               "int count(struct node *head) { return 0; }",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Unit.Structs.size(), 1u);
  EXPECT_EQ(Unit.Structs[0].Fields.size(), 2u);
  ASSERT_EQ(Unit.Functions.size(), 1u);
  EXPECT_EQ(Unit.Functions[0].Params.size(), 1u);
}

TEST(ParserTest, BareStructNameAsType) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; };\n"
               "int f(node *p) { node *q; q = p; return q->v; }",
               Diags),
           Diags);
  P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, LocalQualifierPlacement) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; };\n"
               "int f(node local *p, node *local q) { return 0; }",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Unit.Functions[0].Params.size(), 2u);
  EXPECT_TRUE(Unit.Functions[0].Params[0].Type.LocalQual);
  EXPECT_TRUE(Unit.Functions[0].Params[1].Type.LocalQual);
}

TEST(ParserTest, CallPlacementAnnotations) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; };\n"
               "int g(node *p) { return 0; }\n"
               "void f(node *p) {\n"
               "  int a, b, c;\n"
               "  a = g(p)@OWNER_OF(p);\n"
               "  b = g(p)@node(3);\n"
               "  c = g(p)@HOME;\n"
               "}",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, ForallAndParallelBlocks) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; struct node *next; };\n"
               "void f(node *head) {\n"
               "  node *p;\n"
               "  forall (p = head; p != NULL; p = p->next) {\n"
               "    int x; x = p->v;\n"
               "  }\n"
               "  {^ f(head); f(head); ^}\n"
               "}",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, SwitchWithBreaks) {
  DiagnosticsEngine Diags;
  Parser P(lex("int f(int q) {\n"
               "  int r;\n"
               "  switch (q) {\n"
               "  case 0: r = 1; break;\n"
               "  case 1: r = 2; break;\n"
               "  default: r = 3; break;\n"
               "  }\n"
               "  return r;\n"
               "}",
               Diags),
           Diags);
  P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, RecoversFromErrors) {
  DiagnosticsEngine Diags;
  Parser P(lex("int f() { return 0 }\nint g() { return 1; }", Diags), Diags);
  auto Unit = P.parseUnit();
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Unit.Functions.size(), 2u); // Both functions still parsed.
}

// Every nesting shape compiles at Parser::MaxNestingDepth. One level past
// it, and 200,000 levels past it, the parser reports one located error at
// the first level too deep and builds nothing deeper, so neither it nor a
// pass recursing over its tree can overflow the stack.
TEST(ParserTest, NestingLimit) {
  const size_t Limit = Parser::MaxNestingDepth;
  ASSERT_EQ(Limit, 256u);
  for (const DeepShape &S : DeepShapes) {
    SCOPED_TRACE(S.Name);
    compileOK(S.program(Limit));
    for (size_t N : {Limit + 1, size_t(200000)}) {
      DiagnosticsEngine Diags;
      compileToSimple(S.program(N), Diags);
      EXPECT_EQ(Diags.str(),
                "1:" + std::to_string(S.column(Limit + 1)) +
                    ": error: nesting exceeds the limit of 256 levels\n")
          << "at " << N << " levels";
    }
  }
}

//===----------------------------------------------------------------------===//
// Simplify: lowering into SIMPLE three-address form.
//===----------------------------------------------------------------------===//

/// The paper's Figure 3(a): every indirect reference must become its own
/// basic statement with at most one remote read.
TEST(SimplifyTest, DistanceBecomesThreeAddress) {
  auto M = compileOK(R"(
    struct Point { double x; double y; };
    double distance(Point *p) {
      double dist_p;
      dist_p = sqrt((p->x * p->x) + (p->y * p->y));
      return dist_p;
    }
  )");
  Function *F = M->findFunction("distance");
  ASSERT_NE(F, nullptr);

  int RemoteReads = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (A->isRemoteRead())
        ++RemoteReads;
  });
  // Four loads of p->x / p->y, exactly as the paper's Figure 3(b).
  EXPECT_EQ(RemoteReads, 4);
}

TEST(SimplifyTest, LocalQualifierSuppressesRemote) {
  auto M = compileOK(R"(
    struct Point { double x; double y; };
    double get(Point local *p) {
      double v;
      v = p->x;
      return v;
    }
  )");
  Function *F = M->findFunction("get");
  int RemoteReads = 0, LocalReads = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S)) {
      if (const auto *L = dynCast<LoadRV>(A->R.get())) {
        if (L->isRemote())
          ++RemoteReads;
        else
          ++LocalReads;
      }
    }
  });
  EXPECT_EQ(RemoteReads, 0);
  EXPECT_EQ(LocalReads, 1);
}

TEST(SimplifyTest, NestedStructOffsets) {
  auto M = compileOK(R"(
    struct D { double P; double Q; };
    struct branch { double R; D d; double alpha; };
    double f(branch *br) {
      double v;
      v = br->d.Q;
      return v;
    }
  )");
  Function *F = M->findFunction("f");
  const LoadRV *Load = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (const auto *L = dynCast<LoadRV>(A->R.get()))
        Load = L;
  });
  ASSERT_NE(Load, nullptr);
  EXPECT_EQ(Load->OffsetWords, 2u); // R at 0, d.P at 1, d.Q at 2.
  EXPECT_EQ(Load->FieldName, "d.Q");
}

TEST(SimplifyTest, ChainedArrowsSplit) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int f(node *p) {
      int x;
      x = p->next->next->v;
      return x;
    }
  )");
  Function *F = M->findFunction("f");
  int Loads = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (dynCast<LoadRV>(A->R.get()))
        ++Loads;
  });
  EXPECT_EQ(Loads, 3); // next, next, v — one indirection per statement.
}

TEST(SimplifyTest, ShortCircuitAnd) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int f(node *p) {
      int r;
      r = 0;
      if (p != NULL && p->v > 3) {
        r = 1;
      }
      return r;
    }
  )");
  // The load p->v must be guarded by the null check: it must appear inside
  // an IfStmt, not before it.
  Function *F = M->findFunction("f");
  bool LoadInsideIf = false;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *If = dynCastStmt<IfStmt>(&S)) {
      forEachStmt(*If->Then, [&](const Stmt &Inner) {
        if (const auto *A = dynCastStmt<AssignStmt>(&Inner))
          if (dynCast<LoadRV>(A->R.get()))
            LoadInsideIf = true;
      });
    }
  });
  EXPECT_TRUE(LoadInsideIf);
}

TEST(SimplifyTest, WhileWithComplexCondition) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int sum(node *p) {
      int s;
      s = 0;
      while (p != NULL) {
        s = s + p->v;
        p = p->next;
      }
      return s;
    }
  )");
  Function *F = M->findFunction("sum");
  // The loop condition `p != NULL` is simple: it must remain a While cond.
  const WhileStmt *W = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *WS = dynCastStmt<WhileStmt>(&S))
      W = WS;
  });
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->Cond->kind(), RValueKind::Binary);
}

TEST(SimplifyTest, SharedCounterViaAtomics) {
  auto M = compileOK(R"(
    struct node { int value; struct node *next; };
    int count(node *head, node *x) {
      shared int cnt;
      node *p;
      int v;
      writeto(&cnt, 0);
      forall (p = head; p != NULL; p = p->next) {
        if (p->value == 7) {
          addto(&cnt, 1);
        }
      }
      v = valueof(&cnt);
      return v;
    }
  )");
  Function *F = M->findFunction("count");
  int Atomics = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (S.kind() == StmtKind::Atomic)
      ++Atomics;
  });
  EXPECT_EQ(Atomics, 3);
}

TEST(SimplifyTest, PMallocTakesTargetType) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    node *make(int where) {
      node *p;
      p = pmalloc(sizeof(node))@node(where);
      p->v = 0;
      p->next = NULL;
      return p;
    }
  )");
  Function *F = M->findFunction("make");
  const CallStmt *Call = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *C = dynCastStmt<CallStmt>(&S))
      Call = C;
  });
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->Intrin, Intrinsic::PMalloc);
  ASSERT_NE(Call->Result, nullptr);
  EXPECT_TRUE(Call->Result->type()->isPointer());
  EXPECT_EQ(Call->Placement, CallPlacement::AtNode);
  ASSERT_EQ(Call->Args.size(), 1u);
  ASSERT_TRUE(Call->Args[0].isConst());
  EXPECT_EQ(Call->Args[0].getConst().I, 2);
}

TEST(SimplifyTest, ParallelSequenceLowersToParSeq) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int work(node *p) { return 1; }
    int f(node *head, node *x) {
      int c1, c2;
      {^
        c1 = work(head)@OWNER_OF(x);
        c2 = f(head, x);
      ^}
      return c1 + c2;
    }
  )");
  Function *F = M->findFunction("f");
  const SeqStmt *Par = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *Seq = dynCastStmt<SeqStmt>(&S))
      if (Seq->Parallel)
        Par = Seq;
  });
  ASSERT_NE(Par, nullptr);
  EXPECT_EQ(Par->size(), 2u);
}

TEST(SimplifyTest, ForLoopLowersToWhile) {
  auto M = compileOK(R"(
    int f(int n) {
      int i, s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        s = s + i;
      }
      return s;
    }
  )");
  Function *F = M->findFunction("f");
  bool HasWhile = false;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (S.kind() == StmtKind::While)
      HasWhile = true;
  });
  EXPECT_TRUE(HasWhile);
}

TEST(SimplifyTest, IntDoublePromotion) {
  auto M = compileOK(R"(
    double f(int a, double b) {
      double r;
      r = a + b;
      return r;
    }
  )");
  Function *F = M->findFunction("f");
  bool HasConversion = false;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (const auto *U = dynCast<UnaryRV>(A->R.get()))
        if (U->Op == UnaryOp::IntToDouble)
          HasConversion = true;
  });
  EXPECT_TRUE(HasConversion);
}

TEST(SimplifyTest, ConstantFoldingAtInt64Boundaries) {
  // Compile-time folds must match the engines' defined semantics: unary
  // minus wraps (interp::wrapSub) and double->int saturates with NaN -> 0
  // (interp::doubleToIntSat). The bare `-I` / `static_cast<int64_t>(D)`
  // folds were UB on exactly these boundary literals — under UBSan this
  // test trapped before the folds were routed through the helpers.
  auto M = compileOK(R"(
    int main() {
      int hi; int lo; int edge;
      hi = 1e300;
      lo = -1e300;
      edge = -9223372036854775807;
      return hi + lo + edge;
    }
  )");
  std::string IR = printModule(*M);
  // 1e300 saturates to INT64_MAX; -1e300 (folded through the double Neg
  // first) saturates to INT64_MIN.
  EXPECT_NE(IR.find("= 9223372036854775807"), std::string::npos) << IR;
  EXPECT_NE(IR.find("= -9223372036854775808"), std::string::npos) << IR;
  EXPECT_NE(IR.find("= -9223372036854775807"), std::string::npos) << IR;
}

/// Pins the SIMPLE text and statement locations of every assignment shape
/// whose value can land straight in its target: calls whose return type
/// matches the target and calls whose type does not, pmalloc (typed by its
/// target), my_node/isqrt/sqrt into int and double, valueof (a temp, then a
/// copy), remote loads and struct-field reads, arithmetic and comparisons,
/// each into a matching and a mismatched target, and &&, unary - and !.
/// Comm sites are keyed by statement locations, and profile rows and
/// remarks by the sites, so the locations are identity, not style.
TEST(SimplifyTest, AssignmentShapesLandAsBefore) {
  auto M = compileOK(R"(
    struct pt { int a; double b; };
    struct node { int v; double w; struct node *next; };
    int geti(int x) { return x + 1; }
    double getd(double x) { return x * 2.0; }
    int main() {
      struct node *p;
      struct pt s;
      shared int c;
      int i; int j;
      double d; double e;
      p = pmalloc(sizeof(node));
      p->v = 3;
      p->w = 1.5;
      s.a = 5;
      s.b = 2.5;
      i = geti(2);
      d = geti(3);
      e = getd(d);
      i = getd(e);
      i = my_node();
      d = my_node();
      i = isqrt(17);
      d = isqrt(17);
      i = sqrt(2.0);
      d = sqrt(2.0);
      writeto(&c, 4);
      i = valueof(&c);
      i = p->v;
      d = p->v;
      e = p->w;
      i = p->w;
      i = s.a;
      d = s.a;
      j = i + 1;
      d = i + 1;
      e = d * 2.0;
      i = d * 2.0;
      j = i < 3;
      d = i < 3;
      j = p == NULL;
      j = i && j;
      j = -i;
      e = -d;
      j = !i;
      return i + j;
    }
  )");
  EXPECT_EQ(printModule(*M), R"(
int geti(int x) {
  int temp1;
  S2: temp1 = x + 1;
  S3: return temp1;
}

double getd(double x) {
  double temp1;
  S2: temp1 = x * 2.0;
  S3: return temp1;
}

int main() {
  struct node * p;
  struct pt s;
  int c; // shared
  int i;
  int j;
  double d;
  double e;
  int temp1;
  double temp2;
  double temp3;
  int temp4;
  int temp5;
  double temp6;
  int temp7;
  double temp8;
  double temp9;
  int temp10;
  int temp11;
  int temp12;
  double temp13;
  double temp14;
  int temp15;
  int temp16;
  double temp17;
  int temp18;
  double temp19;
  double temp20;
  int temp21;
  int temp22;
  double temp23;
  int temp24;
  int temp25;
  double temp26;
  int temp27;
  int temp28;
  S2: p = pmalloc(3);
  S3: p->v{r} = 3;
  S4: p->w{r} = 1.5;
  S5: s.a = 5;
  S6: s.b = 2.5;
  S7: i = geti(2);
  S8: temp1 = geti(3);
  S9: temp2 = (double)temp1;
  S10: d = temp2;
  S11: e = getd(d);
  S12: temp3 = getd(e);
  S13: temp4 = (int)temp3;
  S14: i = temp4;
  S15: i = my_node();
  S16: temp5 = my_node();
  S17: temp6 = (double)temp5;
  S18: d = temp6;
  S19: i = isqrt(17);
  S20: temp7 = isqrt(17);
  S21: temp8 = (double)temp7;
  S22: d = temp8;
  S23: temp9 = sqrt(2.0);
  S24: temp10 = (int)temp9;
  S25: i = temp10;
  S26: d = sqrt(2.0);
  S27: writeto(&c, 4);
  S28: temp11 = valueof(&c);
  S29: i = temp11;
  S30: i = p->v{r};
  S31: temp12 = p->v{r};
  S32: temp13 = (double)temp12;
  S33: d = temp13;
  S34: e = p->w{r};
  S35: temp14 = p->w{r};
  S36: temp15 = (int)temp14;
  S37: i = temp15;
  S38: i = s.a;
  S39: temp16 = s.a;
  S40: temp17 = (double)temp16;
  S41: d = temp17;
  S42: j = i + 1;
  S43: temp18 = i + 1;
  S44: temp19 = (double)temp18;
  S45: d = temp19;
  S46: e = d * 2.0;
  S47: temp20 = d * 2.0;
  S48: temp21 = (int)temp20;
  S49: i = temp21;
  S50: j = i < 3;
  S51: temp22 = i < 3;
  S52: temp23 = (double)temp22;
  S53: d = temp23;
  S54: j = p == 0;
  S55: temp24 = 0;
  S56: if (i) {
    S58: if (j) {
      S60: temp24 = 1;
    }
  }
  S63: j = temp24;
  S64: temp25 = -i;
  S65: j = temp25;
  S66: temp26 = -d;
  S67: e = temp26;
  S68: temp27 = !i;
  S69: j = temp27;
  S70: temp28 = i + j;
  S71: return temp28;
}
)");
  std::string Locs;
  for (const auto &F : M->functions()) {
    Locs += F->name() + ":";
    forEachStmt(F->body(), [&](const Stmt &S) {
      Locs += " S" + std::to_string(S.label()) + "@" + S.loc().str();
    });
    Locs += "\n";
  }
  EXPECT_EQ(Locs,
            "geti: S1@<unknown> S2@4:32 S3@4:23\n"
            "getd: S1@<unknown> S2@5:38 S3@5:29\n"
            "main: S1@<unknown> S2@12:18 S3@13:8 S4@14:8 S5@15:8 S6@16:8"
            " S7@17:15 S8@18:15 S9@18:7 S10@18:7 S11@19:15 S12@20:15 S13@20:7"
            " S14@20:7 S15@21:18 S16@22:18 S17@22:7 S18@22:7 S19@23:16"
            " S20@24:16 S21@24:7 S22@24:7 S23@25:15 S24@25:7 S25@25:7 S26@26:15"
            " S27@27:14 S28@28:18 S29@28:7 S30@29:7 S31@30:12 S32@30:7 S33@30:7"
            " S34@31:7 S35@32:12 S36@32:7 S37@32:7 S38@33:7 S39@34:12 S40@34:7"
            " S41@34:7 S42@35:7 S43@36:7 S44@36:7 S45@36:7 S46@37:7 S47@38:7"
            " S48@38:7 S49@38:7 S50@39:7 S51@40:7 S52@40:7 S53@40:7 S54@41:7"
            " S55@42:13 S56@<unknown> S57@<unknown> S58@<unknown> S59@<unknown>"
            " S60@42:13 S61@<unknown> S62@<unknown> S63@42:7 S64@43:11 S65@43:7"
            " S66@44:11 S67@44:7 S68@45:11 S69@45:7 S70@46:16 S71@46:7\n");
}

//===----------------------------------------------------------------------===//
// Semantic errors.
//===----------------------------------------------------------------------===//

TEST(SemaErrorTest, UndeclaredIdentifier) {
  DiagnosticsEngine Diags;
  compileToSimple("int f() { return missing; }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, UnknownField) {
  DiagnosticsEngine Diags;
  compileToSimple("struct node { int v; };\n"
                  "int f(node *p) { return p->w; }",
                  Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, SharedNeedsAtomics) {
  DiagnosticsEngine Diags;
  compileToSimple("int f() { shared int s; s = 3; return 0; }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, WrongArgCount) {
  DiagnosticsEngine Diags;
  compileToSimple("int g(int a, int b) { return a; }\n"
                  "int f() { return g(1); }",
                  Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

/// Compiles \p Src and expects exactly one diagnostic, \p Expected
/// ("line:col: error: message").
void expectOneError(const std::string &Src, const std::string &Expected) {
  DiagnosticsEngine Diags;
  compileToSimple(Src, Diags);
  EXPECT_EQ(Diags.errorCount(), 1u) << Src;
  EXPECT_EQ(Diags.str(), Expected + "\n") << Src;
}

/// A pointer operand allows only ==/!=, wherever the expression appears:
/// returned, assigned, tested, or on a branch that never runs.
TEST(SemaErrorTest, PointerArithmeticRejected) {
  const std::string Node = "struct node { int v; };\n";
  const std::string Msg =
      ": error: only ==/!= comparisons are defined on pointers";
  expectOneError(Node + "int f(node *p, node *q) { return p < q; }",
                 "2:36" + Msg);
  expectOneError(Node + "int main() { struct node *p; int x; p = pmalloc(1); "
                        "x = p + 1; return x; }",
                 "2:59" + Msg);
  expectOneError(Node + "int main() { struct node *p; struct node *q; "
                        "p = pmalloc(1); q = pmalloc(1); if (p < q) return 1; "
                        "return 0; }",
                 "2:84" + Msg);
  expectOneError(Node + "int main() { struct node *p; struct node *q; int x; "
                        "p = pmalloc(1); q = pmalloc(1); x = p < q; "
                        "return x; }",
                 "2:91" + Msg);
  expectOneError(Node + "int main() { struct node *p; int x; p = pmalloc(1); "
                        "x = 0; if (x) { x = p * 2; } return x; }",
                 "2:75" + Msg);
}

TEST(SemaErrorTest, RemainderRequiresIntegers) {
  const std::string Msg = ": error: '%' requires integer operands";
  expectOneError("int main() { double a; double b; double d; a = 7.0; "
                 "b = 2.0; d = a % b; return 0; }",
                 "1:68" + Msg);
  expectOneError("int main() { double a; double b; a = 7.0; b = 2.0; "
                 "if (a % b) return 1; return 0; }",
                 "1:58" + Msg);
}

/// A loop condition is typed once: its error is not repeated for the copies
/// evaluated before the loop and at the end of the body.
TEST(SemaErrorTest, LoopConditionErrorReportedOnce) {
  expectOneError("int main() { double a; int x; a = 7.5; x = 0; "
                 "while (a % 2.0) { x = x + 1; a = a - 1.0; } return x; }",
                 "1:56: error: '%' requires integer operands");
}

TEST(SemaErrorTest, NegatingAPointerRejected) {
  expectOneError("struct node { int v; };\n"
                 "int main() { struct node *p; int x; p = pmalloc(1); "
                 "x = -p; return x; }",
                 "2:57: error: '-' requires an arithmetic operand");
}

/// Each intrinsic checks its argument count at the call before lowering
/// any argument: a missing argument is a located error, not an abort, and
/// an extra one is not dropped.
TEST(SemaErrorTest, IntrinsicArgumentCounts) {
  expectOneError("int main() { int x; x = isqrt(); return x; }",
                 "1:30: error: isqrt takes one argument");
  expectOneError("int main() { int x; x = fabs(); return x; }",
                 "1:29: error: fabs takes one argument");
  expectOneError("int main() { double d; d = sqrt(1.0, 2.0); return 0; }",
                 "1:32: error: sqrt takes one argument");
  expectOneError("int main() { int x; x = my_node(5); return x; }",
                 "1:32: error: my_node takes no arguments");
  expectOneError("int main() { int x; x = num_nodes(1, 2); return x; }",
                 "1:34: error: num_nodes takes no arguments");
}

TEST(SemaErrorTest, StructSelfContainmentRejected) {
  DiagnosticsEngine Diags;
  compileToSimple("struct node { node inner; };", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace
