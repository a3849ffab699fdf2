//===- DeepNesting.h - Programs nested to a chosen depth --------*- C++ -*-===//
//
// Part of the earthcc project.
//
// The five nesting shapes the parser bounds (Parser::MaxNestingDepth), as
// one-line programs of any depth. frontend_test checks where the limit
// falls; pipeline_test runs programs at the limit through every stage.
//
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_TESTS_DEEPNESTING_H
#define EARTHCC_TESTS_DEEPNESTING_H

#include <cstdint>
#include <string>

namespace earthcc {

/// A program shape: Prefix, then Unit repeated N times (one nesting level
/// each), Middle, Closer repeated N times, Suffix. The whole program is on
/// line 1.
struct DeepShape {
  const char *Name;
  std::string Prefix, Unit, Middle, Closer, Suffix;
  int64_t Result; ///< What main returns when the program compiles.
  size_t Mark = 0; ///< Offset in Unit of the token a level is reported at.

  std::string program(size_t N) const {
    std::string S = Prefix;
    for (size_t I = 0; I != N; ++I)
      S += Unit;
    S += Middle;
    for (size_t I = 0; I != N; ++I)
      S += Closer;
    return S + Suffix;
  }
  /// Column at which level \p Level (1-based) is reported.
  size_t column(size_t Level) const {
    return Prefix.size() + (Level - 1) * Unit.size() + Mark + 1;
  }
};

/// Parenthesized, unary, block, folded-sum, else-if, member-chain and
/// nested-call nesting. The results hold at N = 256 (the sum has N + 1
/// terms).
inline const DeepShape DeepShapes[] = {
    {"parens", "int main() { return ", "(", "7", ")", "; }", 7},
    {"unary", "int main() { return ", "-", "7", "", "; }", 7},
    {"blocks", "int main() { int x; x = 7; ", "{", " x = x + 1; ", "}",
     " return x; }", 8},
    {"sum", "int main() { int a; a = 1; return a", "+a", "", "", "; }", 257},
    {"else-if", "int main() { int x; x = 0; ", "if (x) ; else ", "x = 7;", "",
     " return x; }", 7},
    {"member",
     "struct c { c *self; int v; }; int main() { c *p; c *q; "
     "p = pmalloc(sizeof(c))@node(0); p->self = p; p->v = 7; q = p",
     "->self", "", "", "; return q->v; }", 7},
    {"calls", "int f(int x) { return x; } int main() { return ", "f(", "7",
     ")", "; }", 7, /*Mark=*/1},
};

} // namespace earthcc

#endif // EARTHCC_TESTS_DEEPNESTING_H
