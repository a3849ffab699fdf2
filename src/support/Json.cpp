//===- Json.cpp - Minimal JSON value, parser and writer --------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace earthcc;
using namespace earthcc::json;

Value Value::boolean(bool B) {
  Value V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

Value Value::number(double D) {
  Value V;
  V.K = Kind::Number;
  V.Num = D;
  return V;
}

Value Value::integer(int64_t I) {
  Value V = number(static_cast<double>(I));
  V.IsInt = true;
  V.Int = I;
  return V;
}

Value Value::string(std::string S) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.K = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.K = Kind::Object;
  return V;
}

std::optional<int64_t> Value::asInt64() const {
  if (IsInt)
    return Int;
  // Both bounds are exact doubles; NaN fails the range test.
  if (K != Kind::Number || !(Num >= -0x1p63 && Num < 0x1p63) ||
      Num != std::floor(Num))
    return std::nullopt;
  return static_cast<int64_t>(Num);
}

const Value *Value::find(std::string_view Key) const {
  for (const Member &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

bool Value::getBool(std::string_view Key, bool Default) const {
  const Value *V = find(Key);
  return V && V->isBool() ? V->asBool() : Default;
}

double Value::getNumber(std::string_view Key, double Default) const {
  const Value *V = find(Key);
  return V && V->isNumber() ? V->asNumber() : Default;
}

std::string Value::getString(std::string_view Key,
                             const std::string &Default) const {
  const Value *V = find(Key);
  return V && V->isString() ? V->asString() : Default;
}

std::string json::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

std::string json::quote(std::string_view S) {
  return "\"" + escape(S) + "\"";
}

std::string Value::str() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return B ? "true" : "false";
  case Kind::Number: {
    if (IsInt)
      return std::to_string(Int);
    if (!std::isfinite(Num))
      return "null";
    // Exact integers (the common case: ids, counts, ns) print without a
    // fraction so they round-trip textually through the protocol.
    if (Num == std::floor(Num) && std::fabs(Num) < 9.007199254740992e15) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.0f", Num);
      return Buf;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Num);
    return Buf;
  }
  case Kind::String:
    return quote(Str);
  case Kind::Array: {
    std::string Out = "[";
    for (size_t I = 0; I != Items.size(); ++I)
      Out += (I ? "," : "") + Items[I].str();
    return Out + "]";
  }
  case Kind::Object: {
    std::string Out = "{";
    for (size_t I = 0; I != Members.size(); ++I)
      Out += (I ? "," : "") + quote(Members[I].first) + ":" +
             Members[I].second.str();
    return Out + "}";
  }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over a string_view. Offsets in errors are byte
/// positions into the original text.
class Parser {
public:
  Parser(std::string_view Text, std::string &Err) : Text(Text), Err(Err) {}

  bool run(Value &Out) {
    skipWs();
    if (!value(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr int MaxDepth = 64; // protocol objects are shallow

  bool fail(const std::string &Msg) {
    Err = "offset " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return false;
    Pos += Lit.size();
    return true;
  }

  bool value(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case 'n':
      if (!literal("null"))
        return fail("invalid literal");
      Out = Value::null();
      return true;
    case 't':
      if (!literal("true"))
        return fail("invalid literal");
      Out = Value::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return fail("invalid literal");
      Out = Value::boolean(false);
      return true;
    case '"': {
      std::string S;
      if (!string(S))
        return false;
      Out = Value::string(std::move(S));
      return true;
    }
    case '[': {
      ++Pos;
      Out = Value::array();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        Value Item;
        skipWs();
        if (!value(Item, Depth + 1))
          return false;
        Out.items().push_back(std::move(Item));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated array");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']' in array");
      }
    }
    case '{': {
      ++Pos;
      Out = Value::object();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != '"')
          return fail("expected string key in object");
        std::string Key;
        if (!string(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':' after object key");
        ++Pos;
        skipWs();
        Value Item;
        if (!value(Item, Depth + 1))
          return false;
        Out.members().emplace_back(std::move(Key), std::move(Item));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated object");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}' in object");
      }
    }
    default:
      return number(Out);
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    for (;;) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      unsigned char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!hex4(Code))
          return false;
        // Surrogate pair: a high surrogate must be followed by \uDC00-DFFF.
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          if (Pos + 1 < Text.size() && Text[Pos] == '\\' &&
              Text[Pos + 1] == 'u') {
            Pos += 2;
            unsigned Low = 0;
            if (!hex4(Low))
              return false;
            if (Low < 0xDC00 || Low > 0xDFFF)
              return fail("invalid low surrogate");
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          } else {
            return fail("unpaired high surrogate");
          }
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("unpaired low surrogate");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool hex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool number(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    auto Digits = [&] {
      size_t N = 0;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
        ++Pos;
        ++N;
      }
      return N;
    };
    size_t IntStart = Pos;
    if (!Digits())
      return fail("expected value");
    if (Text[IntStart] == '0' && Pos - IntStart > 1)
      return fail("leading zeros are not permitted");
    bool Integral = true;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      Integral = false;
      if (!Digits())
        return fail("digits required after decimal point");
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      Integral = false;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!Digits())
        return fail("digits required in exponent");
    }
    std::string Num(Text.substr(Start, Pos - Start));
    // An integer literal that fits int64_t stays exact; "-0" stays a double,
    // which keeps its sign.
    if (Integral && Num != "-0") {
      errno = 0;
      long long I = std::strtoll(Num.c_str(), nullptr, 10);
      if (errno != ERANGE) {
        Out = Value::integer(I);
        return true;
      }
    }
    Out = Value::number(std::strtod(Num.c_str(), nullptr));
    return true;
  }

  std::string_view Text;
  std::string &Err;
  size_t Pos = 0;
};

} // namespace

bool json::parse(std::string_view Text, Value &Out, std::string &Err) {
  return Parser(Text, Err).run(Out);
}
