//===- Json.h - Minimal JSON value, parser and writer -----------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON layer for the service protocol: `earthcc --serve` reads one
/// request object per line and answers one response object per line, and
/// the load client parses those responses back. The project already *emits*
/// JSON in several places by hand (trace sinks, profile reports); this adds
/// the missing direction — parsing — plus an escaping writer, with no
/// third-party dependency.
///
/// The value model is deliberately tiny: null, bool, number, string, array,
/// object (insertion-ordered key list, first occurrence wins on lookup).
/// A number is a double, and an integer literal or Value::integer() also
/// keeps its exact int64_t, so a program's integer arguments and exit
/// values cross the protocol exactly, beyond the 53 bits a double holds.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_JSON_H
#define EARTHCC_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace earthcc {
namespace json {

class Value;

/// Object members in insertion order (duplicate keys are preserved on
/// parse; lookup returns the first).
using Member = std::pair<std::string, Value>;

/// One JSON value.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool B);
  static Value number(double D);
  /// An exact integer: asInt64() and str() give \p I itself, asNumber() the
  /// nearest double.
  static Value integer(int64_t I);
  static Value string(std::string S);
  static Value array();
  static Value object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  /// The number as an int64_t: the exact integer when the value holds one,
  /// else set only when the double is integral and in [-2^63, 2^63); the
  /// one conversion for numbers from outside the program, since casting
  /// any other double to an integer is undefined.
  std::optional<int64_t> asInt64() const;
  const std::string &asString() const { return Str; }
  const std::vector<Value> &items() const { return Items; }
  const std::vector<Member> &members() const { return Members; }

  std::vector<Value> &items() { return Items; }
  std::vector<Member> &members() { return Members; }

  /// First member named \p Key, or null if absent (only meaningful on
  /// objects; returns null for every other kind).
  const Value *find(std::string_view Key) const;

  /// Convenience typed lookups with defaults, for protocol fields.
  bool getBool(std::string_view Key, bool Default) const;
  double getNumber(std::string_view Key, double Default) const;
  std::string getString(std::string_view Key,
                        const std::string &Default) const;

  /// Serializes compactly (no whitespace). Strings are escaped per RFC
  /// 8259; exact integers print in full, doubles that hold exact integers
  /// print without a fraction so ids round-trip textually, and a non-finite
  /// number prints as null (RFC 8259 has no inf or nan).
  std::string str() const;

private:
  Kind K = Kind::Null;
  bool B = false;
  bool IsInt = false; ///< Int holds the number exactly.
  double Num = 0.0;
  int64_t Int = 0;
  std::string Str;
  std::vector<Value> Items;
  std::vector<Member> Members;
};

/// Escapes \p S for inclusion in a JSON string literal (no surrounding
/// quotes). Control characters below 0x20 become \u00XX.
std::string escape(std::string_view S);

/// Renders \p S as a quoted, escaped JSON string literal.
std::string quote(std::string_view S);

/// Parses \p Text as one JSON value. Returns false with \p Err set (byte
/// offset + message) on malformed input or trailing garbage.
bool parse(std::string_view Text, Value &Out, std::string &Err);

} // namespace json
} // namespace earthcc

#endif // EARTHCC_SUPPORT_JSON_H
