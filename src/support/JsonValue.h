//===- JsonValue.h - Bounded-depth JSON parser ------------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reading half of the JSON support layer (Json.h is the writing
/// half): a small document tree plus a recursive-descent parser with an
/// explicit nesting-depth bound. The parser exists for the facilesimd wire
/// protocol, where every input byte is untrusted — a request of 100k
/// nested '[' characters must produce a structured parse error, not a
/// stack overflow — so depth, not just size, is a hard limit. Numbers
/// parse as int64 when they are integral and in range (step counts,
/// session ids), doubles otherwise; strings handle the full escape set
/// including \uXXXX (encoded back to UTF-8, surrogate pairs supported).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SUPPORT_JSONVALUE_H
#define FACILE_SUPPORT_JSONVALUE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace facile {
namespace json {

/// One parsed JSON value. Object member order is preserved; lookups return
/// the first member with a matching key.
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Int, Double, Str, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isStr() const { return K == Kind::Str; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolOr(bool Default) const { return isBool() ? B : Default; }
  /// Number coercion: Int returns the stored value, Double truncates. A
  /// double that is not finite or lies outside the int64 range has no
  /// int64 value and returns \p Default.
  int64_t intOr(int64_t Default) const {
    if (K == Kind::Int)
      return I;
    if (K == Kind::Double && D >= -0x1p63 && D < 0x1p63)
      return static_cast<int64_t>(D);
    return Default;
  }
  double doubleOr(double Default) const {
    if (K == Kind::Double)
      return D;
    if (K == Kind::Int)
      return static_cast<double>(I);
    return Default;
  }
  const std::string &strOr(const std::string &Default) const {
    return isStr() ? S : Default;
  }
  const std::string &str() const { return S; } ///< empty unless isStr()

  const std::vector<Value> &array() const { return A; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return O;
  }

  /// Object member lookup; null when this is not an object or the key is
  /// absent.
  const Value *get(std::string_view Key) const {
    if (K == Kind::Object)
      for (const auto &M : O)
        if (M.first == Key)
          return &M.second;
    return nullptr;
  }

  //===-- Construction (parser and tests) -----------------------------------
  static Value makeNull() { return Value(); }
  static Value makeBool(bool V) {
    Value R;
    R.K = Kind::Bool;
    R.B = V;
    return R;
  }
  static Value makeInt(int64_t V) {
    Value R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static Value makeDouble(double V) {
    Value R;
    R.K = Kind::Double;
    R.D = V;
    return R;
  }
  static Value makeStr(std::string V) {
    Value R;
    R.K = Kind::Str;
    R.S = std::move(V);
    return R;
  }
  static Value makeArray() {
    Value R;
    R.K = Kind::Array;
    return R;
  }
  static Value makeObject() {
    Value R;
    R.K = Kind::Object;
    return R;
  }
  std::vector<Value> &mutableArray() { return A; }
  std::vector<std::pair<std::string, Value>> &mutableMembers() { return O; }

private:
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0.0;
  std::string S;
  std::vector<Value> A;
  std::vector<std::pair<std::string, Value>> O;
};

/// Parses \p Text as exactly one JSON document (trailing whitespace
/// allowed, trailing content not). On failure returns false with a
/// one-line diagnostic (including byte offset) in \p Err and \p Out
/// unspecified. \p MaxDepth bounds container nesting; exceeding it is a
/// parse error, never deeper recursion.
bool parse(std::string_view Text, Value &Out, std::string &Err,
           unsigned MaxDepth = 32);

} // namespace json
} // namespace facile

#endif // FACILE_SUPPORT_JSONVALUE_H
