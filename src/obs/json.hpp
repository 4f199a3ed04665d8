// Minimal JSON document model for the observability layer.
//
// The telemetry exporters (metrics snapshots, run reports, trace files) need
// a dependency-free way to *write* well-formed JSON with a stable key order,
// and the test suite needs to *parse* those artifacts back to verify them.
// This is deliberately small: numbers are doubles (with exact round-trip for
// 64-bit-safe integers), objects preserve insertion order, and parse errors
// throw std::runtime_error with an offset.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace specomp::obs {

class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered object: key order in the emitted document is the
  /// order of set() calls, which keeps report schemas diffable.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(long i) : value_(static_cast<double>(i)) {}
  Json(long long i) : value_(static_cast<double>(i)) {}
  Json(unsigned u) : value_(static_cast<double>(u)) {}
  Json(unsigned long u) : value_(static_cast<double>(u)) {}
  Json(unsigned long long u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_double() const { return std::get<double>(value_); }
  /// Integer views truncate toward zero; a number outside the target
  /// type's range throws std::runtime_error.
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  /// Appends to an array value (converts a null value to an array first).
  void push_back(Json v);
  /// Sets `key` on an object value (converts a null value to an object
  /// first); overwrites an existing key in place, preserving its position.
  void set(std::string_view key, Json v);
  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const noexcept;
  /// Object member access; throws std::runtime_error when absent.
  const Json& at(std::string_view key) const;

  /// Serialises the document.  indent < 0 produces one line; indent >= 0
  /// pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Throws std::runtime_error with a byte offset on malformed input,
  /// including arrays/objects nested deeper than kMaxParseDepth.
  static Json parse(std::string_view text);

  /// Nesting bound for parse(): the parser recurses once per level, so an
  /// unbounded depth would let a hostile line exhaust the stack.  Every
  /// document this project writes nests fewer than ten levels.
  static constexpr int kMaxParseDepth = 256;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Escapes and quotes `s` as a JSON string literal.
std::string json_quote(std::string_view s);

/// Formats a double as a JSON number: integers exactly, non-finite values as
/// null (JSON has no NaN/Inf), everything else round-trippable.
std::string json_number(double v);

}  // namespace specomp::obs
