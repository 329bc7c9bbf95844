// Minimal JSON parser and writer.
//
// ARINC 653 systems are configured by integration-time files (the standard
// uses XML; we use JSON for the same role -- see src/config). Implemented
// from scratch: recursive-descent parser with line/column error reporting.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace air::util::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON document node. Numbers keep an exact int64 representation when the
/// literal was integral, because tick counts must not round-trip through
/// doubles.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(std::int64_t n) : data_(n) {}
  Value(int n) : data_(static_cast<std::int64_t>(n)) {}
  Value(double d) : data_(d) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(const char* s) : data_(std::string{s}) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(data_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }
  /// A double converts truncated toward zero, saturated at the int64
  /// range (NaN reads 0).
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(data_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(data_); }
  [[nodiscard]] Array& as_array() { return std::get<Array>(data_); }
  [[nodiscard]] Object& as_object() { return std::get<Object>(data_); }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Typed member accessors with defaults (convenience for config loading).
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Serialise; `indent` < 0 produces compact output.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

struct ParseError {
  std::string message;
  int line{0};
  int column{0};

  [[nodiscard]] std::string to_string() const;
};

struct ParseResult {
  std::optional<Value> value;
  std::optional<ParseError> error;

  [[nodiscard]] bool ok() const { return value.has_value(); }
};

/// Deepest nesting of arrays and objects parse() accepts. The parser
/// recurses once per level, so a deeper document is a ParseError rather
/// than a stack overflow.
inline constexpr int kMaxDepth = 256;

/// Append `text` to `out` as a quoted JSON string literal, escaped exactly
/// as Value::dump escapes strings; lets hand-built lines skip the Value
/// temporary.
void append_string(std::string& out, std::string_view text);

/// Parse a complete JSON document. Trailing garbage is an error.
[[nodiscard]] ParseResult parse(std::string_view text);

}  // namespace air::util::json
