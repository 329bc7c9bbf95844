// Minimal JSON reader and writer.
//
// ARINC 653 systems are configured by integration-time files (the standard
// uses XML; we use JSON for the same role -- see src/config). Implemented
// from scratch around two streams: every document is written by the
// `Writer`, which appends straight to a string (the exporters, and
// Value::dump for the trees the readers build), and read by one lexer, the
// pull tokenizer `Reader`, which has two clients:
//   * parse() builds a Value tree on it -- the integration files, the
//     telemetry exports and the tools read documents this way;
//   * config::parse_candidate decodes candidate NDJSON lines straight from
//     it into model::Candidate, with no tree in between, because ingest of
//     a large candidate stream is dominated by the per-member allocations
//     a tree would make and throw away.
// Both accept the same language (// line comments allowed) and fail with
// the same messages at the same line and column.
#pragma once

#include <charconv>
#include <concepts>
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
// std::less<> lets find() look a string_view key up without building a
// std::string.
using Object = std::map<std::string, Value, std::less<>>;

/// A JSON document node. Numbers keep an exact int64 representation when the
/// literal was integral, because tick counts must not round-trip through
/// doubles.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(std::int64_t n) : data_(n) {}
  Value(double d) : data_(d) {}
  Value(std::string s) : data_(std::move(s)) {}
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

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Typed member accessors with defaults (convenience for config loading).
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Serialise with a Writer of this `indent` (< 0: compact).
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
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

/// Deepest nesting of arrays and objects the Reader accepts. Its clients
/// recurse once per level, so a deeper document is a ParseError rather
/// than a stack overflow.
inline constexpr int kMaxDepth = 256;

/// Pull tokenizer over one JSON document.
///
/// The caller walks the document in order: peek() names the next value's
/// kind, a typed read consumes it (skip_value() consumes any value,
/// checking its syntax and depth all the same), and finish() rejects
/// anything but whitespace after the document. An object is read as
///   begin_object(); while (next_key(key)) { <read or skip the value> }
/// and an array as
///   begin_array(); while (next_element()) { <read or skip the value> }
/// The first syntax error is kept with its line and column; from then on
/// every call returns false, so loops unwind without further checks and
/// error() reports what went wrong. A typed read is valid only when peek()
/// returned its kind.
class Reader {
 public:
  enum class Kind : std::uint8_t {
    kEnd,  // no value left: reading one is "unexpected end of input"
    kObject,
    kArray,
    kString,
    kNumber,  // the next byte starts no other kind; read_number() judges it
    kBool,
    kNull,
  };

  /// An integral literal keeps its exact int64; any other is a double.
  struct Number {
    bool integral{true};
    std::int64_t integer{0};
    double real{0};

    /// As Value::as_int: a double is truncated toward zero and saturated
    /// at the int64 range (NaN reads 0).
    [[nodiscard]] std::int64_t as_int() const;
  };

  explicit Reader(std::string_view text) : text_(text) {}

  /// Kind of the next value (skips whitespace and comments first).
  [[nodiscard]] Kind peek();

  bool begin_object();
  /// Steps to the next member: true with its key (unescaped; the view
  /// lasts until the next call on this reader), false at the closing
  /// brace or on error.
  bool next_key(std::string_view& key);
  bool begin_array();
  /// Steps to the next element: true if one follows, false at the
  /// closing bracket or on error.
  bool next_element();

  bool read_string(std::string& out);
  bool read_number(Number& out);
  bool read_bool(bool& out);
  bool read_null();
  bool skip_value();

  /// After the document: true if only whitespace and comments remain.
  bool finish();

  [[nodiscard]] bool failed() const { return error_.has_value(); }
  [[nodiscard]] const std::optional<ParseError>& error() const {
    return error_;
  }

 private:
  bool value_start();
  bool open(char bracket);
  /// Consumes the string at the cursor: `raw` is what stands between its
  /// quotes, `escaped` whether that holds a backslash.
  bool scan_string(std::string_view& raw, bool& escaped);
  bool literal(std::string_view word);
  bool fail(std::string_view message);
  void skip_ws();

  std::string_view text_;
  std::size_t pos_{0};
  int depth_{0};       // open arrays and objects around the current value
  bool first_{false};  // the container just opened has no member yet
  std::string scratch_;  // the last key, when it had to be unescaped
  std::optional<ParseError> error_;
};

/// Append `text` to `out` as a quoted JSON string literal: `"`, `\` and
/// control characters are escaped, other bytes (UTF-8 included) pass
/// through. The Writer's escaper; lets a hand-built line skip the Writer.
void append_string(std::string& out, std::string_view text);

/// Streaming writer, the dual of Reader: appends JSON to one string with
/// no tree in between. The caller writes values in document order:
///   w.begin_object().key("a").integer(1).key("b").begin_array()
///    .string("x").end_array().end_object();
/// Values written at the top level follow each other with no separator,
/// so NDJSON is one document per line with the caller's '\n' between.
///
/// `indent` is Value::dump's: -1 is compact; 0 and above start each member
/// on a new line indented by `indent` spaces per level and write ": "
/// after keys. "[]" and "{}" stay on one line when empty. Members come out
/// in call order; a writer that reproduces a std::map's bytes writes its
/// keys sorted.
class Writer {
 public:
  explicit Writer(std::string& out, int indent = -1)
      : out_(out), indent_(indent) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// Names the next value, which must follow.
  Writer& key(std::string_view name);
  Writer& string(std::string_view text);
  /// Any integer type but bool, in its own signedness.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& integer(T n) {
    separate();
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, n).ptr;
    out_.append(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }
  /// "%.17g"; negative zero is "-0.0" (so it reads back as a double), and
  /// NaN and +-inf, which JSON cannot spell, are null.
  Writer& real(double d);
  Writer& boolean(bool b);
  Writer& null();

 private:
  Writer& open(char bracket);
  Writer& close(char bracket);
  /// Comma and line break before a value, unless a key just placed it.
  void separate();
  void newline();

  std::string& out_;
  int indent_;
  int depth_{0};          // open arrays and objects
  bool first_{false};     // the innermost one has no member yet
  bool after_key_{false};
};

/// Parse a complete JSON document. Trailing garbage is an error.
[[nodiscard]] ParseResult parse(std::string_view text);

}  // namespace air::util::json
