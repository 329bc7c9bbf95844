#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace air::util::json {

namespace {

[[nodiscard]] bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Saturate: casting a double outside the int64 range is undefined.
[[nodiscard]] std::int64_t saturate(double d) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (d >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  if (d < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  if (std::isnan(d)) return 0;
  return static_cast<std::int64_t>(d);
}

/// Reads the four hex digits at text[at..at+4) into `code`; false when
/// they are not all there.
bool hex4(std::string_view text, std::size_t at, unsigned& code) {
  if (text.size() < at + 4) return false;
  code = 0;
  for (std::size_t k = at; k < at + 4; ++k) {
    const char h = text[k];
    if (std::isxdigit(static_cast<unsigned char>(h)) == 0) return false;
    code = code * 16 +
           static_cast<unsigned>(h <= '9' ? h - '0'
                                          : (std::tolower(h) - 'a' + 10));
  }
  return true;
}

/// Checks the escaped code point whose four hex digits end at text[at] and
/// begin with 'd': false for a lone UTF-16 surrogate half; a high half
/// followed by an escaped low half moves `at` past the pair. Kept out of
/// the string scanner's loop, which calls it only for U+D000..U+DFFF.
[[gnu::noinline]] bool surrogate_pair(std::string_view text, std::size_t& at) {
  unsigned code = 0;
  (void)hex4(text, at - 4, code);
  if (code < 0xD800) return true;
  unsigned low = 0;
  if (code > 0xDBFF || text.substr(at, 2) != "\\u" ||
      !hex4(text, at + 2, low) || low < 0xDC00 || low > 0xDFFF) {
    return false;
  }
  at += 6;
  return true;
}

/// Appends the string body `raw` (between the quotes, escapes already
/// validated by the Reader) to `out`, unescaped.
void unescape(std::string_view raw, std::string& out) {
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    const char esc = raw[++i];
    switch (esc) {
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = 0;
        (void)hex4(raw, i + 1, code);
        i += 4;
        if (code >= 0xD800 && code <= 0xDBFF) {
          // The Reader admitted only whole pairs: a low half follows.
          unsigned low = 0;
          (void)hex4(raw, i + 3, low);
          i += 6;
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // UTF-8 encode the code point.
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (code >> 18));
          out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: out += esc; break;  // '"', '\\' and '/' stand for themselves
    }
  }
}

}  // namespace

std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(data_);
  return saturate(std::get<double>(data_));
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(data_);
  return static_cast<double>(std::get<std::int64_t>(data_));
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  auto it = obj.find(key);
  return it != obj.end() ? &it->second : nullptr;
}

std::int64_t Value::get_int(std::string_view key, std::int64_t fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

std::string Value::get_string(std::string_view key,
                              std::string_view fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::string{fallback};
}

bool Value::get_bool(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string ParseError::to_string() const {
  return "json parse error at " + std::to_string(line) + ":" +
         std::to_string(column) + ": " + message;
}

void append_string(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// ---------- Reader ----------
//
// The private helpers are defined `inline`: they run on every token.

std::int64_t Reader::Number::as_int() const {
  return integral ? integer : saturate(real);
}

inline void Reader::skip_ws() {
  const std::size_t size = text_.size();
  std::size_t p = pos_;
  while (p < size) {
    const char c = text_[p];
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
      ++p;
    } else if (c == '/' && p + 1 < size && text_[p + 1] == '/') {
      // Allow // line comments in configuration files.
      const std::size_t eol = text_.find('\n', p);
      p = eol == std::string_view::npos ? size : eol;
    } else {
      break;
    }
  }
  pos_ = p;
}

Reader::Kind Reader::peek() {
  if (failed()) return Kind::kEnd;
  skip_ws();
  if (pos_ == text_.size()) return Kind::kEnd;
  switch (text_[pos_]) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

inline bool Reader::value_start() {
  if (failed()) return false;
  skip_ws();
  if (pos_ == text_.size()) return fail("unexpected end of input");
  return true;
}

inline bool Reader::open(char bracket) {
  if (!value_start()) return false;
  if (text_[pos_] != bracket) {
    return fail(bracket == '{' ? "expected object" : "expected array");
  }
  if (depth_ == kMaxDepth) {
    return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                " levels");
  }
  ++depth_;
  ++pos_;
  first_ = true;
  return true;
}

bool Reader::begin_object() { return open('{'); }
bool Reader::begin_array() { return open('['); }

bool Reader::next_key(std::string_view& key) {
  if (failed()) return false;
  skip_ws();
  const bool first = first_;
  first_ = false;
  if (!first && pos_ == text_.size()) return fail("unterminated object");
  if (pos_ < text_.size() && text_[pos_] == '}') {
    ++pos_;
    --depth_;
    return false;
  }
  if (!first) {
    if (text_[pos_] != ',') return fail("expected ',' or '}' in object");
    ++pos_;
    skip_ws();
  }
  if (pos_ == text_.size() || text_[pos_] != '"') {
    return fail("expected object key");
  }
  std::string_view raw;
  bool escaped = false;
  if (!scan_string(raw, escaped)) return false;
  if (escaped) {
    scratch_.clear();
    unescape(raw, scratch_);
    key = scratch_;
  } else {
    key = raw;
  }
  skip_ws();
  if (pos_ == text_.size() || text_[pos_] != ':') return fail("expected ':'");
  ++pos_;
  return true;
}

bool Reader::next_element() {
  if (failed()) return false;
  skip_ws();
  const bool first = first_;
  first_ = false;
  if (!first && pos_ == text_.size()) return fail("unterminated array");
  if (pos_ < text_.size() && text_[pos_] == ']') {
    ++pos_;
    --depth_;
    return false;
  }
  if (first) return true;
  if (text_[pos_] != ',') return fail("expected ',' or ']' in array");
  ++pos_;
  return true;
}

inline bool Reader::scan_string(std::string_view& raw, bool& escaped) {
  const std::size_t begin = pos_ + 1;  // past the opening quote
  const std::size_t size = text_.size();
  std::size_t p = begin;
  escaped = false;
  while (true) {
    while (p < size && text_[p] != '"' && text_[p] != '\\') ++p;
    pos_ = p;
    if (p == size) return fail("unterminated string");
    if (text_[p] == '"') {
      raw = text_.substr(begin, p - begin);
      pos_ = p + 1;
      return true;
    }
    escaped = true;
    pos_ = ++p;
    if (p == size) return fail("unterminated escape");
    pos_ = ++p;
    switch (text_[p - 1]) {
      case '"':
      case '\\':
      case '/':
      case 'b':
      case 'f':
      case 'n':
      case 'r':
      case 't': break;
      case 'u': {
        for (int i = 0; i < 4; ++i, ++p) {
          if (p == size ||
              std::isxdigit(static_cast<unsigned char>(text_[p])) == 0) {
            pos_ = p;
            return fail("bad \\u escape");
          }
        }
        // UTF-16 surrogates (U+D800..U+DFFF) come in (high, low) pairs.
        if ((text_[p - 4] | 0x20) == 'd' && !surrogate_pair(text_, p)) {
          pos_ = p;
          return fail("lone \\u surrogate");
        }
        break;
      }
      default: return fail("unknown escape character");
    }
  }
}

bool Reader::read_string(std::string& out) {
  if (!value_start()) return false;
  if (text_[pos_] != '"') return fail("expected string");
  std::string_view raw;
  bool escaped = false;
  if (!scan_string(raw, escaped)) return false;
  out.clear();
  if (escaped) {
    unescape(raw, out);
  } else {
    out.append(raw);
  }
  return true;
}

inline bool Reader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
  pos_ += word.size();
  return true;
}

bool Reader::read_bool(bool& out) {
  if (!value_start()) return false;
  out = text_[pos_] == 't';
  return literal(out ? "true" : "false");
}

bool Reader::read_null() { return value_start() && literal("null"); }

bool Reader::read_number(Number& out) {
  if (!value_start()) return false;
  const std::size_t start = pos_;
  const std::size_t size = text_.size();
  const bool negative = text_[pos_] == '-';
  if (negative) ++pos_;
  const std::size_t digits_start = pos_;
  std::uint64_t magnitude = 0;  // exact while there are at most 18 digits
  while (pos_ < size && is_digit(text_[pos_])) {
    magnitude = magnitude * 10 + static_cast<unsigned>(text_[pos_] - '0');
    ++pos_;
  }
  const std::size_t digits = pos_ - digits_start;
  bool is_floating = false;
  if (pos_ < size && text_[pos_] == '.') {
    is_floating = true;
    ++pos_;
    while (pos_ < size && is_digit(text_[pos_])) ++pos_;
  }
  if (pos_ < size && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    is_floating = true;
    ++pos_;
    if (pos_ < size && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    while (pos_ < size && is_digit(text_[pos_])) ++pos_;
  }
  if (pos_ == digits_start) {  // empty or a lone '-'
    return fail("invalid number");
  }
  out.integral = !is_floating;
  if (out.integral && digits <= 18) {
    const auto value = static_cast<std::int64_t>(magnitude);
    out.integer = negative ? -value : value;
    return true;
  }
  const char* const first = text_.data() + start;
  const char* const last = text_.data() + pos_;
  if (is_floating) {
    auto [p, ec] = std::from_chars(first, last, out.real);
    if (ec != std::errc{} || p != last) return fail("invalid number");
  } else {
    auto [p, ec] = std::from_chars(first, last, out.integer);
    if (ec != std::errc{} || p != last) return fail("integer out of range");
  }
  return true;
}

bool Reader::skip_value() {
  switch (peek()) {
    case Kind::kEnd: return value_start();
    case Kind::kObject: {
      if (!begin_object()) return false;
      std::string_view key;
      while (next_key(key)) {
        if (!skip_value()) return false;
      }
      return !failed();
    }
    case Kind::kArray: {
      if (!begin_array()) return false;
      while (next_element()) {
        if (!skip_value()) return false;
      }
      return !failed();
    }
    case Kind::kString: {
      std::string_view raw;
      bool escaped = false;
      return scan_string(raw, escaped);
    }
    case Kind::kNumber: {
      Number n;
      return read_number(n);
    }
    case Kind::kBool: {
      bool b = false;
      return read_bool(b);
    }
    case Kind::kNull: return read_null();
  }
  return false;
}

bool Reader::finish() {
  if (failed()) return false;
  skip_ws();
  if (pos_ != text_.size()) return fail("trailing characters after document");
  return true;
}

bool Reader::fail(std::string_view message) {
  if (!error_) {
    // Line and column are counted only here, so a document that parses
    // pays nothing for them.
    const std::string_view before = text_.substr(0, pos_);
    const std::size_t newline = before.rfind('\n');
    const std::size_t line_start =
        newline == std::string_view::npos ? 0 : newline + 1;
    error_ = ParseError{
        std::string{message},
        1 + static_cast<int>(std::count(before.begin(), before.end(), '\n')),
        1 + static_cast<int>(pos_ - line_start)};
  }
  return false;
}

namespace {

/// The DOM client of the Reader: one Value per JSON value.
bool read_value(Reader& reader, Value& out) {
  switch (reader.peek()) {
    case Reader::Kind::kObject: {
      if (!reader.begin_object()) return false;
      Object obj;
      std::string_view key;
      while (reader.next_key(key)) {
        // Copied first: reading the member may reuse the key's storage.
        std::string name{key};
        Value member;
        if (!read_value(reader, member)) return false;
        obj.emplace(std::move(name), std::move(member));
      }
      if (reader.failed()) return false;
      out = Value{std::move(obj)};
      return true;
    }
    case Reader::Kind::kArray: {
      if (!reader.begin_array()) return false;
      Array arr;
      while (reader.next_element()) {
        Value element;
        if (!read_value(reader, element)) return false;
        arr.push_back(std::move(element));
      }
      if (reader.failed()) return false;
      out = Value{std::move(arr)};
      return true;
    }
    case Reader::Kind::kString: {
      std::string s;
      if (!reader.read_string(s)) return false;
      out = Value{std::move(s)};
      return true;
    }
    case Reader::Kind::kNumber: {
      Reader::Number n;
      if (!reader.read_number(n)) return false;
      out = n.integral ? Value{n.integer} : Value{n.real};
      return true;
    }
    case Reader::Kind::kBool: {
      bool b = false;
      if (!reader.read_bool(b)) return false;
      out = Value{b};
      return true;
    }
    case Reader::Kind::kNull:
      out = Value{nullptr};
      return reader.read_null();
    case Reader::Kind::kEnd: break;
  }
  return reader.skip_value();  // reports the end of input
}

}  // namespace

// ---------- Writer ----------

void Writer::newline() {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth_, ' ');
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
  } else if (depth_ > 0) {
    if (!first_) out_ += ',';
    first_ = false;
    newline();
  }
}

Writer& Writer::open(char bracket) {
  separate();
  out_ += bracket;
  ++depth_;
  first_ = true;
  return *this;
}

Writer& Writer::close(char bracket) {
  --depth_;
  if (!first_) newline();
  out_ += bracket;
  first_ = false;  // the enclosing container now has this member
  return *this;
}

Writer& Writer::key(std::string_view name) {
  separate();
  append_string(out_, name);
  out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::string(std::string_view text) {
  separate();
  append_string(out_, text);
  return *this;
}

Writer& Writer::real(double d) {
  separate();
  if (!std::isfinite(d)) {
    out_ += "null";
  } else if (d == 0 && std::signbit(d)) {
    out_ += "-0.0";  // "%.17g" prints "-0", which reads back as the integer 0
  } else {
    char buf[32];
    out_.append(buf, static_cast<std::size_t>(
                         std::snprintf(buf, sizeof buf, "%.17g", d)));
  }
  return *this;
}

Writer& Writer::boolean(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::null() {
  separate();
  out_ += "null";
  return *this;
}

namespace {

void write(Writer& w, const Value& v) {
  if (v.is_null()) {
    w.null();
  } else if (v.is_bool()) {
    w.boolean(v.as_bool());
  } else if (v.is_int()) {
    w.integer(v.as_int());
  } else if (v.is_double()) {
    w.real(v.as_double());
  } else if (v.is_string()) {
    w.string(v.as_string());
  } else if (v.is_array()) {
    w.begin_array();
    for (const Value& element : v.as_array()) write(w, element);
    w.end_array();
  } else {
    w.begin_object();
    for (const auto& [key, member] : v.as_object()) write(w.key(key), member);
    w.end_object();
  }
}

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  Writer w(out, indent);
  write(w, *this);
  return out;
}

ParseResult parse(std::string_view text) {
  Reader reader(text);
  Value value;
  if (!read_value(reader, value) || !reader.finish()) {
    return {std::nullopt, reader.error()};
  }
  return {std::move(value), std::nullopt};
}

}  // namespace air::util::json
