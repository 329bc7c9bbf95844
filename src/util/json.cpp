#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace air::util::json {

std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(data_);
  // Saturate: casting a double outside the int64 range is undefined.
  constexpr double kTwo63 = 9223372036854775808.0;
  const double d = std::get<double>(data_);
  if (d >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  if (d < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  if (std::isnan(d)) return 0;
  return static_cast<std::int64_t>(d);
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(data_);
  return static_cast<double>(std::get<std::int64_t>(data_));
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  auto it = obj.find(std::string{key});
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

namespace {

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return {std::nullopt, error_};
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return {std::nullopt, error_};
    }
    return {std::move(v), std::nullopt};
  }

 private:
  bool parse_value(Value& out) {
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                      " levels");
        }
        ++depth_;
        const bool ok = peek() == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': return parse_string_value(out);
      case 't': return parse_literal("true", Value{true}, out);
      case 'f': return parse_literal("false", Value{false}, out);
      case 'n': return parse_literal("null", Value{nullptr}, out);
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    advance();  // '{'
    Object obj;
    skip_ws();
    if (!at_end() && peek() == '}') {
      advance();
      out = Value{std::move(obj)};
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (at_end() || peek() != ':') return fail("expected ':'");
      advance();
      skip_ws();
      Value member;
      if (!parse_value(member)) return false;
      obj.emplace(std::move(key), std::move(member));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == '}') {
        advance();
        out = Value{std::move(obj)};
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out) {
    advance();  // '['
    Array arr;
    skip_ws();
    if (!at_end() && peek() == ']') {
      advance();
      out = Value{std::move(arr)};
      return true;
    }
    while (true) {
      skip_ws();
      Value element;
      if (!parse_value(element)) return false;
      arr.push_back(std::move(element));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == ']') {
        advance();
        out = Value{std::move(arr)};
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string_value(Value& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = Value{std::move(s)};
    return true;
  }

  bool parse_string_raw(std::string& out) {
    advance();  // opening quote
    while (true) {
      if (at_end()) return fail("unterminated string");
      char c = peek();
      advance();
      if (c == '"') return true;
      if (c == '\\') {
        if (at_end()) return fail("unterminated escape");
        char esc = peek();
        advance();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (at_end() || std::isxdigit(static_cast<unsigned char>(peek())) == 0) {
                return fail("bad \\u escape");
              }
              char h = peek();
              advance();
              code = code * 16 +
                     static_cast<unsigned>(h <= '9' ? h - '0'
                                                    : (std::tolower(h) - 'a' + 10));
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported;
            // config files are plain ASCII in practice).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape character");
        }
        continue;
      }
      out += c;
    }
  }

  bool parse_literal(std::string_view word, Value value, Value& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    for (std::size_t i = 0; i < word.size(); ++i) advance();
    out = std::move(value);
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    bool is_floating = false;
    if (!at_end() && peek() == '-') advance();
    while (!at_end() &&
           (std::isdigit(static_cast<unsigned char>(peek())) != 0)) {
      advance();
    }
    if (!at_end() && peek() == '.') {
      is_floating = true;
      advance();
      while (!at_end() &&
             (std::isdigit(static_cast<unsigned char>(peek())) != 0)) {
        advance();
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      is_floating = true;
      advance();
      if (!at_end() && (peek() == '+' || peek() == '-')) advance();
      while (!at_end() &&
             (std::isdigit(static_cast<unsigned char>(peek())) != 0)) {
        advance();
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return fail("invalid number");
    if (is_floating) {
      double d = 0;
      auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
      if (ec != std::errc{} || p != token.data() + token.size()) {
        return fail("invalid number");
      }
      out = Value{d};
    } else {
      std::int64_t n = 0;
      auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), n);
      if (ec != std::errc{} || p != token.data() + token.size()) {
        return fail("integer out of range");
      }
      out = Value{n};
    }
    return true;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void skip_ws() {
    while (!at_end()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        // Allow // line comments in configuration files.
        while (!at_end() && peek() != '\n') advance();
      } else {
        break;
      }
    }
  }

  bool fail(std::string message) {
    if (!error_) error_ = ParseError{std::move(message), line_, column_};
    return false;
  }

  std::string_view text_;
  std::size_t pos_{0};
  int line_{1};
  int column_{1};
  int depth_{0};  // open arrays and objects around the current value
  std::optional<ParseError> error_;
};

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(std::get<std::int64_t>(data_));
  } else if (is_double()) {
    const double d = std::get<double>(data_);
    if (!std::isfinite(d)) {
      // JSON has no NaN/Infinity literals; "%g" would emit them and produce
      // an unparseable document. null is the conventional lossy stand-in.
      out += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  } else if (is_string()) {
    append_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const auto& v : arr) {
      if (!first) out += ',';
      first = false;
      newline_indent(out, indent, depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, v] : obj) {
      if (!first) out += ',';
      first = false;
      newline_indent(out, indent, depth + 1);
      append_string(out, key);
      out += indent < 0 ? ":" : ": ";
      v.dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

ParseResult parse(std::string_view text) { return Parser{text}.run(); }

}  // namespace air::util::json
