#include "resilience/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <system_error>
#include <utility>

namespace resilience::util {

namespace {

/// Nesting bound for the parser: deep enough for any real request, small
/// enough that hostile input cannot overflow the stack.
constexpr int kMaxDepth = 64;

std::string locate(const std::string& message, std::size_t line,
                   std::size_t column) {
  return message + " at line " + std::to_string(line) + ", column " +
         std::to_string(column);
}

const char* type_name(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, JsonValue::Type got) {
  throw JsonError(std::string("expected ") + wanted + ", got " +
                      type_name(got),
                  0, 0, 0);
}

void append_utf8(std::string& out, unsigned code_point) {
  if (code_point < 0x80) {
    out += static_cast<char>(code_point);
  } else if (code_point < 0x800) {
    out += static_cast<char>(0xC0 | (code_point >> 6));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else if (code_point < 0x10000) {
    out += static_cast<char>(0xE0 | (code_point >> 12));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code_point >> 18));
    out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError(locate(message, line, column), pos_, line, column);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting depth exceeds limit");
    }
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid token");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid token");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("invalid token");
      case 'N':
        if (consume_literal("NaN")) {
          return JsonValue(std::numeric_limits<double>::quiet_NaN());
        }
        fail("invalid token");
      case 'I':
        if (consume_literal("Infinity")) {
          return JsonValue(std::numeric_limits<double>::infinity());
        }
        fail("invalid token");
      default:
        if (c == '-' && consume_literal("-Infinity")) {
          return JsonValue(-std::numeric_limits<double>::infinity());
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
          return JsonValue(parse_number());
        }
        fail("invalid token");
    }
  }

  JsonValue parse_object(int depth) {
    ++pos_;  // '{'
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') {
        fail("expected object key string");
      }
      std::string key = parse_string();
      if (object.find(key) != nullptr) {
        fail("duplicate object key '" + key + "'");
      }
      skip_whitespace();
      if (peek() != ':') {
        fail("expected ':' after object key");
      }
      ++pos_;
      object.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return object;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    ++pos_;  // '['
    JsonValue array = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return array;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        fail("unterminated escape sequence");
      }
      const char esc = text_[pos_++];
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
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const unsigned low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) {
                fail("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              fail("unpaired surrogate");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number: expected digit after '.'");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number: expected exponent digit");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // from_chars: locale-independent (strtod honors LC_NUMERIC, which
    // would silently truncate "1.5" under a comma-decimal locale).
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (result.ec == std::errc::result_out_of_range) {
      // Grammar-valid but beyond double range; follow strtod semantics
      // (signed zero on underflow, signed infinity on overflow). The
      // token's shape decides which side: a negative exponent or a
      // "0.xxx" mantissa can only underflow, everything else overflows.
      const std::string_view token = text_.substr(start, pos_ - start);
      const bool negative = token.front() == '-';
      const std::size_t exp = token.find_first_of("eE");
      const bool underflow =
          exp != std::string_view::npos
              ? token[exp + 1] == '-'
              : token[negative ? 1 : 0] == '0';
      if (underflow) {
        value = negative ? -0.0 : 0.0;
      } else {
        value = negative ? -std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::infinity();
      }
    } else if (result.ec != std::errc()) {
      fail("invalid number");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonError::JsonError(const std::string& message, std::size_t offset_in,
                     std::size_t line_in, std::size_t column_in)
    : std::runtime_error(message),
      offset(offset_in),
      line(line_in),
      column(column_in) {}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_double() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

JsonValue::Object& JsonValue::as_object() {
  return const_cast<Object&>(std::as_const(*this).as_object());
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) noexcept {
  return const_cast<JsonValue*>(std::as_const(*this).find(key));
}

void JsonValue::set(std::string key, JsonValue value) {
  if (type_ != Type::kObject) type_error("object", type_);
  object_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  return out;
}

void JsonValue::dump_to(std::string& out, int indent) const {
  JsonWriter(out, indent).value(*this);
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

void JsonWriter::newline() {
  if (indent_ >= 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) *
                    static_cast<std::size_t>(depth_),
                ' ');
  }
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (depth_ > 0) {
    if (has_sibling_) {
      out_ += ',';
    }
    newline();
  }
}

JsonWriter& JsonWriter::open(char bracket) {
  before_value();
  out_ += bracket;
  ++depth_;
  has_sibling_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  --depth_;
  if (has_sibling_) {
    newline();  // a non-empty container closes on its own line
  }
  out_ += bracket;
  has_sibling_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  before_value();
  append_quoted(name);
  out_ += indent_ >= 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  if (std::isnan(number)) {
    return raw("NaN");
  }
  if (std::isinf(number)) {
    return raw(number > 0 ? "Infinity" : "-Infinity");
  }
  // to_chars: the shortest representation that round-trips bit-exactly,
  // independent of the process locale (snprintf %g honors LC_NUMERIC and
  // would emit "1,5" under a comma-decimal locale, breaking both the
  // byte-identity guarantee and JSON validity). The longest such form,
  // "-2.2250738585072014e-308", is 24 characters.
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, number);
  return raw({buffer, static_cast<std::size_t>(result.ptr - buffer)});
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  append_quoted(text);
  has_sibling_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const JsonValue& tree) {
  switch (tree.type()) {
    case JsonValue::Type::kNull: return null();
    case JsonValue::Type::kBool: return value(tree.as_bool());
    case JsonValue::Type::kNumber: return value(tree.as_double());
    case JsonValue::Type::kString: return value(tree.as_string());
    case JsonValue::Type::kArray:
      begin_array();
      for (const JsonValue& element : tree.as_array()) {
        value(element);
      }
      return end_array();
    case JsonValue::Type::kObject:
      begin_object();
      for (const auto& [name, member_value] : tree.as_object()) {
        key(name);
        value(member_value);
      }
      return end_object();
  }
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  has_sibling_ = true;
  return *this;
}

void JsonWriter::append_quoted(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  // Bytes that need no escape are appended a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') {
      continue;
    }
    out_.append(text, run, i - run);
    run = i + 1;
    switch (byte) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                               kHex[byte & 0xF]};
        out_.append(escape, sizeof escape);
      }
    }
  }
  out_.append(text, run, text.size() - run);
  out_ += '"';
}

std::string format_json_number(double value) {
  std::string out;
  JsonWriter(out).value(value);
  return out;
}

std::string json_quote(std::string_view text) {
  std::string out;
  JsonWriter(out).value(text);
  return out;
}

}  // namespace resilience::util
