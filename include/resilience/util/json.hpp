#pragma once

// Dependency-free JSON: a small value type, a strict recursive-descent
// reader (sufficient for service requests) and one canonical writer,
// JsonWriter. The writer is the only place the formatting rules live;
// JsonValue::dump walks its tree through it, format_json_number and
// json_quote are thin wrappers over it, and the service writes its
// result lines with it directly, without building a tree. The rules:
//
//   * numbers: the shortest decimal that reads back to the same double
//     (std::to_chars, locale-independent); integers go through the same
//     double path, so integers beyond 2^53 round like a double does;
//   * non-finite doubles: the bare tokens Infinity, -Infinity and NaN
//     (one deliberate extension beyond RFC 8259: sweep cells carry +inf
//     for evaluator-rejected patterns, both ends of the wire are this
//     library, and the reader accepts the tokens);
//   * strings: '"' and '\' escaped, \b \f \n \r \t by name, every
//     other byte below 0x20 as a lowercase \u00xx, every other byte
//     (DEL and UTF-8 included) as is;
//   * layout: compact (no whitespace), or indented with N spaces a
//     level, one member or element a line, ": " after keys, and empty
//     containers as {} and [].
//
// Objects keep insertion order, so serialize -> parse -> re-serialize is
// byte-identical. That identity is what lets the sweep service cache and
// replay tables without ever re-deriving floating-point values from text
// approximations.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace resilience::util {

/// Parse/serialization failure. `offset`/`line`/`column` locate the
/// offending byte in the input (1-based line/column).
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset, std::size_t line,
            std::size_t column);

  std::size_t offset = 0;
  std::size_t line = 0;
  std::size_t column = 0;
};

/// One JSON value. Numbers are doubles (64-bit ints beyond 2^53 — e.g.
/// grid signatures — travel as hex strings instead). Objects preserve
/// insertion order; duplicate keys are rejected by the parser.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;  // null
  JsonValue(std::nullptr_t) {}
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
  JsonValue(double value) : type_(Type::kNumber), number_(value) {}
  JsonValue(int value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::int64_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::size_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}
  JsonValue(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}
  JsonValue(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  JsonValue(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on a type mismatch. The mutable
  /// object overload lets callers move members out.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object lookup; nullptr when absent (or when this is not an object).
  /// The mutable overload lets callers update a member in place.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  [[nodiscard]] JsonValue* find(std::string_view key) noexcept;

  /// Builder helpers. set() appends (keys are expected unique by
  /// construction); push_back() appends to an array. Both throw JsonError
  /// when called on the wrong type.
  void set(std::string key, JsonValue value);
  void push_back(JsonValue value);

  /// Canonical serialization through JsonWriter: compact (no
  /// whitespace) when indent < 0, pretty-printed with `indent` spaces per
  /// level otherwise. dump_to appends to `out`.
  [[nodiscard]] std::string dump(int indent = -1) const;
  void dump_to(std::string& out, int indent = -1) const;

  /// Strict parse of a complete document (trailing garbage rejected).
  static JsonValue parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Streaming canonical emitter: appends one JSON document to a caller's
/// string as it is described, with the rules in the header comment. The
/// caller opens and closes containers and names each object member with
/// key() before its value; the writer places commas, newlines and
/// indentation. It does not check the sequence: a key outside an object
/// or an unclosed container writes malformed text.
///
///   std::string line;
///   JsonWriter(line).begin_object().member("type", "pong").end_object();
class JsonWriter {
 public:
  /// Appends to `out` (never clears it). `indent` < 0 writes compact
  /// JSON; otherwise the layout of JsonValue::dump(indent).
  explicit JsonWriter(std::string& out, int indent = -1) noexcept
      : out_(out), indent_(indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Names the next member of the open object; any value call follows.
  JsonWriter& key(std::string_view name);

  JsonWriter& null() { return raw("null"); }
  JsonWriter& value(bool flag) { return raw(flag ? "true" : "false"); }
  JsonWriter& value(double number);
  /// Integers are written as the double they convert to, like
  /// JsonValue's integer constructors.
  template <class Int>
    requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
  JsonWriter& value(Int number) {
    return value(static_cast<double>(number));
  }
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(const std::string& text) {
    return value(std::string_view(text));
  }
  /// Writes a tree by walking it.
  JsonWriter& value(const JsonValue& tree);
  /// Appends `json`, the canonical text of one value, as the next value;
  /// the caller vouches for its bytes. Every scalar goes out through it.
  JsonWriter& raw(std::string_view json);

  /// key(name), then value(member_value).
  template <class T>
  JsonWriter& member(std::string_view name, const T& member_value) {
    key(name);
    return value(member_value);
  }

 private:
  /// The separator before a value: nothing after a key or at the top
  /// level, else a comma after an earlier sibling and the line break.
  void before_value();
  void newline();
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  void append_quoted(std::string_view text);

  std::string& out_;
  int indent_;
  int depth_ = 0;
  bool has_sibling_ = false;  ///< the open container has a value already
  bool after_key_ = false;
};

/// Shortest decimal representation of `value` that reads back to the
/// same bits ("3", "0.1", "1.25e-07"); Infinity/-Infinity/NaN for
/// non-finite values. A wrapper over JsonWriter::value(double).
[[nodiscard]] std::string format_json_number(double value);

/// Escaped, quoted JSON string literal for `text`. A wrapper over
/// JsonWriter::value(std::string_view).
[[nodiscard]] std::string json_quote(std::string_view text);

}  // namespace resilience::util
