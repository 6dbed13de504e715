#pragma once

// A tiny, strict recursive-descent JSON parser for the tests: just enough
// to prove the exporters emit well-formed JSON and to inspect what they
// wrote. Throws on any syntax error, which gtest reports as a test
// failure.

#include <cctype>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cea::obs {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const { return object.at(key); }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing data");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue value;
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      value.type = JsonValue::Type::kString;
      value.string = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      value.type = JsonValue::Type::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      value.type = JsonValue::Type::kBool;
      return value;
    }
    if (consume_literal("null")) return value;
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      if (peek() != '"') throw std::runtime_error("expected object key");
      std::string key = parse_string();
      expect(':');
      value.object.emplace(std::move(key), parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return value;
      if (next != ',') throw std::runtime_error("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return value;
      if (next != ',') throw std::runtime_error("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;  // control characters only; drop them
            break;
          default: throw std::runtime_error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("expected number");
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

inline JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace cea::obs
