#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace dvs::util {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) {
      out_ += ',';
    }
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  ACS_REQUIRE(!needs_comma_.empty(), "EndObject without open container");
  needs_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  ACS_REQUIRE(!needs_comma_.empty(), "EndArray without open container");
  needs_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  ACS_REQUIRE(!needs_comma_.empty(), "Key outside an object");
  if (needs_comma_.back()) {
    out_ += ',';
  }
  needs_comma_.back() = true;
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const char* value) {
  return Value(std::string(value));
}

JsonWriter& JsonWriter::Value(double value) {
  // %.17g spells NaN/Inf as bare `nan`/`inf` tokens, which no JSON parser
  // accepts — the whole document would be lost to one bad metric.  JSON has
  // no non-finite numbers, so emit null and let readers decide.
  if (!std::isfinite(value)) {
    return Null();
  }
  BeforeValue();
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const JsonValue* value = Find(key);
  ACS_REQUIRE(value != nullptr, "JSON object has no key \"" + key + "\"");
  return *value;
}

const std::string& JsonValue::StringAt(const std::string& key) const {
  const JsonValue& value = At(key);
  ACS_REQUIRE(value.IsString(), "JSON key \"" + key + "\" is not a string");
  return value.string;
}

double JsonValue::NumberAt(const std::string& key) const {
  const JsonValue& value = At(key);
  ACS_REQUIRE(value.IsNumber(), "JSON key \"" + key + "\" is not a number");
  return value.number;
}

namespace {

/// Recursive-descent parser over the whole text; positions are byte
/// offsets for error messages.  Recursion depth follows the input, so
/// containers may nest at most kMaxDepth deep — far beyond the manifests
/// and traces this reads (under 10 levels), far below a stack overflow.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    Require(pos_ == text_.size(), "trailing content after JSON document");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                message);
  }

  void Require(bool ok, const char* message) const {
    if (!ok) {
      Fail(message);
    }
  }

  static constexpr int kMaxDepth = 64;

  /// Enters one container level; the caller leaves it with --depth_.
  void Descend() {
    if (++depth_ > kMaxDepth) {
      Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    Require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    Require(pos_ < text_.size() && text_[pos_] == c,
            "unexpected character");
    ++pos_;
  }

  bool Literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    const char c = Peek();
    JsonValue value;
    switch (c) {
      case '{':
      case '[': {
        Descend();
        JsonValue container = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return container;
      }
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = ParseString();
        return value;
      case 't':
        Require(Literal("true"), "invalid literal");
        value.kind = JsonValue::Kind::kBool;
        value.bool_value = true;
        return value;
      case 'f':
        Require(Literal("false"), "invalid literal");
        value.kind = JsonValue::Kind::kBool;
        value.bool_value = false;
        return value;
      case 'n':
        Require(Literal("null"), "invalid literal");
        value.kind = JsonValue::Kind::kNull;
        return value;
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipWhitespace();
      Require(Peek() == '"', "expected object key");
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      value.object.emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      const char next = Peek();
      ++pos_;
      if (next == '}') {
        return value;
      }
      Require(next == ',', "expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(ParseValue());
      SkipWhitespace();
      const char next = Peek();
      ++pos_;
      if (next == ']') {
        return value;
      }
      Require(next == ',', "expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      Require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      Require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          Require(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("invalid hex digit in \\u escape");
            }
          }
          // Encode the code unit as UTF-8 (no surrogate combining — the
          // repository's writers only \u-escape control characters).
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
        default:
          Fail("unknown escape");
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    Require(pos_ > begin, "expected a value");
    const std::string token = text_.substr(begin, pos_ - begin);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      pos_ = begin;
      Fail("malformed number \"" + token + "\"");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open containers around pos_
};

}  // namespace

JsonValue ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace dvs::util
