#include "src/common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace ros::json {

namespace {
const Value kNullValue{};
}  // namespace

void AppendQuoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendInt(std::string& out, std::int64_t v) {
  char buf[24];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 24 bytes always fit an int64
  out.append(buf, p);
}

namespace {
void AppendIndent(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out.push_back('\n');
    out.append(static_cast<size_t>(indent) * depth, ' ');
  }
}
}  // namespace

const Value& Value::operator[](std::string_view key) const {
  if (is_object()) {
    const auto& obj = as_object();
    auto it = obj.find(std::string(key));
    if (it != obj.end()) {
      return it->second;
    }
  }
  return kNullValue;
}

bool Value::contains(std::string_view key) const {
  return is_object() && as_object().count(std::string(key)) > 0;
}

void Value::DumpTo(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_int()) {
    AppendInt(out, as_int());
  } else if (is_double()) {
    double d = as_double();
    if (std::isfinite(d)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      out += buf;
      // Keep the value a double on reparse: integral renderings like
      // "-0" would otherwise come back as int (and "-0" as int 0, which
      // breaks Dump/Parse idempotence).
      if (std::strcspn(buf, ".eE") == std::strlen(buf)) {
        out += ".0";
      }
    } else {
      out += "null";  // JSON has no NaN/Inf
    }
  } else if (is_string()) {
    AppendQuoted(out, as_string());
  } else if (is_array()) {
    const Array& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const Value& v : arr) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      AppendIndent(out, indent, depth + 1);
      v.DumpTo(out, indent, depth + 1);
    }
    AppendIndent(out, indent, depth);
    out.push_back(']');
  } else {
    const Object& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, v] : obj) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      AppendIndent(out, indent, depth + 1);
      AppendQuoted(out, key);
      out.push_back(':');
      if (indent > 0) {
        out.push_back(' ');
      }
      v.DumpTo(out, indent, depth + 1);
    }
    AppendIndent(out, indent, depth);
    out.push_back('}');
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Value::DumpPretty() const {
  std::string out;
  DumpTo(out, /*indent=*/2, /*depth=*/0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Value> ParseDocument() {
    SkipSpace();
    StatusOr<Value> v = ParseValue();
    if (!v.ok()) {
      return v;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Fail(std::string msg) {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + std::move(msg));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<Value> ParseValue() {
    if (depth_ > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't':
        ROS_RETURN_IF_ERROR(ConsumeLiteral("true"));
        return Value(true);
      case 'f':
        ROS_RETURN_IF_ERROR(ConsumeLiteral("false"));
        return Value(false);
      case 'n':
        ROS_RETURN_IF_ERROR(ConsumeLiteral("null"));
        return Value(nullptr);
      default:
        return ParseNumber();
    }
  }

  Status ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Fail("invalid literal");
    }
    pos_ += lit.size();
    return OkStatus();
  }

  // Enforces the JSON number grammar `-?(0|[1-9][0-9]*)(.[0-9]+)?
  // ([eE][+-]?[0-9]+)?` up front: from_chars would also accept C-style
  // spellings like `-.5`, `1.` or leading zeros, and some of those break
  // the Dump/Parse fixed point the fuzz harness checks (e.g. `-.0`).
  StatusOr<Value> ParseNumber() {
    size_t start = pos_;
    Consume('-');
    auto digits = [this]() -> size_t {
      size_t n = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;  // a leading 0 must stand alone
    } else if (digits() == 0) {
      return Fail("expected a number");
    }
    if (Consume('.') && digits() == 0) {
      return Fail("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) {
        return Fail("malformed number");
      }
    }
    std::string_view tok = text_.substr(start, pos_ - start);
    bool is_float = tok.find_first_of(".eE") != std::string_view::npos;
    if (!is_float) {
      std::int64_t i = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        return Value(i);
      }
    }
    double d = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      return Fail("malformed number");
    }
    return Value(d);
  }

  StatusOr<Value> ParseString() {
    ROS_ASSIGN_OR_RETURN(std::string s, ParseRawString());
    return Value(std::move(s));
  }

  StatusOr<std::string> ParseRawString() {
    if (!Consume('"')) {
      return Fail("expected '\"'");
    }
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return Fail("unterminated escape");
      }
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate pairs
          // are not needed by OLFS index files).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  StatusOr<Value> ParseArray() {
    ++depth_;
    ROS_CHECK(Consume('['));
    Array arr;
    SkipSpace();
    if (Consume(']')) {
      --depth_;
      return Value(std::move(arr));
    }
    while (true) {
      SkipSpace();
      StatusOr<Value> v = ParseValue();
      if (!v.ok()) {
        return v.status();
      }
      arr.push_back(std::move(v).value());
      SkipSpace();
      if (Consume(']')) {
        --depth_;
        return Value(std::move(arr));
      }
      if (!Consume(',')) {
        return Fail("expected ',' or ']' in array");
      }
    }
  }

  StatusOr<Value> ParseObject() {
    ++depth_;
    ROS_CHECK(Consume('{'));
    Object obj;
    SkipSpace();
    if (Consume('}')) {
      --depth_;
      return Value(std::move(obj));
    }
    while (true) {
      SkipSpace();
      ROS_ASSIGN_OR_RETURN(std::string key, ParseRawString());
      SkipSpace();
      if (!Consume(':')) {
        return Fail("expected ':' in object");
      }
      SkipSpace();
      ROS_ASSIGN_OR_RETURN(Value v, ParseValue());
      obj[std::move(key)] = std::move(v);
      SkipSpace();
      if (Consume('}')) {
        --depth_;
        return Value(std::move(obj));
      }
      if (!Consume(',')) {
        return Fail("expected ',' or '}' in object");
      }
    }
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

// --- Scanner ---------------------------------------------------------------

void Scanner::SkipSpace() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

bool Scanner::Consume(char c) {
  SkipSpace();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool Scanner::Peek(char c) {
  SkipSpace();
  return pos_ < text_.size() && text_[pos_] == c;
}

bool Scanner::ConsumeKey(std::string_view key) {
  const std::size_t saved = pos_;
  SkipSpace();
  if (pos_ + key.size() + 2 > text_.size() || text_[pos_] != '"' ||
      text_.substr(pos_ + 1, key.size()) != key ||
      text_[pos_ + 1 + key.size()] != '"') {
    pos_ = saved;
    return false;
  }
  pos_ += key.size() + 2;
  if (!Consume(':')) {
    pos_ = saved;
    return false;
  }
  return true;
}

bool Scanner::ReadString(std::string* out) {
  if (!Consume('"')) {
    return false;
  }
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      out->assign(text_.data() + start, pos_ - start);
      ++pos_;
      return true;
    }
    if (c == '\\') {
      return false;  // escapes are the tree parser's job
    }
    ++pos_;
  }
  return false;  // unterminated
}

bool Scanner::ReadInt(std::int64_t* out) {
  SkipSpace();
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') {
    ++pos_;
  }
  const std::size_t digits_start = pos_;
  while (pos_ < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
  const std::size_t ndigits = pos_ - digits_start;
  // Mirror the strict grammar: no empty/leading-zero forms, and anything
  // continuing into a fraction or exponent is a double, not an int.
  if (ndigits == 0 ||
      (ndigits > 1 && text_[digits_start] == '0') ||
      (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' ||
                               text_[pos_] == 'E'))) {
    pos_ = start;
    return false;
  }
  auto [p, ec] = std::from_chars(text_.data() + start, text_.data() + pos_,
                                 *out);
  if (ec != std::errc() || p != text_.data() + pos_) {
    pos_ = start;
    return false;  // overflow: the tree parser turns this into a double
  }
  return true;
}

bool Scanner::ReadBool(bool* out) {
  SkipSpace();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    *out = true;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    *out = false;
    return true;
  }
  return false;
}

bool Scanner::AtEnd() {
  SkipSpace();
  return pos_ == text_.size();
}

}  // namespace ros::json
