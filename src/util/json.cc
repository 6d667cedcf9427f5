#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace bento {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::Has(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  static const JsonValue kNull;
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  return kNull;
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue& v = Get(key);
  return v.is_string() ? v.string_value() : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue& v = Get(key);
  return v.is_number() ? v.number_value() : fallback;
}

Result<int64_t> JsonValue::int_value() const {
  // -2^63 and 2^63 are exact doubles; NaN fails both comparisons.
  constexpr double kLimit = 9223372036854775808.0;
  if (!is_number() || !(number_ >= -kLimit && number_ < kLimit)) {
    return Status::Invalid("not an int64: ", Dump());
  }
  return static_cast<int64_t>(number_);
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  Result<int64_t> v = Get(key).int_value();
  return v.ok() ? *v : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue& v = Get(key);
  return v.is_bool() ? v.bool_value() : fallback;
}

namespace {

void EscapeStringTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void Indent(std::string* out, int indent, int depth) {
  if (indent > 0) {
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber: {
      // JSON has no spelling for NaN or ±inf: they dump as null. The range
      // test comes before the int64 cast (out-of-range casts are UB), and
      // -0.0 takes the double path so its sign survives.
      if (!std::isfinite(number_)) {
        out->append("null");
      } else if (std::abs(number_) < 9.0e15 &&
                 number_ == std::trunc(number_) &&
                 !(number_ == 0.0 && std::signbit(number_))) {
        out->append(std::to_string(static_cast<int64_t>(number_)));
      } else {
        out->append(FormatDouble(number_));
      }
      break;
    }
    case Type::kString:
      EscapeStringTo(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) Indent(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        EscapeStringTo(object_[i].first, out);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) Indent(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view. Nesting deeper than
/// kMaxDepth is rejected, so hostile input cannot exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    BENTO_RETURN_NOT_OK(ParseValue(&v));
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::Invalid("trailing characters at offset ", pos_);
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Status::Invalid("unexpected end of JSON");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ >= kMaxDepth) {
          return Status::Invalid("JSON nested deeper than ", kMaxDepth,
                                 " levels at offset ", pos_);
        }
        ++depth_;
        Status st = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return st;
      }
      case '"': {
        std::string s;
        BENTO_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view lit, JsonValue value, JsonValue* out) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Status::Invalid("bad literal at offset ", pos_);
    }
    pos_ += lit.size();
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double v = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      return Status::Invalid("bad number at offset ", start);
    }
    *out = JsonValue::Number(v);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::Invalid("bad \\u escape");
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
                return Status::Invalid("bad \\u escape");
              }
            }
            // Encode as UTF-8 (basic multilingual plane only).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Status::Invalid("bad escape '\\", std::string(1, esc), "'");
        }
      } else {
        out->push_back(c);
      }
    }
    return Status::Invalid("unterminated string");
  }

  Status ParseArray(JsonValue* out) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      JsonValue item;
      BENTO_RETURN_NOT_OK(ParseValue(&item));
      out->Append(std::move(item));
      SkipWs();
      if (pos_ >= text_.size()) return Status::Invalid("unterminated array");
      char c = text_[pos_++];
      if (c == ']') return Status::OK();
      if (c != ',') return Status::Invalid("expected ',' in array at ", pos_ - 1);
    }
  }

  Status ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::Invalid("expected object key at offset ", pos_);
      }
      std::string key;
      BENTO_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::Invalid("expected ':' at offset ", pos_);
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      BENTO_RETURN_NOT_OK(ParseValue(&value));
      out->Set(key, std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Status::Invalid("unterminated object");
      char c = text_[pos_++];
      if (c == '}') return Status::OK();
      if (c != ',') {
        return Status::Invalid("expected ',' in object at ", pos_ - 1);
      }
    }
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects currently open
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open ", path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseJson(ss.str());
}

}  // namespace bento
