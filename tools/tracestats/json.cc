#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dufs::tracestats {

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing data");
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    *error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        out->kind = JsonValue::Kind::kObject;
        return ParseList('}', "object",
                         [this, out] { return ParseMember(out); });
      case '[':
        out->kind = JsonValue::Kind::kArray;
        return ParseList(']', "array",
                         [this, out] { return ParseElement(out); });
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
      case 'n': return ParseLiteral(out);
      default: return ParseNumber(out);
    }
  }

  // Comma-separated items from the opening bracket up to `close`; `item`
  // parses one (an object member or an array element).
  template <typename Item>
  bool ParseList(char close, const char* what, Item item) {
    ++pos_;  // '{' or '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!item()) return false;
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail(std::string("unterminated ") + what);
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == close) {
        ++pos_;
        return true;
      }
      return Fail(std::string("expected ',' or '") + close + "'");
    }
  }

  bool ParseMember(JsonValue* out) {
    std::string key;
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected object key");
    }
    if (!ParseString(&key)) return false;
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
    ++pos_;
    SkipWs();
    JsonValue value;
    if (!ParseValue(&value)) return false;
    out->members.emplace_back(std::move(key), std::move(value));
    return true;
  }

  bool ParseElement(JsonValue* out) {
    JsonValue value;
    if (!ParseValue(&value)) return false;
    out->items.push_back(std::move(value));
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // Our exporters only \u-escape control characters; encode the
          // BMP code point as UTF-8 and move on (no surrogate handling).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseLiteral(JsonValue* out) {
    for (const char* word : {"true", "false", "null"}) {
      const std::size_t n = std::strlen(word);
      if (text_.compare(pos_, n, word) != 0) continue;
      out->kind =
          word[0] == 'n' ? JsonValue::Kind::kNull : JsonValue::Kind::kBool;
      out->boolean = word[0] == 't';
      pos_ += n;
      return true;
    }
    return Fail("bad literal");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("expected value");
    out->kind = JsonValue::Kind::kNumber;
    out->raw = text_.substr(start, pos_ - start);
    out->number = std::strtod(out->raw.c_str(), nullptr);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->str : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::int64_t JsonValue::GetInt(const std::string& key,
                               std::int64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return static_cast<std::int64_t>(v->number);
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  Parser parser(text, error);
  return parser.Parse(out);
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) *error = "read error on " + path;
  return ok;
}

std::int64_t MicrosRawToNanos(const JsonValue& v) {
  // Fast path for the tracer's own "<int>.<3 digits>" shape.
  const std::string& raw = v.raw;
  const auto dot = raw.find('.');
  if (dot != std::string::npos && raw.size() - dot - 1 == 3 &&
      raw.find_first_of("eE") == std::string::npos) {
    bool digits = dot > 0;
    for (std::size_t i = (raw[0] == '-' ? 1 : 0); i < raw.size() && digits;
         ++i) {
      if (i == dot) continue;
      if (raw[i] < '0' || raw[i] > '9') digits = false;
    }
    if (digits) {
      const bool neg = raw[0] == '-';
      const std::int64_t whole =
          std::strtoll(raw.substr(0, dot).c_str(), nullptr, 10);
      const std::int64_t frac =
          std::strtoll(raw.substr(dot + 1).c_str(), nullptr, 10);
      const std::int64_t mag = std::llabs(whole) * 1000 + frac;
      return neg ? -mag : mag;
    }
  }
  return static_cast<std::int64_t>(std::llround(v.number * 1000.0));
}

}  // namespace dufs::tracestats
