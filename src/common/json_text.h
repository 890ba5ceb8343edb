// JSON text helpers shared by every export in the tree (obs exports, bench
// metrics and baselines, the lint/tracestats/profstats reports): string
// escaping and round-trip number formatting. Header-only, so the tools
// under tools/ pick it up through the include path without a link
// dependency on dufs_common.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace dufs {

// Appends `s` as the body of a JSON string (no surrounding quotes): `"`,
// `\`, newline and tab get their short escapes, every other byte below 0x20
// becomes \u00XX, and all other bytes are copied unchanged. Any input —
// including external files the tools read — yields valid JSON.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// Appends `s` as a complete, quoted JSON string.
inline void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  AppendJsonEscaped(out, s);
  *out += '"';
}

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

// %.17g round-trips every double and prints integral values without an
// exponent or trailing zeros, so equal values always format to equal bytes.
inline void AppendJsonNumber(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

}  // namespace dufs
