#include "lexer.h"

#include <cctype>

namespace dufs::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-char punctuators the rules care about. Longest-match-first; anything
// else is emitted as a single character. `->` and `>>` matter for template
// angle matching; the rest keep operator text from splitting confusingly.
const char* const kPuncts3[] = {"<=>", "->*", "...", "<<=", ">>="};
const char* const kPuncts2[] = {"::", "->", "&&", "||", ">>", "<<", "<=",
                                ">=", "==", "!=", "+=", "-=", "*=", "/=",
                                "%=", "&=", "|=", "^=", "++", "--", "##"};

class Lexer {
 public:
  Lexer(std::string path, const std::string& src) : src_(src) {
    out_.path = std::move(path);
  }

  LexedFile Run() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && Peek(1) == '/') {
        LineComment();
      } else if (c == '/' && Peek(1) == '*') {
        BlockComment();
      } else if (c == '#' && LineIsBlankBefore()) {
        Preprocessor();
      } else if (c == '"') {
        String();
      } else if (c == '\'') {
        CharLiteral();
      } else if (c == 'R' && Peek(1) == '"') {
        RawString();
      } else if (IsIdentStart(c)) {
        Identifier();
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && std::isdigit(static_cast<unsigned char>(Peek(1))))) {
        Number();
      } else {
        Punct();
      }
    }
    return std::move(out_);
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  bool StartsWith(const char* s) const {
    return src_.compare(pos_, std::char_traits<char>::length(s), s) == 0;
  }

  // True if only whitespace precedes pos_ on the current line (so `#` starts
  // a preprocessor directive, not `operator#` in a macro body — close enough).
  bool LineIsBlankBefore() const {
    std::size_t i = pos_;
    while (i > 0 && src_[i - 1] != '\n') {
      if (!std::isspace(static_cast<unsigned char>(src_[i - 1]))) return false;
      --i;
    }
    return true;
  }

  void Emit(TokKind kind, std::string text, int at_line) {
    out_.tokens.push_back(Token{kind, std::move(text), at_line});
  }

  void LineComment() {
    const int at = line_;
    std::size_t start = pos_;
    while (!AtEnd() && Peek() != '\n') ++pos_;
    HandleComment(src_.substr(start, pos_ - start), at);
  }

  void BlockComment() {
    const int at = line_;
    std::size_t start = pos_;
    pos_ += 2;
    while (!AtEnd() && !StartsWith("*/")) {
      if (Peek() == '\n') ++line_;
      ++pos_;
    }
    if (!AtEnd()) pos_ += 2;
    HandleComment(src_.substr(start, pos_ - start), at);
  }

  void HandleComment(const std::string& text, int at_line) {
    const std::string kTag = "dufs-lint:";
    const auto tag = text.find(kTag);
    if (tag == std::string::npos) return;
    auto open = text.find("allow(", tag);
    if (open == std::string::npos) return;
    auto close = text.find(')', open);
    if (close == std::string::npos) return;
    Suppression sup;
    sup.line = at_line;
    sup.alone = CommentAloneOnLine(at_line);
    std::string rule;
    for (std::size_t i = open + 6; i < close; ++i) {
      const char c = text[i];
      if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
        if (!rule.empty()) sup.rules.push_back(std::move(rule));
        rule.clear();
      } else {
        rule += c;
      }
    }
    if (!rule.empty()) sup.rules.push_back(std::move(rule));
    if (!sup.rules.empty()) out_.suppressions.push_back(std::move(sup));
  }

  // Whether any code token was already emitted for `line`.
  bool CommentAloneOnLine(int line) const {
    for (auto it = out_.tokens.rbegin(); it != out_.tokens.rend(); ++it) {
      if (it->line < line) break;
      if (it->line == line) return false;
    }
    return true;
  }

  void Preprocessor() {
    // Consume the whole logical line, honoring backslash continuations and
    // skipping comments (a // in a directive ends it; /* may span).
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\\' && Peek(1) == '\n') {
        pos_ += 2;
        ++line_;
      } else if (c == '/' && Peek(1) == '/') {
        break;
      } else if (c == '/' && Peek(1) == '*') {
        BlockComment();
      } else if (c == '\n') {
        break;
      } else {
        ++pos_;
      }
    }
  }

  void String() {
    const int at = line_;
    std::size_t start = pos_;
    ++pos_;
    while (!AtEnd() && Peek() != '"') {
      if (Peek() == '\\') ++pos_;
      if (Peek() == '\n') ++line_;  // ill-formed anyway; keep lines right
      ++pos_;
    }
    if (!AtEnd()) ++pos_;
    Emit(TokKind::kString, src_.substr(start, pos_ - start), at);
  }

  void CharLiteral() {
    const int at = line_;
    std::size_t start = pos_;
    ++pos_;
    while (!AtEnd() && Peek() != '\'') {
      if (Peek() == '\\') ++pos_;
      ++pos_;
    }
    if (!AtEnd()) ++pos_;
    Emit(TokKind::kString, src_.substr(start, pos_ - start), at);
  }

  void RawString() {
    const int at = line_;
    std::size_t start = pos_;
    pos_ += 2;  // R"
    std::string delim;
    while (!AtEnd() && Peek() != '(') delim += src_[pos_++];
    const std::string closer = ")" + delim + "\"";
    while (!AtEnd() && !StartsWith(closer.c_str())) {
      if (Peek() == '\n') ++line_;
      ++pos_;
    }
    if (!AtEnd()) pos_ += closer.size();
    Emit(TokKind::kString, src_.substr(start, pos_ - start), at);
  }

  void Identifier() {
    const int at = line_;
    std::size_t start = pos_;
    while (!AtEnd() && IsIdentChar(Peek())) ++pos_;
    std::string text = src_.substr(start, pos_ - start);
    // String-literal prefixes (u8"...", L"...") — treat as one string token.
    if ((Peek() == '"' || Peek() == '\'') &&
        (text == "u8" || text == "u" || text == "U" || text == "L")) {
      if (Peek() == '"') {
        String();
      } else {
        CharLiteral();
      }
      return;
    }
    Emit(TokKind::kIdentifier, std::move(text), at);
  }

  void Number() {
    const int at = line_;
    std::size_t start = pos_;
    while (!AtEnd()) {
      const char c = Peek();
      if (IsIdentChar(c) || c == '.' || c == '\'') {
        ++pos_;
      } else if ((c == '+' || c == '-') && pos_ > start) {
        const char prev = src_[pos_ - 1];
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          ++pos_;
        } else {
          break;
        }
      } else {
        break;
      }
    }
    Emit(TokKind::kNumber, src_.substr(start, pos_ - start), at);
  }

  void Punct() {
    const int at = line_;
    for (const char* p : kPuncts3) {
      if (StartsWith(p)) {
        pos_ += 3;
        Emit(TokKind::kPunct, p, at);
        return;
      }
    }
    for (const char* p : kPuncts2) {
      if (StartsWith(p)) {
        pos_ += 2;
        Emit(TokKind::kPunct, p, at);
        return;
      }
    }
    Emit(TokKind::kPunct, std::string(1, src_[pos_]), at);
    ++pos_;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  LexedFile out_;
};

}  // namespace

LexedFile Lex(std::string path, const std::string& content) {
  return Lexer(std::move(path), content).Run();
}

}  // namespace dufs::lint
