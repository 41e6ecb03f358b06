#include "text/dx_lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "util/str.h"

namespace ocdx {

namespace {

// Character classes of the C locale (the only one ocdx runs in), looked
// up in one table instead of a <cctype> call per byte.
enum : uint8_t { kSpace = 1, kDigit = 2, kIdentStart = 4 };

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart;
  t['_'] = kIdentStart;
  return t;
}();

bool Is(char c, uint8_t classes) {
  return (kCharClass[static_cast<unsigned char>(c)] & classes) != 0;
}

}  // namespace

DxLineIndex::DxLineIndex(std::string_view src) {
  line_starts_.push_back(0);
  // memchr, not a per-char loop: the index is built on every lex,
  // including the snapshot loader's elided parse, where this scan is a
  // measurable slice of warm-start time on MB-scale files.
  size_t i = 0;
  while (const void* hit = std::memchr(src.data() + i, '\n', src.size() - i)) {
    i = static_cast<size_t>(static_cast<const char*>(hit) - src.data()) + 1;
    line_starts_.push_back(i);
  }
}

uint32_t DxLineIndex::LineOf(size_t offset) const {
  auto it = std::upper_bound(line_starts_.begin(), line_starts_.end(), offset);
  return static_cast<uint32_t>(it - line_starts_.begin());
}

uint32_t DxLineIndex::ColOf(size_t offset) const {
  uint32_t line = LineOf(offset);
  return static_cast<uint32_t>(offset - line_starts_[line - 1] + 1);
}

std::string DxLineIndex::Describe(size_t offset) const {
  return StrCat("line ", LineOf(offset), ", col ", ColOf(offset));
}

Result<std::vector<DxToken>> DxLex(std::string_view src) {
  return DxLex(src, DxLexOptions{});
}

Result<std::vector<DxToken>> DxLex(std::string_view src,
                                   const DxLexOptions& options) {
  DxLineIndex lines(src);
  std::vector<DxToken> out;
  // Fact-heavy files run ~4.5 source bytes per token; reserving for one
  // token per 4 bytes makes regrowth rare (untouched capacity costs
  // address space, not resident memory).
  out.reserve(src.size() / 4 + 16);
  size_t i = 0;
  auto push = [&](DxTokKind k, size_t pos, size_t len) {
    out.push_back(DxToken{k, src.substr(pos, len), pos});
  };
  auto error = [&](size_t pos, std::string_view what) {
    return Status::ParseError(StrCat(what, " at ", lines.Describe(pos)));
  };
  // True right after the `{` of `instance NAME over SCHEMA {` when the
  // caller asked for elision: tokenizing the facts is most of the lexing
  // cost of a fact-heavy file, so the body is skipped with a raw
  // character scan (honoring comments and quotes, which may contain
  // `}`) that leaves `i` on the closing brace. Offsets of everything
  // outside instance bodies are untouched.
  auto at_instance_body = [&]() {
    size_t n = out.size();
    return options.elide_instance_rows && n >= 5 &&
           out[n - 1].kind == DxTokKind::kLBrace &&
           out[n - 5].kind == DxTokKind::kIdent &&
           out[n - 5].text == "instance" &&
           out[n - 4].kind == DxTokKind::kIdent &&
           out[n - 3].kind == DxTokKind::kIdent &&
           out[n - 3].text == "over" &&
           out[n - 2].kind == DxTokKind::kIdent;
  };
  auto skip_instance_body = [&]() {
    // Table-driven scan: run over uninteresting bytes in a single-branch
    // loop and only dispatch on the four characters that matter (`}`
    // ends the body, quotes and comments may hide one).
    static constexpr std::array<bool, 256> kStop = [] {
      std::array<bool, 256> t{};
      t[static_cast<unsigned char>('}')] = true;
      t[static_cast<unsigned char>('\'')] = true;
      t[static_cast<unsigned char>('#')] = true;
      t[static_cast<unsigned char>('/')] = true;
      return t;
    }();
    while (i < src.size()) {
      while (i < src.size() && !kStop[static_cast<unsigned char>(src[i])]) {
        ++i;
      }
      if (i >= src.size() || src[i] == '}') return;
      if (src[i] == '\'') {
        ++i;
        while (i < src.size() && src[i] != '\'' && src[i] != '\n') ++i;
        if (i < src.size()) ++i;  // closing quote (or keep the newline)
      } else if (src[i] == '#' ||
                 (src[i] == '/' && i + 1 < src.size() && src[i + 1] == '/')) {
        const void* nl = std::memchr(src.data() + i, '\n', src.size() - i);
        i = nl ? static_cast<size_t>(static_cast<const char*>(nl) -
                                     src.data())
               : src.size();
      } else {
        ++i;  // a lone '/', ordinary body content
      }
    }
  };
  while (i < src.size()) {
    char c = src[i];
    if (Is(c, kSpace)) {
      ++i;
      continue;
    }
    if (c == '#' || (c == '/' && i + 1 < src.size() && src[i + 1] == '/')) {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    size_t pos = i;
    switch (c) {
      case '{':
        push(DxTokKind::kLBrace, pos, 1);
        ++i;
        if (at_instance_body()) skip_instance_body();
        continue;
      case '}': push(DxTokKind::kRBrace, pos, 1); ++i; continue;
      case '[': push(DxTokKind::kLBracket, pos, 1); ++i; continue;
      case ']': push(DxTokKind::kRBracket, pos, 1); ++i; continue;
      case '(': push(DxTokKind::kLParen, pos, 1); ++i; continue;
      case ')': push(DxTokKind::kRParen, pos, 1); ++i; continue;
      case ',': push(DxTokKind::kComma, pos, 1); ++i; continue;
      case ';': push(DxTokKind::kSemicolon, pos, 1); ++i; continue;
      case '^': push(DxTokKind::kCaret, pos, 1); ++i; continue;
      case '.': push(DxTokKind::kDot, pos, 1); ++i; continue;
      case '=': push(DxTokKind::kEq, pos, 1); ++i; continue;
      case '&': push(DxTokKind::kAmp, pos, 1); ++i; continue;
      case '|': push(DxTokKind::kPipe, pos, 1); ++i; continue;
      default: break;
    }
    if (c == '!') {
      if (i + 1 < src.size() && src[i + 1] == '=') {
        push(DxTokKind::kNeq, pos, 2);
        i += 2;
      } else {
        push(DxTokKind::kBang, pos, 1);
        ++i;
      }
    } else if (c == '-') {
      if (i + 1 < src.size() && src[i + 1] == '>') {
        push(DxTokKind::kArrow, pos, 2);
        i += 2;
      } else {
        return error(pos, "unexpected '-' (did you mean '->')");
      }
    } else if (c == ':') {
      if (i + 1 < src.size() && src[i + 1] == '-') {
        push(DxTokKind::kColonDash, pos, 2);
        i += 2;
      } else {
        return error(pos, "unexpected ':' (did you mean ':-')");
      }
    } else if (c == '\'') {
      size_t j = i + 1;
      while (j < src.size() && src[j] != '\'' && src[j] != '\n') ++j;
      if (j >= src.size() || src[j] != '\'') {
        return error(pos, "unterminated quoted string");
      }
      if (j - i - 1 > kDxMaxQuotedBytes) {
        return error(pos, StrCat("quoted string longer than ",
                                 kDxMaxQuotedBytes, " bytes"));
      }
      // The token starts at the opening quote; its text excludes both.
      out.push_back(
          DxToken{DxTokKind::kQuoted, src.substr(i + 1, j - i - 1), pos});
      i = j + 1;
    } else if (Is(c, kDigit)) {
      size_t j = i;
      while (j < src.size() && Is(src[j], kDigit)) ++j;
      push(DxTokKind::kInt, pos, j - i);
      i = j;
    } else if (Is(c, kIdentStart)) {
      size_t j = i;
      while (j < src.size() && Is(src[j], kIdentStart | kDigit)) ++j;
      push(DxTokKind::kIdent, pos, j - i);
      i = j;
    } else {
      return error(pos, StrCat("unexpected character '", std::string(1, c),
                               "'"));
    }
  }
  push(DxTokKind::kEnd, src.size(), 0);
  return out;
}

}  // namespace ocdx
