// Lexer for the `.dx` scenario format (see docs/format.md).
//
// A `.dx` file is the textual substrate for whole data-exchange
// scenarios: schema declarations, annotated mappings (the rule grammar of
// src/mapping/rule_parser.h), source-instance literals and query blocks.
// The lexer produces a flat token stream with line/column positions;
// `#` and `//` start comments that run to the end of the line.
//
// The token set is a superset of the formula/rule token set
// (logic/parser.h): everything a rule or formula uses, plus the braces
// and brackets that delimit scenario blocks. The `.dx` parser converts
// block-interior tokens back into logic tokens (preserving absolute
// offsets) so the existing recursive-descent rule/formula parsers can be
// reused mid-stream with correctly positioned errors.

#ifndef OCDX_TEXT_DX_LEXER_H_
#define OCDX_TEXT_DX_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ocdx {

enum class DxTokKind : uint8_t {
  kIdent,     ///< Identifiers and keywords; also null literals (`_n1`).
  kQuoted,    ///< 'single-quoted' constant or description string.
  kInt,       ///< Bare integer constant.
  kLBrace,    ///< `{`
  kRBrace,    ///< `}`
  kLBracket,  ///< `[`
  kRBracket,  ///< `]`
  kLParen,
  kRParen,
  kComma,
  kSemicolon,
  kCaret,      ///< `^` annotation marker.
  kDot,
  kEq,
  kNeq,
  kBang,
  kAmp,
  kPipe,
  kArrow,      ///< `->`
  kColonDash,  ///< `:-`
  kEnd,
};

/// One token. `text` is a view into the source passed to DxLex — no
/// bytes are copied — so a token is only valid while that source is
/// alive and unmodified; ParseDxScenario keeps both for exactly the
/// duration of one parse. Anything a declaration keeps beyond the parse
/// (names, descriptions, the logic tokens of rule and query blocks) is
/// copied into its own std::string at that point; constants are interned
/// straight from the view (the interner copies on first sight).
struct DxToken {
  DxTokKind kind;
  std::string_view text;  ///< Quoted strings: the bytes between the quotes.
  size_t offset;  ///< Byte offset in the source; the parser turns offsets
                  ///< into "line L, col C" through DxLineIndex on demand.
};

struct DxLexOptions {
  /// Skip the fact bodies of `instance NAME over SCHEMA { ... }` blocks
  /// with a raw character scan, emitting `{` directly followed by `}`.
  /// Token offsets outside instance bodies are identical to a full lex,
  /// so parse errors and budget diagnostics keep their positions. Used
  /// by the snapshot loader (snap/snapshot.cc), which re-parses a
  /// scenario's *structure* from the embedded text but loads its
  /// instances from binary sections.
  bool elide_instance_rows = false;
};

/// The longest quoted string (constant or description) a `.dx` file may
/// hold, in bytes between the quotes: 64 KiB, the same as ocdxd's
/// request-line cap. Longer is a positioned ParseError, so a hostile file
/// cannot make one constant the size of the input.
inline constexpr size_t kDxMaxQuotedBytes = size_t{64} << 10;

/// Splits a `.dx` source into tokens (views into `src`; see DxToken).
/// Lexing is eager — the whole source is tokenized before parsing starts
/// — so a lexical error anywhere wins over a parse error earlier in the
/// file. Fails with a positioned ParseError ("line L, col C") on unknown
/// characters, unterminated quotes, or quoted strings longer than
/// kDxMaxQuotedBytes.
Result<std::vector<DxToken>> DxLex(std::string_view src);
Result<std::vector<DxToken>> DxLex(std::string_view src,
                                   const DxLexOptions& options);

/// Maps a byte offset back to "line L, col C" (both 1-based). Used to
/// position errors reported by the embedded formula/rule parsers, which
/// speak absolute offsets.
struct DxLineIndex {
  explicit DxLineIndex(std::string_view src);

  uint32_t LineOf(size_t offset) const;
  uint32_t ColOf(size_t offset) const;
  std::string Describe(size_t offset) const;  ///< "line L, col C"

 private:
  std::vector<size_t> line_starts_;  ///< Offset of the start of each line.
};

}  // namespace ocdx

#endif  // OCDX_TEXT_DX_LEXER_H_
