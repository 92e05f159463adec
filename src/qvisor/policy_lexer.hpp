// The one tokenizer of the operator policy language. The flat §3.1
// grammar (policy.hpp), its hierarchical extension (policy_ast.hpp) and
// the grouped declarations (control/group_policy.hpp) all read their
// text through this cursor, so every token has exactly one rule:
//
//   whitespace  any std::isspace character (CRLF text reads as LF text)
//   word        [A-Za-z_][A-Za-z0-9_-]*                  names
//   operator    ">>" | ">" | "+"          maximal munch: ">>" is never
//                                         read as two ">"
//   number      (D+ ["." D*] | "." D+) [("e"|"E") ["+"|"-"] D+]
//               and the value must be positive and finite   weights
//   uint32      D+ up to 4294967294 (0xffffffff is reserved)  ids
//
// No sign, hex, "inf" or "nan" form is a number. print_double() is the
// one weight printer: every string it emits for a positive finite
// weight is a `number` that reads back as exactly that weight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace qv::qvisor {

/// Shortest decimal form ("%g", else "%.17g") that reads back as
/// exactly `w`.
std::string print_double(double w);

/// A cursor over text[begin, end). Every reader skips leading
/// whitespace first; on failure it consumes nothing else, so pos()
/// then names the offending character (an offset into `text`).
class PolicyLexer {
 public:
  PolicyLexer(const std::string& text, std::size_t begin, std::size_t end)
      : text_(text), pos_(begin), end_(end) {}
  explicit PolicyLexer(const std::string& text)
      : PolicyLexer(text, 0, text.size()) {}

  std::size_t pos() const { return pos_; }
  void skip_ws();

  /// Skips whitespace; true if nothing is left.
  bool at_end();

  /// Consumes the punctuation character `c` if it comes next.
  bool consume(char c);

  /// Consumes the operator `op` (">>", ">" or "+") if it comes next.
  bool consume_op(std::string_view op);

  /// A name, or "" if none comes next.
  std::string word();

  bool number(double& out);
  bool uint32(std::uint32_t& out);

 private:
  const std::string& text_;
  std::size_t pos_;
  std::size_t end_;
};

}  // namespace qv::qvisor
