// Hierarchical policy expressions (paper §5, "Increasing specification
// expressivity": PIFO trees and richer operator specifications).
//
// The flat §3.1 language is extended with parentheses and optional
// weights, giving a full expression tree:
//
//   expr  := pref  (">>" pref)*          lowest precedence, isolation
//   pref  := share (">"  share)*         best-effort preference
//   share := term  ("+"  term)*          (weighted) fair sharing
//   term  := atom ["*" weight]
//   atom  := tenant | "(" expr ")"
//
// "(T1 >> T2) + T3 * 2" — the pair {T1 strictly above T2} shares the
// link with T3, with T3 entitled to 2x the pair's bandwidth.
//
// This is the one policy grammar: parse_policy() (policy.hpp) is this
// parser plus the flat restriction to_flat_policy(), and the grouped
// language (control/group_policy.hpp) reads its `policy` line through
// parse_policy(). Tokens come from the one lexer (policy_lexer.hpp):
// any std::isspace character is whitespace, and a weight is a positive
// finite decimal such as 2, 0.5, .5 or 1e-07 — no sign, hex, inf or
// nan. Weights print through print_double(), the shortest text that
// reads back as exactly the same double. Parentheses nest at most 64
// deep; deeper text is rejected rather than parsed on an unbounded
// stack.
//
// A flat expression round-trips with the §3.1 OperatorPolicy; a nested
// one can be deployed EXACTLY on a PIFO-tree backend (hierarchy.hpp) or
// APPROXIMATELY flattened onto a single rank space, with the
// approximations reported.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "qvisor/policy.hpp"

namespace qv::qvisor {

struct PolicyExpr {
  enum class Kind {
    kTenant,   ///< leaf
    kShare,    ///< '+' over children (weights apply)
    kPrefer,   ///< '>' over children (first = preferred)
    kIsolate,  ///< '>>' over children (first = strictly higher)
  };

  Kind kind = Kind::kTenant;
  std::string tenant;                ///< kTenant only
  std::vector<PolicyExpr> children;  ///< inner nodes
  double weight = 1.0;               ///< share entitlement of this term

  static PolicyExpr leaf(std::string name, double weight = 1.0);
  static PolicyExpr make(Kind kind, std::vector<PolicyExpr> children);

  bool is_leaf() const { return kind == Kind::kTenant; }

  /// All tenant names, left to right. Duplicates impossible post-parse.
  std::vector<std::string> tenant_names() const;

  /// Depth of the tree: a leaf is 1. Flat §3.1 policies have depth <= 4
  /// with strictly descending operator precedence on every path.
  std::size_t depth() const;

  /// Canonical text (fully parenthesized for nested sub-expressions,
  /// minimal otherwise). Parsing it yields an equal expression.
  std::string to_string() const;

  friend bool operator==(const PolicyExpr& a, const PolicyExpr& b);

 private:
  std::string to_string_prec(int parent_prec) const;
};

struct ExprParseResult {
  std::optional<PolicyExpr> expr;
  std::string error;
  std::size_t error_pos = 0;

  bool ok() const { return expr.has_value(); }
};

/// Parse the extended grammar. Tenant names as in parse_policy();
/// weights are positive finite decimals (policy_lexer.hpp). Duplicate
/// tenants are rejected.
ExprParseResult parse_policy_expr(const std::string& text);

/// Convert to the flat §3.1 OperatorPolicy when the expression respects
/// the natural precedence nesting (no parenthesized sub-structure that
/// the flat language cannot express, and no non-default weights).
/// Returns nullopt for truly hierarchical expressions.
std::optional<OperatorPolicy> to_flat_policy(const PolicyExpr& expr);

/// Lift a flat policy into the expression form (always succeeds).
PolicyExpr from_flat_policy(const OperatorPolicy& policy);

}  // namespace qv::qvisor
