// The grouped operator-policy language: policy at million-
// tenant scale is written over GROUPS of tenant ids, not individual
// tenants. A grouped policy is a set of group declarations followed by
// one flat inter-group policy in the existing `>>` / `>` / `+` language
// (policy.hpp), with group names standing where tenant names stood:
//
//   # gold gets ids 0-999 plus vip id 5000, twice the share weight
//   group gold   = 0..999, 5000 weight 2 bounds 0..1023
//   group silver = 1000..99999
//   group rest   = *
//   policy gold >> silver + rest
//
// Declarations: `group NAME = RANGE (, RANGE)* [weight W] [bounds L..H]`
// where RANGE is `lo..hi` (closed), a single id, or `*` — the catch-all
// for every id no other group claims (at most one per policy). Ranges
// may not overlap across groups: every tenant id resolves to exactly
// one group, which is what makes the O(1) index of group_plan.hpp
// well-defined. `#` comments to end of line; blank lines free.
//
// The language adds only the declaration lines to the one policy
// grammar. Declarations are read with the same lexer as policy text
// (qvisor/policy_lexer.hpp): any std::isspace character is whitespace,
// so CRLF files parse like LF ones, and W is the same positive finite
// decimal a `*` weight is (below 1e18; no sign, hex, inf or nan). The
// `policy` line is parse_policy() itself — the flat restriction of
// the expression grammar.
//
// to_string() is canonical: parsing its output yields an equal policy
// (the same round-trip property the flat language has, and the
// invariant the fuzz harness drives). Weights print through the one
// weight printer, qvisor::print_double().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netsim/packet.hpp"
#include "qvisor/policy.hpp"
#include "sched/rank/ranker.hpp"

namespace qv::control {

struct GroupDecl {
  std::string name;

  /// Closed intervals, in declaration order. Empty iff catch_all.
  struct Span {
    TenantId lo = 0;
    TenantId hi = 0;
    friend bool operator==(const Span& a, const Span& b) {
      return a.lo == b.lo && a.hi == b.hi;
    }
  };
  std::vector<Span> spans;
  bool catch_all = false;

  /// Sharing weight inside a `+` band (synthesizer semantics).
  double weight = 1.0;

  /// Declared rank bounds of the group's traffic; nullopt = full axis.
  std::optional<sched::RankBounds> bounds;

  /// Tenant ids covered by the spans (kMaxRank+1 … conceptually all —
  /// for the catch-all, which reports 0 here).
  std::uint64_t span_population() const {
    std::uint64_t n = 0;
    for (const Span& s : spans) n += std::uint64_t{s.hi} - s.lo + 1;
    return n;
  }

  friend bool operator==(const GroupDecl& a, const GroupDecl& b);
};

struct GroupedPolicy {
  std::vector<GroupDecl> groups;  ///< declaration order == group ordinal
  qvisor::OperatorPolicy policy;  ///< over group names

  bool empty() const { return groups.empty(); }

  /// Canonical text form; parse_grouped_policy() on it round-trips.
  std::string to_string() const;

  friend bool operator==(const GroupedPolicy& a, const GroupedPolicy& b);
};

struct GroupedPolicyParseResult {
  std::optional<GroupedPolicy> value;
  std::string error;
  std::size_t error_pos = 0;  ///< offset into the input

  bool ok() const { return value.has_value(); }
};

/// Parse and validate: duplicate group names, overlapping id ranges,
/// multiple catch-alls, empty declarations, unknown/missing groups in
/// the policy line, zero/negative weights, and inverted ranges or
/// bounds are all rejected with a position-carrying error.
GroupedPolicyParseResult parse_grouped_policy(const std::string& text);

}  // namespace qv::control
