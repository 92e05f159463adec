#include "control/group_policy.hpp"

#include <algorithm>
#include <unordered_set>

#include "qvisor/policy_lexer.hpp"

namespace qv::control {

namespace {

GroupedPolicyParseResult fail(std::string error, std::size_t pos) {
  GroupedPolicyParseResult r;
  r.error = std::move(error);
  r.error_pos = pos;
  return r;
}

}  // namespace

bool operator==(const GroupDecl& a, const GroupDecl& b) {
  const bool bounds_eq =
      a.bounds.has_value() == b.bounds.has_value() &&
      (!a.bounds || (a.bounds->min == b.bounds->min &&
                     a.bounds->max == b.bounds->max));
  return a.name == b.name && a.spans == b.spans &&
         a.catch_all == b.catch_all && a.weight == b.weight && bounds_eq;
}

bool operator==(const GroupedPolicy& a, const GroupedPolicy& b) {
  return a.groups == b.groups && a.policy == b.policy;
}

std::string GroupedPolicy::to_string() const {
  std::string out;
  for (const GroupDecl& g : groups) {
    out += "group ";
    out += g.name;
    out += " =";
    bool first = true;
    for (const GroupDecl::Span& s : g.spans) {
      out += first ? " " : ", ";
      first = false;
      out += std::to_string(s.lo);
      if (s.hi != s.lo) {
        out += "..";
        out += std::to_string(s.hi);
      }
    }
    if (g.catch_all) {
      out += first ? " *" : ", *";
    }
    if (g.weight != 1.0) {
      out += " weight ";
      out += qvisor::print_double(g.weight);
    }
    if (g.bounds) {
      out += " bounds ";
      out += std::to_string(g.bounds->min);
      out += "..";
      out += std::to_string(g.bounds->max);
    }
    out += '\n';
  }
  out += "policy ";
  out += policy.to_string();
  out += '\n';
  return out;
}

GroupedPolicyParseResult parse_grouped_policy(const std::string& text) {
  GroupedPolicy result;
  bool have_policy = false;
  std::size_t policy_offset = 0;
  std::string policy_text;

  std::size_t line_begin = 0;
  while (line_begin <= text.size()) {
    std::size_t line_end = text.find('\n', line_begin);
    if (line_end == std::string::npos) line_end = text.size();
    // Comments run to end of line.
    std::size_t content_end = line_end;
    for (std::size_t i = line_begin; i < line_end; ++i) {
      if (text[i] == '#') {
        content_end = i;
        break;
      }
    }
    qvisor::PolicyLexer lp(text, line_begin, content_end);
    if (!lp.at_end()) {
      const std::size_t kw_pos = lp.pos();
      const std::string kw = lp.word();
      if (kw == "group") {
        GroupDecl decl;
        const std::size_t name_pos = lp.pos();
        decl.name = lp.word();
        if (decl.name.empty()) {
          return fail("expected group name after 'group'", name_pos);
        }
        if (decl.name == "group" || decl.name == "policy" ||
            decl.name == "weight" || decl.name == "bounds") {
          return fail("'" + decl.name + "' is a reserved word", name_pos);
        }
        if (!lp.consume('=')) {
          return fail("expected '=' after group name", lp.pos());
        }
        // Comma-separated ranges / ids / '*'.
        while (true) {
          lp.skip_ws();
          const std::size_t item_pos = lp.pos();
          if (lp.consume('*')) {
            if (decl.catch_all) {
              return fail("duplicate '*' in group '" + decl.name + "'",
                          item_pos);
            }
            decl.catch_all = true;
          } else {
            GroupDecl::Span s;
            if (!lp.uint32(s.lo)) {
              return fail("expected tenant id, range, or '*'", item_pos);
            }
            s.hi = s.lo;
            if (lp.consume('.')) {
              if (!lp.consume('.') || !lp.uint32(s.hi)) {
                return fail("expected 'lo..hi' range", item_pos);
              }
              if (s.hi < s.lo) {
                return fail("inverted range " + std::to_string(s.lo) + ".." +
                                std::to_string(s.hi),
                            item_pos);
              }
            }
            decl.spans.push_back(s);
          }
          if (!lp.consume(',')) break;
        }
        if (decl.spans.empty() && !decl.catch_all) {
          return fail("group '" + decl.name + "' declares no tenants",
                      lp.pos());
        }
        // Optional trailing attributes, in order: weight, bounds.
        std::size_t attr_pos = lp.pos();
        std::string attr = lp.word();
        if (attr == "weight") {
          const std::size_t wpos = lp.pos();
          if (!lp.number(decl.weight) || !(decl.weight < 1e18)) {
            return fail("expected positive finite weight", wpos);
          }
          attr_pos = lp.pos();
          attr = lp.word();
        }
        if (attr == "bounds") {
          sched::RankBounds b;
          const std::size_t bpos = lp.pos();
          if (!lp.uint32(b.min) || !lp.consume('.') || !lp.consume('.') ||
              !lp.uint32(b.max)) {
            return fail("expected 'bounds lo..hi'", bpos);
          }
          if (b.max < b.min) {
            return fail("inverted bounds", bpos);
          }
          decl.bounds = b;
          attr_pos = lp.pos();
          attr = lp.word();
        }
        if (!attr.empty() || !lp.at_end()) {
          return fail("unexpected trailing input in group declaration",
                      attr.empty() ? lp.pos() : attr_pos);
        }
        result.groups.push_back(std::move(decl));
      } else if (kw == "policy") {
        if (have_policy) {
          return fail("duplicate 'policy' line", kw_pos);
        }
        have_policy = true;
        lp.skip_ws();
        policy_offset = lp.pos();
        policy_text = text.substr(policy_offset, content_end - policy_offset);
      } else {
        return fail("expected 'group' or 'policy'", kw_pos);
      }
    }
    line_begin = line_end + 1;
  }

  if (result.groups.empty()) {
    return fail("no group declarations", 0);
  }
  if (!have_policy) {
    return fail("missing 'policy' line", text.size());
  }

  // Name uniqueness + single catch-all.
  std::unordered_set<std::string> names;
  bool saw_catch_all = false;
  for (const GroupDecl& g : result.groups) {
    if (!names.insert(g.name).second) {
      return fail("duplicate group '" + g.name + "'", 0);
    }
    if (g.catch_all) {
      if (saw_catch_all) {
        return fail("multiple catch-all ('*') groups", 0);
      }
      saw_catch_all = true;
    }
  }

  // Disjointness across ALL spans: sort by lo, adjacent overlap check.
  struct Owned {
    GroupDecl::Span span;
    const std::string* group;
  };
  std::vector<Owned> all;
  for (const GroupDecl& g : result.groups) {
    for (const GroupDecl::Span& s : g.spans) all.push_back({s, &g.name});
  }
  std::sort(all.begin(), all.end(), [](const Owned& a, const Owned& b) {
    return a.span.lo < b.span.lo;
  });
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].span.lo <= all[i - 1].span.hi) {
      return fail("ranges of '" + *all[i - 1].group + "' and '" +
                      *all[i].group + "' overlap at id " +
                      std::to_string(all[i].span.lo),
                  0);
    }
  }

  // The inter-group policy is the flat restriction of the one grammar.
  auto parsed = qvisor::parse_policy(policy_text);
  if (!parsed.ok()) {
    return fail("policy: " + parsed.error, policy_offset + parsed.error_pos);
  }
  result.policy = std::move(*parsed.policy);

  // Exact name agreement both ways (mirrors the synthesizer's rule that
  // the policy and the tenant set must match).
  for (const std::string& n : result.policy.tenant_names()) {
    if (names.find(n) == names.end()) {
      return fail("policy names undeclared group '" + n + "'", policy_offset);
    }
  }
  for (const GroupDecl& g : result.groups) {
    if (!result.policy.mentions(g.name)) {
      return fail("group '" + g.name + "' missing from policy", policy_offset);
    }
  }

  GroupedPolicyParseResult ok;
  ok.value = std::move(result);
  return ok;
}

}  // namespace qv::control
