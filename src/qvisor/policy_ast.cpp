#include "qvisor/policy_ast.hpp"

#include <algorithm>
#include <set>

#include "qvisor/policy_lexer.hpp"

namespace qv::qvisor {

PolicyExpr PolicyExpr::leaf(std::string name, double weight) {
  PolicyExpr e;
  e.kind = Kind::kTenant;
  e.tenant = std::move(name);
  e.weight = weight;
  return e;
}

PolicyExpr PolicyExpr::make(Kind kind, std::vector<PolicyExpr> children) {
  PolicyExpr e;
  e.kind = kind;
  e.children = std::move(children);
  return e;
}

std::vector<std::string> PolicyExpr::tenant_names() const {
  std::vector<std::string> out;
  if (is_leaf()) {
    out.push_back(tenant);
    return out;
  }
  for (const auto& child : children) {
    for (auto& name : child.tenant_names()) out.push_back(std::move(name));
  }
  return out;
}

std::size_t PolicyExpr::depth() const {
  if (is_leaf()) return 1;
  std::size_t deepest = 0;
  for (const auto& child : children) {
    deepest = std::max(deepest, child.depth());
  }
  return deepest + 1;
}

namespace {

// The operators, loosest first. A node's index here is its precedence
// and its parse level, so the parser and the printer share one table.
constexpr struct {
  PolicyExpr::Kind kind;
  const char* op;
} kLevels[] = {{PolicyExpr::Kind::kIsolate, ">>"},
               {PolicyExpr::Kind::kPrefer, ">"},
               {PolicyExpr::Kind::kShare, "+"}};
constexpr int kTermLevel = 3;

int precedence(PolicyExpr::Kind kind) {
  for (int level = 0; level < kTermLevel; ++level) {
    if (kLevels[level].kind == kind) return level;
  }
  return kTermLevel;
}

std::string weight_suffix(double weight) {
  return weight == 1.0 ? "" : " * " + print_double(weight);
}

}  // namespace

std::string PolicyExpr::to_string_prec(int parent_prec) const {
  if (is_leaf()) return tenant + weight_suffix(weight);
  const int prec = precedence(kind);
  std::string body;
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (i > 0) {
      body += ' ';
      body += kLevels[prec].op;
      body += ' ';
    }
    body += children[i].to_string_prec(prec);
  }
  // `<=`, not `<`: a same-kind nested child ("(A + B) + C") is a
  // distinct policy from the flat n-ary form ("A + B + C" splits the
  // link three ways; the nested form gives the pair one joint share),
  // so it must keep its parentheses to reparse to the same tree.
  const bool needs_parens = prec <= parent_prec || weight != 1.0;
  if (needs_parens) return "(" + body + ")" + weight_suffix(weight);
  return body;
}

std::string PolicyExpr::to_string() const { return to_string_prec(-1); }

bool operator==(const PolicyExpr& a, const PolicyExpr& b) {
  return a.kind == b.kind && a.tenant == b.tenant &&
         a.weight == b.weight && a.children == b.children;
}

// --- parser -----------------------------------------------------------

namespace {

class ExprParser {
 public:
  explicit ExprParser(const std::string& text) : lex_(text) {}

  ExprParseResult parse() {
    std::optional<PolicyExpr> expr;
    if (lex_.at_end()) {
      fail("empty policy expression", lex_.pos());
    } else if ((expr = parse_level(0)) && !lex_.at_end()) {
      expr = fail("expected '>>', '>' or '+' after operand", lex_.pos());
    }
    return {std::move(expr), std::move(error_), error_pos_};
  }

 private:
  std::nullopt_t fail(std::string message, std::size_t pos) {
    error_ = std::move(message);
    error_pos_ = pos;
    return std::nullopt;
  }

  /// One operator of kLevels joining the next-tighter level (terms
  /// below "+"). A single operand is returned as-is.
  std::optional<PolicyExpr> parse_level(int level) {
    std::vector<PolicyExpr> children;
    do {
      auto child =
          level + 1 == kTermLevel ? parse_term() : parse_level(level + 1);
      if (!child) return std::nullopt;
      children.push_back(std::move(*child));
    } while (lex_.consume_op(kLevels[level].op));
    if (children.size() == 1) return std::move(children[0]);
    return PolicyExpr::make(kLevels[level].kind, std::move(children));
  }

  std::optional<PolicyExpr> parse_term() {
    auto atom = parse_atom();
    if (!atom || !lex_.consume('*')) return atom;
    if (!lex_.number(atom->weight)) {
      return fail("expected positive weight after '*'", lex_.pos());
    }
    return atom;
  }

  std::optional<PolicyExpr> parse_atom() {
    if (lex_.consume('(')) {
      // Each '(' costs a few stack frames; the cap keeps an outside
      // "((((..." document from overflowing the stack.
      if (++nesting_ > kMaxNesting) {
        return fail("parentheses nested too deep", lex_.pos() - 1);
      }
      auto inner = parse_level(0);
      --nesting_;
      if (inner && !lex_.consume(')')) return fail("expected ')'", lex_.pos());
      return inner;
    }
    std::string name = lex_.word();
    if (name.empty()) return fail("expected tenant name or '('", lex_.pos());
    if (!seen_.insert(name).second) {
      return fail("tenant '" + name + "' appears more than once",
                  lex_.pos() - name.size());
    }
    return PolicyExpr::leaf(std::move(name));
  }

  static constexpr int kMaxNesting = 64;

  PolicyLexer lex_;
  int nesting_ = 0;
  std::set<std::string> seen_;
  std::string error_;
  std::size_t error_pos_ = 0;
};

}  // namespace

ExprParseResult parse_policy_expr(const std::string& text) {
  return ExprParser(text).parse();
}

// --- flat conversions ----------------------------------------------------

namespace {

bool default_weights(const PolicyExpr& e) {
  if (e.weight != 1.0) return false;
  for (const auto& child : e.children) {
    if (!default_weights(child)) return false;
  }
  return true;
}

}  // namespace

std::optional<OperatorPolicy> to_flat_policy(const PolicyExpr& expr) {
  if (!default_weights(expr)) return std::nullopt;

  // Normalize the expression into the three fixed strata of the flat
  // grammar: isolate over prefer over share over tenants.
  const auto as_group =
      [](const PolicyExpr& e) -> std::optional<SharingGroup> {
    SharingGroup group;
    if (e.is_leaf()) {
      group.tenants.push_back(e.tenant);
      return group;
    }
    if (e.kind != PolicyExpr::Kind::kShare) return std::nullopt;
    for (const auto& child : e.children) {
      if (!child.is_leaf()) return std::nullopt;
      group.tenants.push_back(child.tenant);
    }
    return group;
  };
  const auto as_tier =
      [&](const PolicyExpr& e) -> std::optional<PriorityTier> {
    PriorityTier tier;
    if (auto group = as_group(e)) {
      tier.groups.push_back(std::move(*group));
      return tier;
    }
    if (e.kind != PolicyExpr::Kind::kPrefer) return std::nullopt;
    for (const auto& child : e.children) {
      auto group = as_group(child);
      if (!group) return std::nullopt;
      tier.groups.push_back(std::move(*group));
    }
    return tier;
  };

  std::vector<PriorityTier> tiers;
  if (auto tier = as_tier(expr)) {
    tiers.push_back(std::move(*tier));
    return OperatorPolicy(std::move(tiers));
  }
  if (expr.kind != PolicyExpr::Kind::kIsolate) return std::nullopt;
  for (const auto& child : expr.children) {
    auto tier = as_tier(child);
    if (!tier) return std::nullopt;
    tiers.push_back(std::move(*tier));
  }
  return OperatorPolicy(std::move(tiers));
}

PolicyExpr from_flat_policy(const OperatorPolicy& policy) {
  std::vector<PolicyExpr> tiers;
  for (const auto& tier : policy.tiers()) {
    std::vector<PolicyExpr> groups;
    for (const auto& group : tier.groups) {
      std::vector<PolicyExpr> tenants;
      for (const auto& name : group.tenants) {
        tenants.push_back(PolicyExpr::leaf(name));
      }
      groups.push_back(tenants.size() == 1
                           ? std::move(tenants[0])
                           : PolicyExpr::make(PolicyExpr::Kind::kShare,
                                              std::move(tenants)));
    }
    tiers.push_back(groups.size() == 1
                        ? std::move(groups[0])
                        : PolicyExpr::make(PolicyExpr::Kind::kPrefer,
                                           std::move(groups)));
  }
  return tiers.size() == 1 ? std::move(tiers[0])
                           : PolicyExpr::make(PolicyExpr::Kind::kIsolate,
                                              std::move(tiers));
}

}  // namespace qv::qvisor
