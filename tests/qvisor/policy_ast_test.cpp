#include "qvisor/policy_ast.hpp"

#include <gtest/gtest.h>

namespace qv::qvisor {
namespace {

using Kind = PolicyExpr::Kind;

TEST(PolicyExprParser, FlatExpressionsMatchFlatGrammar) {
  auto r = parse_policy_expr("T1 >> T2 > T3 + T4 >> T5");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.expr->kind, Kind::kIsolate);
  ASSERT_EQ(r.expr->children.size(), 3u);
  EXPECT_EQ(r.expr->children[0].tenant, "T1");
  EXPECT_EQ(r.expr->children[1].kind, Kind::kPrefer);
  EXPECT_EQ(r.expr->children[2].tenant, "T5");
}

TEST(PolicyExprParser, PrecedencePlusBindsTightest) {
  auto r = parse_policy_expr("a + b > c >> d");
  ASSERT_TRUE(r.ok());
  // ((a + b) > c) >> d
  EXPECT_EQ(r.expr->kind, Kind::kIsolate);
  const auto& left = r.expr->children[0];
  EXPECT_EQ(left.kind, Kind::kPrefer);
  EXPECT_EQ(left.children[0].kind, Kind::kShare);
}

TEST(PolicyExprParser, ParenthesesOverridePrecedence) {
  auto r = parse_policy_expr("(a >> b) + c");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.expr->kind, Kind::kShare);
  ASSERT_EQ(r.expr->children.size(), 2u);
  EXPECT_EQ(r.expr->children[0].kind, Kind::kIsolate);
  EXPECT_EQ(r.expr->children[1].tenant, "c");
  EXPECT_EQ(r.expr->depth(), 3u);
}

TEST(PolicyExprParser, Weights) {
  auto r = parse_policy_expr("a * 2 + b + c * 0.5");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.expr->kind, Kind::kShare);
  EXPECT_DOUBLE_EQ(r.expr->children[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(r.expr->children[1].weight, 1.0);
  EXPECT_DOUBLE_EQ(r.expr->children[2].weight, 0.5);
}

TEST(PolicyExprParser, WeightOnParenthesizedGroup) {
  auto r = parse_policy_expr("(a >> b) * 3 + c");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.expr->children[0].weight, 3.0);
}

TEST(PolicyExprParser, DeepNesting) {
  auto r = parse_policy_expr("((a + b) >> (c > d)) + (e >> f)");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.expr->kind, Kind::kShare);
  EXPECT_EQ(r.expr->tenant_names(),
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f"}));
  EXPECT_GE(r.expr->depth(), 3u);
}

TEST(PolicyExprParser, Errors) {
  EXPECT_FALSE(parse_policy_expr("").ok());
  EXPECT_FALSE(parse_policy_expr("(a >> b").ok());   // missing ')'
  EXPECT_FALSE(parse_policy_expr("a >> b)").ok());   // trailing ')'
  EXPECT_FALSE(parse_policy_expr("a * -2").ok());    // bad weight
  EXPECT_FALSE(parse_policy_expr("a * 0").ok());     // zero weight
  EXPECT_FALSE(parse_policy_expr("a * ").ok());      // missing weight
  EXPECT_FALSE(parse_policy_expr("a + + b").ok());
  EXPECT_FALSE(parse_policy_expr("a + a").ok());     // duplicate
  EXPECT_FALSE(parse_policy_expr("(a) (b)").ok());   // trailing input
}

TEST(PolicyExprParser, DeepNestingRejectedWithoutRecursingOnIt) {
  const std::string ok = std::string(64, '(') + "a" + std::string(64, ')');
  EXPECT_TRUE(parse_policy_expr(ok).ok());
  EXPECT_TRUE(parse_policy(ok).ok());

  const std::string deep(100'000, '(');
  for (const std::string& text : {deep, deep + "a", "a >> " + deep}) {
    const auto expr = parse_policy_expr(text);
    ASSERT_FALSE(expr.ok());
    EXPECT_EQ(expr.error, "parentheses nested too deep");
    const auto flat = parse_policy(text);
    ASSERT_FALSE(flat.ok());
    EXPECT_EQ(flat.error, "parentheses nested too deep");
  }
}

TEST(PolicyExprParser, MissingOperatorIsNamed) {
  const auto r = parse_policy("T1 T2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "expected '>>', '>' or '+' after operand");
  EXPECT_EQ(r.error_pos, 3u);
}

TEST(PolicyExprParser, NumberIsNotATenantName) {
  // Tenant names follow the one name rule: ".", ".5" and "..4" are not
  // names, wherever they stand.
  EXPECT_FALSE(parse_policy_expr(".").ok());
  EXPECT_FALSE(parse_policy_expr("a > .5").ok());
  EXPECT_FALSE(parse_policy_expr("a * 0.5 + b > ..4").ok());
}

TEST(PolicyExprParser, DuplicateAcrossNestingRejected) {
  EXPECT_FALSE(parse_policy_expr("(a >> b) + (c > a)").ok());
}

class ExprRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ExprRoundTrip, ParsePrintParseIsIdentity) {
  auto first = parse_policy_expr(GetParam());
  ASSERT_TRUE(first.ok()) << first.error;
  const std::string printed = first.expr->to_string();
  auto second = parse_policy_expr(printed);
  ASSERT_TRUE(second.ok()) << printed << " -> " << second.error;
  EXPECT_EQ(*first.expr, *second.expr) << printed;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ExprRoundTrip,
    ::testing::Values("T1", "a + b", "a > b", "a >> b",
                      "T1 >> T2 > T3 + T4 >> T5", "(a >> b) + c",
                      "((a + b) >> c) > d", "a * 2 + b * 0.5",
                      "(a >> b) * 3 + c", "(a > b) + (c > d) >> e",
                      // Same-kind nesting: the pair (a + b) shares as
                      // ONE unit against c, so the parens must survive
                      // printing (fuzzer-found).
                      "(a + b) + c * 2 > d", "(a > b) > c",
                      "(a >> b) >> c",
                      // Weights print as the shortest text that reads
                      // back exactly, exponent forms included.
                      "a * 1000000 + b", "a * 0.1234567 + b",
                      "a * 1e-07 + b"));

TEST(PolicyExpr, SameKindNestingKeepsParens) {
  auto r = parse_policy_expr("(a + b) + c * 2 > d");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.expr->to_string(), "(a + b) + c * 2 > d");
}

TEST(FlatConversion, FlatExpressionConverts) {
  auto expr = parse_policy_expr("T1 >> T2 > T3 + T4 >> T5");
  ASSERT_TRUE(expr.ok());
  auto flat = to_flat_policy(*expr.expr);
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->to_string(), "T1 >> T2 > T3 + T4 >> T5");
}

TEST(FlatConversion, SingleTenantConverts) {
  auto expr = parse_policy_expr("only");
  ASSERT_TRUE(expr.ok());
  auto flat = to_flat_policy(*expr.expr);
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->tenant_names(), (std::vector<std::string>{"only"}));
}

TEST(FlatConversion, NestedExpressionDoesNot) {
  auto expr = parse_policy_expr("(a >> b) + c");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(to_flat_policy(*expr.expr).has_value());
}

TEST(FlatConversion, WeightedExpressionDoesNot) {
  auto expr = parse_policy_expr("a * 2 + b");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(to_flat_policy(*expr.expr).has_value());
}

TEST(FlatConversion, FromFlatRoundTrips) {
  auto parsed = parse_policy("T1 >> T2 + T3 > T4");
  ASSERT_TRUE(parsed.ok());
  const PolicyExpr expr = from_flat_policy(*parsed.policy);
  auto back = to_flat_policy(expr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, *parsed.policy);
}

TEST(PolicyExpr, TenantNamesLeftToRight) {
  auto r = parse_policy_expr("(x >> y) + (z > w)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.expr->tenant_names(),
            (std::vector<std::string>{"x", "y", "z", "w"}));
}

}  // namespace
}  // namespace qv::qvisor
