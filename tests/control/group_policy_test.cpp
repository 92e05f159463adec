// Grouped policy language: parse/validate/round-trip (ISSUE 7).
#include "control/group_policy.hpp"

#include <gtest/gtest.h>

namespace qv::control {
namespace {

GroupedPolicy must_parse(const std::string& text) {
  const auto r = parse_grouped_policy(text);
  EXPECT_TRUE(r.ok()) << r.error << " at " << r.error_pos << "\n" << text;
  return r.ok() ? *r.value : GroupedPolicy{};
}

TEST(GroupPolicy, ParsesDeclarationsAndPolicy) {
  const GroupedPolicy gp = must_parse(
      "# operator tiers\n"
      "group gold   = 0..999, 200000 weight 2 bounds 0..1023\n"
      "group silver = 1000..99999\n"
      "group rest   = *\n"
      "policy gold >> silver + rest\n");
  ASSERT_EQ(gp.groups.size(), 3u);
  EXPECT_EQ(gp.groups[0].name, "gold");
  ASSERT_EQ(gp.groups[0].spans.size(), 2u);
  EXPECT_EQ(gp.groups[0].spans[0].lo, 0u);
  EXPECT_EQ(gp.groups[0].spans[0].hi, 999u);
  EXPECT_EQ(gp.groups[0].spans[1].lo, 200'000u);
  EXPECT_EQ(gp.groups[0].spans[1].hi, 200'000u);
  EXPECT_DOUBLE_EQ(gp.groups[0].weight, 2.0);
  ASSERT_TRUE(gp.groups[0].bounds.has_value());
  EXPECT_EQ(gp.groups[0].bounds->max, 1023u);
  EXPECT_FALSE(gp.groups[1].catch_all);
  EXPECT_TRUE(gp.groups[2].catch_all);
  EXPECT_TRUE(gp.groups[2].spans.empty());
  EXPECT_EQ(gp.groups[0].span_population(), 1001u);
  EXPECT_EQ(gp.policy.tenant_names().size(), 3u);
}

TEST(GroupPolicy, CanonicalRoundTrip) {
  const GroupedPolicy gp = must_parse(
      "group a = 0..9 weight 0.5\n"
      "group b = 10, 12, 14..20 bounds 5..50\n"
      "group c = *\n"
      "policy a > b + c\n");
  const std::string canon = gp.to_string();
  const GroupedPolicy again = must_parse(canon);
  EXPECT_EQ(gp, again);
  EXPECT_EQ(canon, again.to_string());  // fixed point
}

TEST(GroupPolicy, RejectsMalformedInput) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"policy a\n", "no group declarations"},
      {"group a = 0..9\n", "missing policy line"},
      {"group a = 0..9\ngroup a = 10..19\npolicy a >> a\n", "duplicate name"},
      {"group a = 0..9\ngroup b = 5..19\npolicy a >> b\n", "overlap"},
      {"group a = *\ngroup b = *\npolicy a >> b\n", "two catch-alls"},
      {"group a = 9..0\npolicy a\n", "inverted range"},
      {"group a =\npolicy a\n", "empty declaration"},
      {"group a = 0..9 weight -1\npolicy a\n", "negative weight"},
      {"group a = 0..9 weight 0\npolicy a\n", "zero weight"},
      {"group a = 0..9 bounds 9..1\npolicy a\n", "inverted bounds"},
      {"group a = 0..9\npolicy a >> ghost\n", "undeclared group in policy"},
      {"group a = 0..9\ngroup b = 10..19\npolicy a\n",
       "group missing from policy"},
      {"group policy = 0..9\npolicy policy\n", "reserved word as name"},
      {"frobnicate a = 0..9\npolicy a\n", "unknown keyword"},
      {"group a = 0..9\npolicy a\npolicy a\n", "duplicate policy line"},
      {"group a = 0..9 gilded\npolicy a\n", "trailing junk"},
      {"group a = 4294967295\npolicy a\n", "id hits kInvalidTenant"},
  };
  for (const auto& c : cases) {
    const auto r = parse_grouped_policy(c.text);
    EXPECT_FALSE(r.ok()) << c.why << ":\n" << c.text;
    EXPECT_FALSE(r.error.empty()) << c.why;
    EXPECT_LE(r.error_pos, std::string(c.text).size()) << c.why;
  }
}

TEST(GroupPolicy, CommentsAndBlankLinesAreFree) {
  const GroupedPolicy gp = must_parse(
      "\n"
      "# header comment\n"
      "group a = 0..9   # trailing comment\n"
      "\n"
      "group b = 10..19\n"
      "policy a >> b # the policy\n"
      "\n");
  EXPECT_EQ(gp.groups.size(), 2u);
}

TEST(GroupPolicy, CrlfLineEndingsParseLikeLf) {
  const std::string lf =
      "# tiers\n"
      "group gold = 0..999 weight 2 bounds 0..1023\n"
      "group rest = *\n"
      "policy gold >> rest\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(must_parse(crlf), must_parse(lf));
}

TEST(GroupPolicy, DeeplyNestedPolicyLineRejected) {
  const std::string text =
      "group a = 0..9\npolicy " + std::string(100'000, '(') + "a\n";
  const GroupedPolicyParseResult r = parse_grouped_policy(text);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("nested too deep"), std::string::npos) << r.error;
}

TEST(GroupPolicy, MaxValidTenantId) {
  // 0xfffffffe is the last usable id (0xffffffff == kInvalidTenant).
  const GroupedPolicy gp = must_parse(
      "group a = 0..4294967294\npolicy a\n");
  EXPECT_EQ(gp.groups[0].spans[0].hi, 0xfffffffeu);
}

}  // namespace
}  // namespace qv::control
