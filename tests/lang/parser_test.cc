#include "lang/parser.h"

#include <gtest/gtest.h>

namespace cepr {
namespace {

constexpr char kFullQuery[] =
    "SELECT a.symbol, a.price AS start, LAST(b).price, c.price "
    "FROM Stock "
    "MATCH PATTERN SEQ(a, b+, !n, c) "
    "USING SKIP_TILL_ANY_MATCH "
    "PARTITION BY symbol "
    "WHERE a.price > 20 AND b[i].price < b[i-1].price AND c.price > a.price "
    "WITHIN 10 MINUTES "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 5 "
    "EMIT ON WINDOW CLOSE;";

TEST(ParserTest, FullQueryParses) {
  auto q = ParseQuery(kFullQuery);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->stream_name, "Stock");
  EXPECT_EQ(q->select.size(), 4u);
  EXPECT_EQ(q->select[1].alias, "start");
  ASSERT_EQ(q->pattern.size(), 4u);
  EXPECT_EQ(q->pattern[0].var, "a");
  EXPECT_FALSE(q->pattern[0].kleene);
  EXPECT_TRUE(q->pattern[1].kleene);
  EXPECT_TRUE(q->pattern[2].negated);
  EXPECT_EQ(q->pattern[2].var, "n");
  EXPECT_EQ(q->strategy, SelectionStrategy::kSkipTillAny);
  EXPECT_EQ(q->partition_attr, "symbol");
  ASSERT_NE(q->where, nullptr);
  EXPECT_EQ(q->within_micros, 10 * kMicrosPerMinute);
  ASSERT_NE(q->rank_by, nullptr);
  EXPECT_TRUE(q->rank_desc);
  EXPECT_EQ(q->limit, 5);
  EXPECT_EQ(q->emit, EmitPolicy::kOnWindowClose);
}

TEST(ParserTest, MinimalQueryDefaults) {
  auto q = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(x)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->select.empty());  // SELECT *
  EXPECT_EQ(q->strategy, SelectionStrategy::kSkipTillNext);
  EXPECT_TRUE(q->partition_attr.empty());
  EXPECT_EQ(q->where, nullptr);
  EXPECT_EQ(q->within_micros, 0);
  EXPECT_EQ(q->rank_by, nullptr);
  EXPECT_EQ(q->limit, -1);
  EXPECT_EQ(q->emit, EmitPolicy::kOnComplete);
}

TEST(ParserTest, TypedPatternComponents) {
  auto q = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(Buy a, Sell b+)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->pattern[0].type_tag, "Buy");
  EXPECT_EQ(q->pattern[0].var, "a");
  EXPECT_EQ(q->pattern[1].type_tag, "Sell");
  EXPECT_TRUE(q->pattern[1].kleene);
}

TEST(ParserTest, StrategySpellings) {
  for (const auto& [text, expect] :
       std::vector<std::pair<std::string, SelectionStrategy>>{
           {"STRICT", SelectionStrategy::kStrictContiguity},
           {"strict_contiguity", SelectionStrategy::kStrictContiguity},
           {"skip_till_next_match", SelectionStrategy::kSkipTillNext},
           {"SKIP_TILL_ANY_MATCH", SelectionStrategy::kSkipTillAny}}) {
    auto q = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) USING " + text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    EXPECT_EQ(q->strategy, expect) << text;
  }
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) USING bogus").ok());
}

TEST(ParserTest, TimeUnits) {
  for (const auto& [unit, micros] :
       std::vector<std::pair<std::string, Timestamp>>{
           {"MICROSECONDS", 1},
           {"MILLISECONDS", 1000},
           {"SECONDS", kMicrosPerSecond},
           {"MINUTES", kMicrosPerMinute},
           {"HOURS", kMicrosPerHour},
           {"second", kMicrosPerSecond}}) {
    auto q =
        ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) WITHIN 2 " + unit);
    ASSERT_TRUE(q.ok()) << unit;
    EXPECT_EQ(q->within_micros, 2 * micros) << unit;
  }
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) WITHIN 2 fortnights").ok());
}

TEST(ParserTest, RankAscDesc) {
  auto asc = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) RANK BY a.x ASC");
  ASSERT_TRUE(asc.ok());
  EXPECT_FALSE(asc->rank_desc);
  auto def = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) RANK BY a.x");
  ASSERT_TRUE(def.ok());
  EXPECT_TRUE(def->rank_desc);  // DESC is the default
}

TEST(ParserTest, EmitVariants) {
  auto complete =
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT ON COMPLETE");
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(complete->emit, EmitPolicy::kOnComplete);

  auto every =
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT EVERY 100 EVENTS");
  ASSERT_TRUE(every.ok());
  EXPECT_EQ(every->emit, EmitPolicy::kEveryNEvents);
  EXPECT_EQ(every->emit_every_n, 100);

  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT EVERY 0 EVENTS").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT ON SUNSET").ok());
}

TEST(ParserTest, NegativeLimitRejected) {
  // The '-' cannot even start an integer here.
  EXPECT_FALSE(ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) LIMIT -1").ok());
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = ParseExpression("1 + 2 * 3 < 4 AND NOT 5 > 6 OR FALSE").value();
  // ((1 + (2*3)) < 4 AND NOT (5 > 6)) OR FALSE
  EXPECT_EQ(e->ToString(),
            "((((1 + (2 * 3)) < 4) AND NOT ((5 > 6))) OR FALSE)");
}

TEST(ParserTest, UnaryMinusBindsTighterThanMul) {
  auto e = ParseExpression("-2 * 3").value();
  EXPECT_EQ(e->ToString(), "(-(2) * 3)");
}

TEST(ParserTest, IterationIndexForms) {
  EXPECT_EQ(ParseExpression("b[i].x").value()->iter_kind, IterKind::kCurrent);
  EXPECT_EQ(ParseExpression("b[i-1].x").value()->iter_kind, IterKind::kPrev);
  EXPECT_EQ(ParseExpression("b[1].x").value()->iter_kind, IterKind::kFirst);
  EXPECT_FALSE(ParseExpression("b[2].x").ok());
  EXPECT_FALSE(ParseExpression("b[i-2].x").ok());
  EXPECT_FALSE(ParseExpression("b[j].x").ok());
}

TEST(ParserTest, AggregateSyntax) {
  auto min = ParseExpression("MIN(b.price)").value();
  EXPECT_EQ(min->kind, ExprKind::kAggregate);
  EXPECT_EQ(min->agg_func, AggFunc::kMin);
  EXPECT_EQ(min->var_name, "b");
  EXPECT_EQ(min->attr_name, "price");

  auto count = ParseExpression("COUNT(b)").value();
  EXPECT_EQ(count->agg_func, AggFunc::kCount);
  EXPECT_TRUE(count->attr_name.empty());

  auto first = ParseExpression("FIRST(b).price").value();
  EXPECT_EQ(first->agg_func, AggFunc::kFirst);
  EXPECT_EQ(first->attr_name, "price");

  EXPECT_FALSE(ParseExpression("MIN(b)").ok());
  EXPECT_FALSE(ParseExpression("FIRST(b)").ok());
  EXPECT_FALSE(ParseExpression("COUNT(b.price)").ok());
}

TEST(ParserTest, UnknownFunctionRejected) {
  auto r = ParseExpression("FROBNICATE(x.y)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown function"), std::string::npos);
}

TEST(ParserTest, BareIdentifierIsError) {
  EXPECT_FALSE(ParseExpression("price").ok());
  EXPECT_FALSE(ParseExpression("a +").ok());
  EXPECT_FALSE(ParseExpression("(1 + 2").ok());
}

TEST(ParserTest, CreateStreamBasic) {
  auto c = ParseCreateStream(
      "CREATE STREAM Stock (symbol STRING, price FLOAT RANGE [1, 1000], "
      "volume INT);");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->name, "Stock");
  ASSERT_EQ(c->attributes.size(), 3u);
  EXPECT_EQ(c->attributes[0].type, ValueType::kString);
  ASSERT_TRUE(c->attributes[1].range.has_value());
  EXPECT_EQ(c->attributes[1].range->lo, 1.0);
  EXPECT_EQ(c->attributes[1].range->hi, 1000.0);
  EXPECT_FALSE(c->attributes[2].range.has_value());
}

TEST(ParserTest, CreateStreamNegativeRange) {
  auto c = ParseCreateStream("CREATE STREAM T (x FLOAT RANGE [-1.5, 2.5])");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->attributes[0].range->lo, -1.5);
}

TEST(ParserTest, CreateStreamErrors) {
  EXPECT_FALSE(ParseCreateStream("CREATE STREAM ()").ok());
  EXPECT_FALSE(ParseCreateStream("CREATE STREAM S (x BLOB)").ok());
  EXPECT_FALSE(ParseCreateStream("CREATE S (x INT)").ok());
}

TEST(ParserTest, StatementDispatch) {
  auto ddl = ParseStatement("CREATE STREAM S (x INT)");
  ASSERT_TRUE(ddl.ok());
  EXPECT_NE(ddl->create_stream, nullptr);
  EXPECT_EQ(ddl->query, nullptr);

  auto query = ParseStatement("SELECT * FROM S MATCH PATTERN SEQ(a)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->create_stream, nullptr);
  EXPECT_NE(query->query, nullptr);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) garbage").ok());
  EXPECT_FALSE(ParseExpression("1 + 2 extra").ok());
}

TEST(ParserTest, ErrorsMentionPosition) {
  auto r = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ()");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, UnparseRoundTrips) {
  auto q1 = ParseQuery(kFullQuery).value();
  const std::string text = q1.ToString();
  auto q2 = ParseQuery(text);
  ASSERT_TRUE(q2.ok()) << "unparsed text failed to reparse:\n"
                       << text << "\n"
                       << q2.status().ToString();
  EXPECT_EQ(q2->ToString(), text);  // fixpoint after one round
}

TEST(ParserTest, UnparseCreateStreamRoundTrips) {
  auto c1 = ParseCreateStream(
                "CREATE STREAM S (a INT, b FLOAT RANGE [0, 1], c STRING)")
                .value();
  auto c2 = ParseCreateStream(c1.ToString());
  ASSERT_TRUE(c2.ok()) << c1.ToString();
  EXPECT_EQ(c2->ToString(), c1.ToString());
}

// Hostile nesting fails as InvalidArgument with a position instead of
// overflowing the recursive-descent parser's stack (or a later pass's).
TEST(ParserTest, NestingDepthIsBounded) {
  constexpr int kLevels = 100000;
  const std::string prefix = "SELECT * FROM S MATCH PATTERN SEQ(a) WHERE ";
  std::string parens = prefix + std::string(kLevels, '(') + "a.x > 1" +
                       std::string(kLevels, ')');
  std::string nots = prefix;
  for (int i = 0; i < kLevels; ++i) nots += "NOT ";
  nots += "a.x > 1";
  std::string negs = prefix;  // "- - -": "--" would open a comment
  for (int i = 0; i < kLevels; ++i) negs += "- ";
  negs += "a.x > 1";
  std::string chain = prefix + "a.x";
  for (int i = 0; i < kLevels; ++i) chain += " + a.x";
  chain += " > 1";
  std::string in_list = prefix + "a.x IN (0";
  for (int i = 1; i < kLevels; ++i) in_list += ", " + std::to_string(i);
  in_list += ")";
  for (const std::string* text : {&parens, &nots, &negs, &chain, &in_list}) {
    const auto q = ParseQuery(*text);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
        << q.status().ToString();
    EXPECT_NE(q.status().message().find("nests too deeply"), std::string::npos)
        << q.status().ToString();
    EXPECT_NE(q.status().message().find("line 1, column "), std::string::npos)
        << q.status().ToString();
  }
  // Moderate nesting still parses.
  const auto ok = ParseQuery(prefix + std::string(300, '(') + "a.x > 1" +
                             std::string(300, ')'));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace cepr
