/** @file Tests for the protocol's minimal JSON value type. */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/json.hh"

namespace mlc {
namespace serve {
namespace {

Json
parseOk(const std::string &text)
{
    Json out;
    std::string error;
    const bool ok = Json::parse(text, out, error);
    EXPECT_TRUE(ok) << text << ": " << error;
    return out;
}

TEST(Json, ParsesEveryKind)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_DOUBLE_EQ(parseOk("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseOk("[1,2,3]").asArray().size(), 3u);
    EXPECT_TRUE(parseOk("{}").isObject());
}

TEST(Json, NestedDocumentRoundTrips)
{
    const std::string text =
        "{\"op\":\"sweep\",\"sizes\":[4096,8192],"
        "\"nested\":{\"a\":true,\"b\":null},\"x\":0.25}";
    const Json doc = parseOk(text);
    // dump() preserves insertion order and shortest-round-trip
    // numbers, so a parse/dump cycle is byte-stable.
    EXPECT_EQ(doc.dump(), text);
    EXPECT_EQ(parseOk(doc.dump()).dump(), doc.dump());
    ASSERT_NE(doc.find("nested"), nullptr);
    EXPECT_TRUE(doc.find("nested")->find("b")->isNull());
    EXPECT_EQ(doc.find("sizes")->asArray()[1].asU64(), 8192u);
}

TEST(Json, StringEscapes)
{
    const Json doc = parseOk("\"a\\\"b\\\\c\\n\\t\\u0041\"");
    EXPECT_EQ(doc.asString(), "a\"b\\c\n\tA");
    // Control characters re-escape on dump.
    EXPECT_EQ(Json(std::string("x\ny")).dump(), "\"x\\ny\"");
}

TEST(Json, NumberFormattingIsCanonical)
{
    // Integers print without a fractional part — memoized payloads
    // depend on one canonical spelling per value.
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(4194304.0), "4194304");
    EXPECT_EQ(jsonNumber(0.25), "0.25");
    // Shortest-round-trip: the value survives a parse.
    const double v = 0.9731530845;
    EXPECT_DOUBLE_EQ(parseOk(jsonNumber(v)).asNumber(), v);
}

TEST(Json, ObjectSetReplacesInPlace)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    obj.set("b", Json(2));
    obj.set("a", Json(3)); // replace must not reorder
    EXPECT_EQ(obj.dump(), "{\"a\":3,\"b\":2}");
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, QuoteEscapesForTheWire)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonQuote("tab\there"), "\"tab\\there\"");
}

TEST(Json, RejectsMalformedInput)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("{\"a\":}", out, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(Json::parse("[1,2", out, error));
    EXPECT_FALSE(Json::parse("\"unterminated", out, error));
    EXPECT_FALSE(Json::parse("tru", out, error));
    // Trailing garbage after a complete value is an error too.
    EXPECT_FALSE(Json::parse("{} {}", out, error));
    // Trailing whitespace is fine (lines come off a socket).
    EXPECT_TRUE(Json::parse("{} \n", out, error)) << error;
}

/** @p depth objects nested through key "k" around a 0. */
std::string
nestedObjects(std::size_t depth)
{
    std::string s;
    for (std::size_t i = 0; i < depth; ++i)
        s += "{\"k\":";
    return s + "0" + std::string(depth, '}');
}

TEST(Json, NestingAtTheLimitParses)
{
    const std::size_t d = Json::kMaxDepth;
    const Json doc = parseOk(std::string(d, '[') + std::string(d, ']'));
    const Json *v = &doc;
    for (std::size_t i = 1; i < d; ++i) {
        ASSERT_EQ(v->asArray().size(), 1u);
        v = &v->asArray()[0];
    }
    EXPECT_TRUE(v->asArray().empty());
    EXPECT_TRUE(parseOk(nestedObjects(d)).isObject());
}

TEST(Json, NestingPastTheLimitFailsCleanly)
{
    const std::size_t d = Json::kMaxDepth + 1;
    const std::vector<std::string> too_deep = {
        std::string(d, '[') + std::string(d, ']'),
        nestedObjects(d),
        std::string("[").append(nestedObjects(d - 1)).append("]"),
        // 2 MB of '[': deep enough to overflow an unbounded
        // recursive-descent parser's stack.
        std::string(2u << 20, '['),
    };
    for (const std::string &text : too_deep) {
        Json out;
        std::string error;
        EXPECT_FALSE(Json::parse(text, out, error));
        EXPECT_TRUE(Json::tooDeep(error)) << error;
        EXPECT_NE(error.find("nesting deeper than 64 levels"),
                  std::string::npos)
            << error;
    }

    // Other errors are not mistaken for the nesting limit.
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("[[1,", out, error));
    EXPECT_FALSE(Json::tooDeep(error)) << error;
}

TEST(Json, AsU64ChecksIntegrality)
{
    EXPECT_EQ(parseOk("262144").asU64(), 262144u);
    EXPECT_DEATH((void)parseOk("0.5").asU64(), "");
    EXPECT_DEATH((void)parseOk("-1").asU64(), "");
}

} // namespace
} // namespace serve
} // namespace mlc
