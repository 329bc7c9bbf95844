// Unit tests for the util substrate: intrusive list, fixed containers,
// ring buffer, deterministic RNG, trace, JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/fixed_vector.hpp"
#include "util/intrusive_list.hpp"
#include "util/json.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "util/types.hpp"

namespace air {
namespace {

// ---------- Id ----------

TEST(Id, DistinctTagTypesDoNotCompare) {
  const PartitionId p{3};
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.value(), 3);
  EXPECT_FALSE(PartitionId::invalid().valid());
  EXPECT_LT(PartitionId{1}, PartitionId{2});
}

// ---------- IntrusiveList ----------

struct Node {
  int key{0};
  util::ListHook hook;
};

using NodeList = util::IntrusiveList<Node, &Node::hook>;

TEST(IntrusiveList, PushPopMaintainsOrder) {
  Node a{1, {}}, b{2, {}}, c{3, {}};
  NodeList list;
  list.push_back(a);
  list.push_back(b);
  list.push_front(c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.front().key, 3);
  EXPECT_EQ(list.back().key, 2);
  list.pop_front();
  EXPECT_EQ(list.front().key, 1);
}

TEST(IntrusiveList, UnlinkRemovesFromMiddle) {
  Node a{1, {}}, b{2, {}}, c{3, {}};
  NodeList list;
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  NodeList::remove(b);
  EXPECT_FALSE(b.hook.linked());
  std::vector<int> keys;
  for (Node& n : list) keys.push_back(n.key);
  EXPECT_EQ(keys, (std::vector<int>{1, 3}));
}

TEST(IntrusiveList, DestructorUnlinksAutomatically) {
  NodeList list;
  Node a{1, {}};
  list.push_back(a);
  {
    Node b{2, {}};
    list.push_back(b);
    EXPECT_EQ(list.size(), 2u);
  }
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.front().key, 1);
}

TEST(IntrusiveList, InsertBeforeSupportsSortedInsertion) {
  Node a{10, {}}, b{30, {}}, c{20, {}};
  NodeList list;
  list.push_back(a);
  list.push_back(b);
  list.insert_before(&b, c);
  std::vector<int> keys;
  for (Node& n : list) keys.push_back(n.key);
  EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
  Node d{40, {}};
  list.insert_before(nullptr, d);  // nullptr = end
  EXPECT_EQ(list.back().key, 40);
}

// ---------- FixedVector ----------

TEST(FixedVector, BasicOperations) {
  util::FixedVector<std::string, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back("a");
  v.emplace_back("b");
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v.back(), "b");
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
}

TEST(FixedVector, CopyAndMove) {
  util::FixedVector<std::string, 4> v;
  v.push_back("x");
  v.push_back("y");
  util::FixedVector<std::string, 4> copy = v;
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy[1], "y");
  util::FixedVector<std::string, 4> moved = std::move(v);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_TRUE(v.empty());
}

// ---------- RingBuffer ----------

TEST(RingBuffer, FifoSemantics) {
  util::RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_TRUE(ring.push(3));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(4)) << "push on full ring must fail";
  int out = 0;
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.push(4));
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(ring.pop(out));
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(ring.pop(out));
}

TEST(RingBuffer, WrapsManyTimes) {
  util::RingBuffer<int> ring(5);
  int expected = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.push(i));
    if (i % 2 == 1) {
      int a = -1, b = -1;
      ASSERT_TRUE(ring.pop(a));
      ASSERT_TRUE(ring.pop(b));
      ASSERT_EQ(a, expected++);
      ASSERT_EQ(b, expected++);
    }
  }
}

// ---------- Rng ----------

TEST(Rng, DeterministicAcrossInstances) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, UniformRespectsBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
  EXPECT_EQ(rng.uniform(5, 5), 5);
}

// ---------- Trace ----------

TEST(Trace, RecordsAndFilters) {
  util::Trace trace;
  trace.record(1, util::EventKind::kDeadlineMiss, 0, 1, 205);
  trace.record(2, util::EventKind::kPartitionDispatch, 1, 0);
  trace.record(3, util::EventKind::kDeadlineMiss, 0, 2, 400);
  EXPECT_EQ(trace.count(util::EventKind::kDeadlineMiss), 2u);
  const auto misses = trace.filtered(
      util::EventKind::kDeadlineMiss,
      [](const util::TraceEvent& e) { return e.b == 2; });
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].c, 400);
}

TEST(Trace, DisabledTraceRecordsNothing) {
  util::Trace trace;
  trace.enable(false);
  trace.record(1, util::EventKind::kUser);
  EXPECT_TRUE(trace.events().empty());
}

// ---------- JSON ----------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(util::json::parse("null").value->is_null());
  EXPECT_EQ(util::json::parse("true").value->as_bool(), true);
  EXPECT_EQ(util::json::parse("-42").value->as_int(), -42);
  EXPECT_TRUE(util::json::parse("1300").value->is_int())
      << "integral literals must stay exact";
  EXPECT_DOUBLE_EQ(util::json::parse("2.5e1").value->as_double(), 25.0);
  EXPECT_EQ(util::json::parse("\"a\\nb\"").value->as_string(), "a\nb");
}

TEST(Json, ParsesNestedStructures) {
  const auto result = util::json::parse(R"({
    "name": "fig8",            // comments allowed in config files
    "mtf": 1300,
    "windows": [ {"offset": 0}, {"offset": 200} ]
  })");
  ASSERT_TRUE(result.ok()) << result.error->to_string();
  const auto& root = *result.value;
  EXPECT_EQ(root.get_string("name", ""), "fig8");
  EXPECT_EQ(root.get_int("mtf", 0), 1300);
  EXPECT_EQ(root.find("windows")->as_array()[1].get_int("offset", -1), 200);
}

TEST(Json, ReportsErrorsWithPosition) {
  const auto result = util::json::parse("{\n  \"a\": [1, 2,\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line, 3);
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_FALSE(util::json::parse("{} extra").ok());
}

TEST(Json, DumpRoundTrips) {
  const std::string text = R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
  const auto parsed = util::json::parse(text);
  ASSERT_TRUE(parsed.ok());
  const auto reparsed = util::json::parse(parsed.value->dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value->dump(), parsed.value->dump());
}

TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(util::json::parse(nested(util::json::kMaxDepth)).ok());
  const auto too_deep = util::json::parse(nested(util::json::kMaxDepth + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.error->message.find("nesting"), std::string::npos)
      << too_deep.error->message;
  // Deep enough to overflow the stack of an unbounded recursive descent.
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  const auto hostile = util::json::parse(objects);
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.error->column, util::json::kMaxDepth * 5 + 1);
}

TEST(Json, OutOfRangeDoublesSaturateAsInts) {
  const auto as_int = [](const char* text) {
    return util::json::parse(text).value->as_int();
  };
  EXPECT_EQ(as_int("1e300"), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(as_int("-1e300"), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(as_int("9.3e18"), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(as_int("-9.3e18"), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(as_int("-2.75e2"), -275);
  EXPECT_EQ(as_int("1.9"), 1) << "in range: truncated toward zero";
  const auto line = util::json::parse(R"({"mtf":1e300})");
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value->get_int("mtf", 0),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Json, UnicodeEscapes) {
  const auto result = util::json::parse("\"A\\u00e9\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value->as_string(), "A\xc3\xa9");
}

TEST(Json, SurrogatePairDecodesToOneFourByteSequence) {
  const auto result = util::json::parse(R"("\ud83d\ude00")");
  ASSERT_TRUE(result.ok()) << result.error->to_string();
  EXPECT_EQ(result.value->as_string(), "\xf0\x9f\x98\x80");
  // Upper case hex and the extremes of the supplementary planes.
  const auto bounds = util::json::parse(R"(["\uD800\uDC00","\udbff\udfff"])");
  ASSERT_TRUE(bounds.ok()) << bounds.error->to_string();
  EXPECT_EQ(bounds.value->as_array()[0].as_string(), "\xf0\x90\x80\x80");
  EXPECT_EQ(bounds.value->as_array()[1].as_string(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, LoneHighSurrogateIsAParseError) {
  for (const char* text : {R"("\ud83d")", R"("\ud83dx")", R"("\ud83d\u0041")",
                           R"("\ud83d\ud83d")", R"({"k\ud83d":1})"}) {
    const auto result = util::json::parse(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.error->message, "lone \\u surrogate") << text;
  }
}

TEST(Json, LoneLowSurrogateIsAParseError) {
  for (const char* text : {R"("\ude00")", R"("a\ude00\ud83d")"}) {
    const auto result = util::json::parse(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.error->message, "lone \\u surrogate") << text;
  }
}

// ---------- json::Writer ----------

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  std::string out;
  util::json::Writer(out).string("q\"b\\n\nt\tr\rc\x01\x1f");
  EXPECT_EQ(out, R"("q\"b\\n\nt\tr\rc\u0001\u001f")");
}

TEST(JsonWriter, PassesUtf8Through) {
  std::string out;
  util::json::Writer(out).string("\xc3\xa9\xe2\x9c\x93\xf0\x9f\x98\x80");
  EXPECT_EQ(out, "\"\xc3\xa9\xe2\x9c\x93\xf0\x9f\x98\x80\"");
}

TEST(JsonWriter, WritesDoublesLikeDumpAndNonFiniteAsNull) {
  std::string out;
  util::json::Writer w(out);
  w.begin_array().real(-0.0).real(0.0).real(0.1).real(1e300).real(-2.5);
  w.real(std::numeric_limits<double>::quiet_NaN());
  w.real(std::numeric_limits<double>::infinity());
  w.real(-std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(out,
            "[-0.0,0,0.10000000000000001,1.0000000000000001e+300,-2.5,"
            "null,null,null]");
  // -0.0 reads back as a double, not as the integer 0.
  const auto parsed = util::json::parse(out);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value->as_array()[0].is_double());
}

TEST(JsonWriter, WritesIntegerExtremesInTheirOwnSignedness) {
  std::string out;
  util::json::Writer w(out);
  w.begin_array().integer(std::numeric_limits<std::int64_t>::min());
  w.integer(std::numeric_limits<std::int64_t>::max());
  w.integer(std::numeric_limits<std::uint64_t>::max()).integer(-1);
  w.boolean(true).boolean(false).null().end_array();
  EXPECT_EQ(out,
            "[-9223372036854775808,9223372036854775807,"
            "18446744073709551615,-1,true,false,null]");
}

TEST(JsonWriter, IndentMeansWhatDumpMeans) {
  const auto write = [](int indent) {
    std::string out;
    util::json::Writer w(out, indent);
    w.begin_object().key("a").begin_array().end_array();
    w.key("b").begin_object().end_object();
    w.key("c").begin_array().integer(1).begin_object().key("d").null();
    w.end_object().begin_array().end_array().end_array().end_object();
    return out;
  };
  EXPECT_EQ(write(-1), R"({"a":[],"b":{},"c":[1,{"d":null},[]]})");
  EXPECT_EQ(write(0),
            "{\n\"a\": [],\n\"b\": {},\n\"c\": [\n1,\n{\n\"d\": null\n},\n"
            "[]\n]\n}");
  EXPECT_EQ(write(2),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    1,\n    {\n"
            "      \"d\": null\n    },\n    []\n  ]\n}");
  // The same document through a Value tree dumps to the same bytes.
  const auto tree = util::json::parse(write(-1));
  ASSERT_TRUE(tree.ok());
  for (const int indent : {-1, 0, 2}) {
    EXPECT_EQ(tree.value->dump(indent), write(indent)) << indent;
  }
}

TEST(JsonWriter, TopLevelValuesFollowEachOtherUnseparated) {
  std::string out;
  util::json::Writer w(out, 2);
  w.begin_object().end_object().integer(7).string("x");
  EXPECT_EQ(out, "{}7\"x\"");
}

}  // namespace
}  // namespace air
