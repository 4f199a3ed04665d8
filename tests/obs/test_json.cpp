// The observability layer's JSON model: stable emission and parse-back.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace specomp::obs {
namespace {

TEST(Json, ObjectPreservesInsertionOrder) {
  Json doc;
  doc.set("zeta", Json(1));
  doc.set("alpha", Json(2));
  doc.set("mid", Json(3));
  EXPECT_EQ(doc.dump(), R"({"zeta":1,"alpha":2,"mid":3})");
}

TEST(Json, SetOverwritesInPlace) {
  Json doc;
  doc.set("a", Json(1));
  doc.set("b", Json(2));
  doc.set("a", Json(9));
  EXPECT_EQ(doc.dump(), R"({"a":9,"b":2})");
}

TEST(Json, NumbersRoundTrip) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  // Non-finite values have no JSON representation.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
  // A value needing full precision survives a dump/parse cycle.
  const double pi = 3.141592653589793;
  const Json parsed = Json::parse(json_number(pi));
  EXPECT_EQ(parsed.as_double(), pi);
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(json_quote("plain"), R"("plain")");
  EXPECT_EQ(json_quote("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(json_quote("tab\there"), R"("tab\there")");
  EXPECT_EQ(json_quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, ParseRoundTripsNestedDocument) {
  const std::string text =
      R"({"name":"run","ok":true,"none":null,"vals":[1,2.5,-3],)"
      R"("nested":{"deep":[{"x":1}]}})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("name").as_string(), "run");
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  ASSERT_EQ(doc.at("vals").as_array().size(), 3u);
  EXPECT_EQ(doc.at("vals").as_array()[1].as_double(), 2.5);
  EXPECT_EQ(doc.at("nested").at("deep").as_array()[0].at("x").as_int(), 1);
  // Emission is canonical: re-parsing the dump gives the same dump.
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, ParseHandlesEscapesAndUnicode) {
  const Json doc = Json::parse(R"("a\n\tAé")");
  EXPECT_EQ(doc.as_string(), "a\n\tA\xc3\xa9");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("'single'"), std::runtime_error);
}

TEST(Json, ParseBoundsNestingDepth) {
  const int limit = Json::kMaxParseDepth;
  const std::string at_limit =
      std::string(static_cast<std::size_t>(limit), '[') +
      std::string(static_cast<std::size_t>(limit), ']');
  EXPECT_NO_THROW(Json::parse(at_limit));

  // One level deeper fails at the offending bracket, and so does input deep
  // enough to exhaust the stack of a recursive parser without the bound.
  for (const std::size_t depth :
       {static_cast<std::size_t>(limit) + 1, std::size_t{2'000'000}}) {
    try {
      Json::parse(std::string(depth, '['));
      FAIL() << "expected throw at depth " << depth;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "offset " + std::to_string(limit) + ": nesting deeper"),
                std::string::npos)
          << e.what();
    }
  }
  std::string objects;
  for (int i = 0; i <= limit; ++i) objects += "{\"a\":";
  EXPECT_THROW(
      {
        try {
          Json::parse(objects);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("nesting deeper"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST(Json, IntegerViewsRejectOutOfRangeNumbers) {
  EXPECT_EQ(Json::parse("-3.9").as_int(), -3);
  EXPECT_EQ(Json::parse("0.5").as_uint(), 0u);
  EXPECT_EQ(Json::parse("18446744073709549568").as_uint(),
            18446744073709549568ull);
  EXPECT_THROW(Json::parse("-1").as_uint(), std::runtime_error);
  EXPECT_THROW(Json::parse("1e300").as_uint(), std::runtime_error);
  EXPECT_THROW(Json::parse("1e19").as_int(), std::runtime_error);
  EXPECT_THROW(Json::parse("-1e300").as_int(), std::runtime_error);
}

TEST(Json, PrettyPrintIndents) {
  Json doc;
  doc.set("a", Json(1));
  Json arr = Json::array();
  arr.push_back(Json(2));
  doc.set("b", arr);
  EXPECT_EQ(doc.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, FindDistinguishesAbsentFromNull) {
  Json doc;
  doc.set("present", Json(nullptr));
  EXPECT_NE(doc.find("present"), nullptr);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW(doc.at("absent"), std::runtime_error);
}

}  // namespace
}  // namespace specomp::obs
