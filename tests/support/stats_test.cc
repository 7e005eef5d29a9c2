/**
 * @file
 * Unit tests for statistics helpers and the table printer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "support/logging.hh"
#include "support/stats.hh"

namespace {

using namespace flowguard;

TEST(Accumulator, TracksCountSumMeanMax)
{
    Accumulator acc;
    acc.add(2.0);
    acc.add(8.0);
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.sum(), 15.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.max(), 8.0);
}

TEST(Accumulator, GeomeanOfPowers)
{
    Accumulator acc;
    acc.add(1.0);
    acc.add(100.0);
    EXPECT_NEAR(acc.geomean(), 10.0, 1e-9);
}

TEST(Accumulator, EmptyAccumulatorPanics)
{
    Accumulator acc;
    EXPECT_THROW(acc.mean(), SimError);
    EXPECT_THROW(acc.geomean(), SimError);
    EXPECT_THROW(acc.max(), SimError);
}

TEST(TablePrinter, RendersAlignedColumns)
{
    TablePrinter table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer", "22"});
    std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header and two rows plus the rule line.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinter, RejectsMismatchedRowWidth)
{
    TablePrinter table({"one", "two"});
    EXPECT_THROW(table.addRow({"only-one"}), SimError);
}

TEST(TablePrinter, FmtPrecision)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(3.14159, 0), "3");
    EXPECT_EQ(TablePrinter::fmt(10.0, 1), "10.0");
}

TEST(JsonWriter, NestedDocument)
{
    JsonWriter json;
    json.beginObject()
        .field("name", "bench")
        .field("count", static_cast<uint64_t>(3))
        .key("items")
        .beginArray()
        .value(uint64_t{1})
        .value(2.5)
        .value(true)
        .endArray()
        .key("inner")
        .beginObject()
        .field("ok", false)
        .endObject()
        .endObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"bench\",\"count\":3,"
              "\"items\":[1,2.5,true],\"inner\":{\"ok\":false}}");
}

TEST(JsonWriter, EscapesStrings)
{
    JsonWriter json;
    json.value(std::string("a\"b\\c\nd\x01"));
    EXPECT_EQ(json.str(), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter json;
    json.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(0.25)
        .endArray();
    EXPECT_EQ(json.str(), "[null,null,0.25]");
}

TEST(JsonWriter, MisuseIsFatal)
{
    {
        JsonWriter json;
        json.beginObject();
        EXPECT_THROW(json.str(), SimError);     // unclosed container
    }
    {
        JsonWriter json;
        EXPECT_THROW(json.key("x"), SimError);  // key outside object
    }
    {
        JsonWriter json;
        json.beginObject();
        EXPECT_THROW(json.value(uint64_t{1}), SimError);  // no key
    }
    {
        JsonWriter json;
        json.beginObject();
        EXPECT_THROW(json.endArray(), SimError);    // mismatched end
    }
}

TEST(JsonWriter, EscapesEveryControlCharacter)
{
    // All of 0x00-0x1F must come out as valid JSON escapes — either a
    // short form (\n, \t, ...) or \u00XX — never raw bytes.
    std::string raw;
    for (char c = 0; c < 0x20; ++c)
        raw.push_back(c);
    JsonWriter json;
    json.value(raw);
    const std::string out = json.str();
    for (char c = 1; c < 0x20; ++c)
        EXPECT_EQ(out.find(c), std::string::npos)
            << "raw control byte " << static_cast<int>(c)
            << " leaked into JSON";
    EXPECT_NE(out.find("\\u0000"), std::string::npos);
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("\\t"), std::string::npos);
    EXPECT_NE(out.find("\\u001f"), std::string::npos);
}

TEST(JsonWriter, Utf8PassesThroughUnescaped)
{
    // Multi-byte UTF-8 is already valid JSON string content; escaping
    // it would bloat every path/name field.
    JsonWriter json;
    json.value(std::string("caf\xC3\xA9 \xE2\x86\x92 \xF0\x9F\x94\x92"));
    EXPECT_EQ(json.str(),
              "\"caf\xC3\xA9 \xE2\x86\x92 \xF0\x9F\x94\x92\"");
}

TEST(JsonWriter, SurvivesDeepNesting)
{
    // ~100 levels of alternating object/array nesting: the writer's
    // container stack must neither overflow nor lose track of
    // closers.
    JsonWriter json;
    constexpr int depth = 100;
    for (int i = 0; i < depth; ++i) {
        json.beginObject().key("d");
        json.beginArray();
    }
    json.value(uint64_t{1});
    for (int i = 0; i < depth; ++i) {
        json.endArray();
        json.endObject();
    }
    const std::string out = json.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'), depth);
    EXPECT_EQ(std::count(out.begin(), out.end(), '}'), depth);
    EXPECT_NE(out.find("\"d\":[1]"), std::string::npos);
}

TEST(JsonWriter, WriteFileFailureIsFatal)
{
    JsonWriter json;
    json.beginObject().endObject();
    // Directory path that cannot exist as a file parent.
    EXPECT_THROW(
        json.writeFile("/nonexistent-dir-xyz/sub/out.json"),
        SimError);
}

TEST(JsonWriter, WritesFile)
{
    const std::string path =
        ::testing::TempDir() + "flowguard_json_writer_test.json";
    JsonWriter json;
    json.beginObject().field("answer", uint64_t{42}).endObject();
    json.writeFile(path);

    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "{\"answer\":42}\n");
    std::remove(path.c_str());
}

} // namespace
