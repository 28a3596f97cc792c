#include <gtest/gtest.h>

#include "core/csv.h"
#include "core/error.h"
#include "core/table.h"

namespace hpcarbon {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"part", "kg"});
  t.add_row({"A100", "18.10"});
  t.add_row({"V100", "13.43"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("part"), std::string::npos);
  EXPECT_NE(s.find("A100"), std::string::npos);
  EXPECT_NE(s.find("18.10"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);  // separator
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::pct(12.345, 1), "+12.3%");
  EXPECT_EQ(TextTable::pct(-4.0, 1), "-4.0%");
}

TEST(TextTable, CsvOutput) {
  TextTable t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(TextTable, EmptyTable) { EXPECT_EQ(TextTable().to_string(), ""); }

TEST(Banner, ContainsTitle) {
  const std::string b = banner("Figure 1");
  EXPECT_NE(b.find("Figure 1"), std::string::npos);
  EXPECT_NE(b.find("=="), std::string::npos);
}

TEST(Bar, ScalesWithValue) {
  EXPECT_EQ(bar(10, 10, 10), "##########");
  EXPECT_EQ(bar(5, 10, 10), "#####");
  EXPECT_EQ(bar(0, 10, 10), "");
  EXPECT_EQ(bar(20, 10, 10), "##########");  // clamped
  EXPECT_EQ(bar(5, 0, 10), "");              // degenerate max
}

TEST(Csv, RaggedRowErrorNamesRowAndWidths) {
  try {
    parse_csv_table("a,b\n1,2\n3\n");
    FAIL() << "expected Error for ragged row";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ragged CSV row 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("got 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected 2"), std::string::npos) << msg;
  }
}

TEST(Csv, QuotedCellsMayContainCommas) {
  const auto table = parse_csv_table("\"region, area\",ci\n1,412.5\n");
  ASSERT_EQ(table.rows.size(), 2u);
  ASSERT_EQ(table.rows[0].size(), 2u);
  EXPECT_EQ(table.rows[0][0], "region, area");
  EXPECT_EQ(table.rows[1][1], "412.5");
}

TEST(Csv, QuotedQuoteEscapeAndUnterminatedQuote) {
  const auto table = parse_csv_table("\"say \"\"hi\"\"\",x\n1,2\n");
  ASSERT_EQ(table.rows[0].size(), 2u);
  EXPECT_EQ(table.rows[0][0], "say \"hi\"");
  EXPECT_THROW(parse_csv_table("\"oops\n1\n"), Error);
  // Text after a closing quote is malformed, not silently merged: "6"7
  // must not parse as 67.
  EXPECT_THROW(parse_csv_table("a,b\n\"5\",\"6\"7\n"), Error);
}

TEST(Csv, FinalRowWithoutTrailingNewline) {
  const auto table = parse_csv_table("hour,ci\n0,412.5\n1,390");
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[2][1], "390");
}

TEST(Csv, SkipsBlankLinesAndCarriageReturns) {
  const auto table = parse_csv_table("x\r\n1\r\n\r\n2\r\n");
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[2][0], "2");
  EXPECT_EQ(table.line_numbers[2], 4u);
}

TEST(Csv, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/hpcarbon_csv_test.csv";
  write_file(path, "a,b\n1,2\n");
  EXPECT_EQ(read_file(path), "a,b\n1,2\n");
  try {
    read_file("/nonexistent/dir/file.csv");
    FAIL() << "expected Error for a missing file";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "cannot open file: /nonexistent/dir/file.csv");
  }
}

TEST(Csv, ColumnSerialisation) {
  EXPECT_EQ(to_csv_column("v", {1.5, 2.5}), "v\n1.5\n2.5\n");
}

TEST(Csv, EscapePassesPlainCellsThrough) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("3.14"), "3.14");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(Csv, EscapeQuotesSpecialCells) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, RowWriterJoinsAndTerminates) {
  EXPECT_EQ(csv_row({"a", "b,c", "1"}), "a,\"b,c\",1\n");
  EXPECT_EQ(csv_row({}), "\n");
}

TEST(Csv, NumMatchesStreamFormatting) {
  EXPECT_EQ(csv_num(3.14), "3.14");
  EXPECT_EQ(csv_num(42.0), "42");
  EXPECT_EQ(csv_num(-0.5), "-0.5");
}

TEST(Csv, ParseTableKeepsStringsAndLineNumbers) {
  const auto table =
      parse_csv_table("datetime,ci\n\n2021-01-01T00:00:00Z,412.5\n");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][0], "datetime");
  EXPECT_EQ(table.rows[1][0], "2021-01-01T00:00:00Z");
  ASSERT_EQ(table.line_numbers.size(), 2u);
  EXPECT_EQ(table.line_numbers[0], 1u);
  EXPECT_EQ(table.line_numbers[1], 3u);  // blank line counted, not stored
}

// Satellite guarantee: cells emitted through csv_row survive a full parse
// round-trip, commas and quotes included.
TEST(Csv, EscapedRowsRoundTripThroughParser) {
  std::string text = csv_row({"a", "b", "c"});
  text += csv_row({"region, area", "with \"quotes\"", "plain"});
  const auto table = parse_csv_table(text);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][0], "region, area");
  EXPECT_EQ(table.rows[1][1], "with \"quotes\"");
  EXPECT_EQ(table.rows[1][2], "plain");
}

}  // namespace
}  // namespace hpcarbon
