/**
 * @file
 * Tests for the reporting layer (bench harness support): table
 * separators and formatting edge cases, section headers, bench seed
 * parsing, strict bench argv, the bench.v1 document text, and logging
 * verbosity control.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/report.hh"

namespace consim
{
namespace
{

TEST(TableEdge, SeparatorsRenderAsRules)
{
    TextTable t({"a", "b"});
    t.addRow({"1", "2"});
    t.addSeparator();
    t.addRow({"3", "4"});
    std::ostringstream os;
    t.print(os);
    // Box: top, header, rule, row, separator, row, bottom = 4 rules.
    int rules = 0;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line))
        rules += line.rfind("+--", 0) == 0 ? 1 : 0;
    EXPECT_EQ(rules, 4);
}

TEST(TableEdge, WideCellsStretchColumns)
{
    TextTable t({"x"});
    t.addRow({"abcdefghijklmnop"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("abcdefghijklmnop"), std::string::npos);
}

TEST(TableEdge, NumericFormatting)
{
    EXPECT_EQ(TextTable::num(0.0, 2), "0.00");
    EXPECT_EQ(TextTable::num(-1.5, 1), "-1.5");
    EXPECT_EQ(TextTable::num(123456.789, 0), "123457");
    EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
    EXPECT_EQ(TextTable::pct(0.005, 1), "0.5%");
}

TEST(TableEdgeDeathTest, WrongArityPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

TEST(Report, HeaderContainsAllParts)
{
    std::ostringstream os;
    printHeader(os, "Title X", "Figure 99", "the shape");
    const auto s = os.str();
    EXPECT_NE(s.find("Title X"), std::string::npos);
    EXPECT_NE(s.find("Figure 99"), std::string::npos);
    EXPECT_NE(s.find("the shape"), std::string::npos);
}

TEST(Report, BenchSeedsNonEmptyAndDistinct)
{
    const auto &seeds = benchSeeds();
    ASSERT_FALSE(seeds.empty());
    for (std::size_t i = 1; i < seeds.size(); ++i)
        EXPECT_NE(seeds[i], seeds[i - 1]);
}

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return argv;
}

TEST(Report, PathFromArgsTakesOneJson)
{
    std::vector<std::string> args = {"bench", "--json", "out.json"};
    auto argv = argvOf(args);
    EXPECT_EQ(JsonReport::pathFromArgs(3, argv.data()), "out.json");
}

TEST(ReportDeathTest, PathFromArgsRefusesEverythingElse)
{
    const auto path = [](std::vector<std::string> args) {
        auto argv = argvOf(args);
        JsonReport::pathFromArgs(static_cast<int>(argv.size()),
                                 argv.data());
    };
    EXPECT_EXIT(path({"bench", "--jsn", "x.json"}),
                ::testing::ExitedWithCode(2), "'--jsn'");
    EXPECT_EXIT(path({"bench", "extra"}), ::testing::ExitedWithCode(2),
                "'extra'");
    EXPECT_EXIT(path({"bench", "--json"}), ::testing::ExitedWithCode(2),
                "--json wants a value");
    EXPECT_EXIT(path({"bench", "--json", ""}),
                ::testing::ExitedWithCode(2), "--json wants a value");
    EXPECT_EXIT(path({"bench", "--json", "a", "--json", "b"}),
                ::testing::ExitedWithCode(2), "--json given twice");
}

TEST(Report, JsonReportTextIsTheWrittenDocument)
{
    const std::string path = ::testing::TempDir() + "report_text.json";
    JsonReport rep("t", "Title", path);
    auto pt = json::Value::object();
    pt.set("x", 1);
    rep.point(std::move(pt));
    rep.write();
    std::ifstream in(path);
    std::stringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), rep.text());
    EXPECT_NE(rep.text().find("\"schema\": \"consim.bench.v1\""),
              std::string::npos);
}

TEST(Logging, VerbosityToggle)
{
    const bool was = logging::verbose();
    logging::setVerbose(false);
    EXPECT_FALSE(logging::verbose());
    logging::setVerbose(true);
    EXPECT_TRUE(logging::verbose());
    logging::setVerbose(was);
}

TEST(Logging, FormatConcatenates)
{
    EXPECT_EQ(logging::format("a", 1, "b", 2.5), "a1b2.5");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(CONSIM_PANIC("boom ", 42), "boom 42");
}

TEST(LoggingDeathTest, AssertCarriesContext)
{
    const int x = 3;
    EXPECT_DEATH(CONSIM_ASSERT(x == 4, "x was ", x), "x was 3");
}

} // namespace
} // namespace consim
