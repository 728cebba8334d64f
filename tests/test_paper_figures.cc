/**
 * @file
 * Tests for the paper-figure driver (bench/figures.hh): every figure
 * rendered from one union run is pinned to the bytes the per-figure
 * benches it replaced printed and wrote, a union render equals each
 * figure's solo render, the union runs each point once, a failed
 * point is fatal, and the argv is strict.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "figures.hh"

namespace consim::paper
{
namespace
{

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Windows short enough for a unit test. */
RunConfig
shortBase(Cycle window)
{
    RunConfig base;
    base.warmupCycles = window;
    base.measureCycles = window;
    return base;
}

std::vector<const Figure *>
select(const std::vector<std::string> &ids)
{
    std::vector<const Figure *> figs;
    for (const auto &fig : figures()) {
        for (const auto &id : ids) {
            if (fig.id == id)
                figs.push_back(&fig);
        }
    }
    EXPECT_EQ(figs.size(), ids.size());
    return figs;
}

std::vector<const Figure *>
all()
{
    std::vector<const Figure *> figs;
    for (const auto &fig : figures())
        figs.push_back(&fig);
    return figs;
}

struct FigurePin
{
    const char *id;
    std::uint64_t text; ///< FNV-1a of the stdout section
    std::uint64_t json; ///< FNV-1a of the bench.v1 document
};

/**
 * Hashes of each figure's stdout and `--json` document at
 * CONSIM_WARMUP=CONSIM_MEASURE=20000 and one seed, captured from the
 * thirteen one-figure-per-binary benches that paper_figures replaced.
 * At these windows the normalized cycles/txn tables all read 1.00, so
 * the document hashes bind the results and the stdout hashes bind
 * layout and order.
 */
const FigurePin kPins[] = {
    {"table2", 0xd050a4d2e99ab5cdull, 0xdd0a8a75afc9bf54ull},
    {"fig2", 0x5cfe1c00dab7dfc9ull, 0x7249425fd735b10dull},
    {"fig3", 0xb94152e6e44993afull, 0xca8ff2e7dba94a49ull},
    {"fig4", 0x53d8879f76eca1e3ull, 0x7c551c60427f0b5bull},
    {"fig5", 0x2088e1dac97b4111ull, 0xae16ffee4ef34c94ull},
    {"fig6", 0xd75864024e9a0827ull, 0x24029910f75bc0feull},
    {"fig7", 0x0cd5331874268b0aull, 0x3e8fccf0bfdce49dull},
    {"fig8", 0x5069ee2b200df94cull, 0x2e9638db45fae1ccull},
    {"fig9", 0x62a068d673364069ull, 0xc418250a31827771ull},
    {"fig10", 0x8fa0696fccec3af2ull, 0x8fc6d22bf937ef6full},
    {"fig11", 0xef7eb05a28a139d5ull, 0x1bb7c85d6baaa712ull},
    {"fig12", 0x618c6118e48c9b80ull, 0x486bfe9dc3dac2c5ull},
    {"fig13", 0xd2dfb17e23de17f2ull, 0x76a855101c0b8af9ull},
};

TEST(PaperFigures, AllFiguresFromOneUnionRunMatchPins)
{
    const auto out = regenerate(all(), shortBase(20000), {1});
    ASSERT_EQ(out.size(), std::size(kPins));
    for (std::size_t i = 0; i < out.size(); ++i) {
        const FigurePin &pin = kPins[i];
        EXPECT_EQ(figures()[i].id, pin.id) << "figures out of paper order";
        const std::uint64_t text = fnv1a(out[i].text);
        const std::uint64_t json = fnv1a(out[i].json.text());
        EXPECT_EQ(text, pin.text)
            << pin.id << ": stdout changed (now 0x" << std::hex << text
            << ")";
        EXPECT_EQ(json, pin.json)
            << pin.id << ": bench.v1 document changed (now 0x"
            << std::hex << json << ")";
    }
}

TEST(PaperFigures, UnionRunsEachPointOnce)
{
    // Table II and Figs. 2-13 read 96 distinct points: 40 isolation
    // runs (the normalizing baselines among them) and 56 mixes.
    EXPECT_EQ(plan(all(), {1}).size(), 96u);
    // Figs. 12-13 read only the first seed, so Fig. 12's four private
    // points, which no averaged figure reads, run once.
    EXPECT_EQ(plan(all(), {1, 2}).size(), 2 * 92u + 4u);
    // Figs. 2 and 3 read the same 32 points.
    EXPECT_EQ(plan(select({"fig2", "fig3"}), {1}).size(), 32u);
}

TEST(PaperFigures, UnionRenderEqualsSoloRender)
{
    // Figs. 5 and 12 share twelve homogeneous-mix points; Fig. 5
    // averages two seeds of them while Fig. 12 reads the first.
    const RunConfig base = shortBase(5000);
    const std::vector<std::uint64_t> seeds = {1, 2};
    const auto both = regenerate(select({"fig5", "fig12"}), base, seeds);
    ASSERT_EQ(both.size(), 2u);
    const auto fig5 = regenerate(select({"fig5"}), base, seeds);
    const auto fig12 = regenerate(select({"fig12"}), base, seeds);
    EXPECT_EQ(both[0].text, fig5.at(0).text);
    EXPECT_EQ(both[0].json.text(), fig5.at(0).json.text());
    EXPECT_EQ(both[1].text, fig12.at(0).text);
    EXPECT_EQ(both[1].json.text(), fig12.at(0).json.text());
    // The averaged figure says so; the snapshot figure does not.
    EXPECT_NE(both[0].json.text().find("\"seeds_used\": 2"),
              std::string::npos);
    EXPECT_EQ(both[1].json.text().find("seeds_used"), std::string::npos);
}

TEST(PaperFiguresDeathTest, FailedPointIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Core 0 runs a Table II thread and wedges; the watchdog trips on
    // every attempt of the sweep's retry ladder.
    RunConfig base = shortBase(5000);
    base.watchdogIntervalCycles = 2000;
    std::string err;
    ASSERT_TRUE(
        FaultPlan::parse("wedge:core=0,at=3000", base.faults, &err))
        << err;
    EXPECT_EXIT(regenerate(select({"table2"}), base, {1}),
                ::testing::ExitedWithCode(1),
                "paper point failed after 3 attempts \\(watchdog\\)");
}

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return argv;
}

TEST(PaperFigures, ArgsSelectInPaperOrder)
{
    std::vector<std::string> args = {"paper_figures", "fig13", "table2",
                                     "--json", "out", "fig13"};
    auto argv = argvOf(args);
    std::string dir;
    const auto figs =
        parseArgs(static_cast<int>(argv.size()), argv.data(), dir);
    ASSERT_EQ(figs.size(), 2u);
    EXPECT_EQ(figs[0]->id, "table2");
    EXPECT_EQ(figs[1]->id, "fig13");
    EXPECT_EQ(dir, "out");

    std::vector<std::string> none = {"paper_figures"};
    auto argv0 = argvOf(none);
    EXPECT_EQ(parseArgs(1, argv0.data(), dir).size(), 13u);
    EXPECT_EQ(dir, "");
}

TEST(PaperFiguresDeathTest, UnknownArgumentsExit2)
{
    const auto parse = [](std::vector<std::string> args) {
        auto argv = argvOf(args);
        std::string dir;
        parseArgs(static_cast<int>(argv.size()), argv.data(), dir);
    };
    EXPECT_EXIT(parse({"paper_figures", "fig99"}),
                ::testing::ExitedWithCode(2), "'fig99'");
    EXPECT_EXIT(parse({"paper_figures", "--bogus"}),
                ::testing::ExitedWithCode(2), "'--bogus'");
    EXPECT_EXIT(parse({"paper_figures", "fig2", "--json"}),
                ::testing::ExitedWithCode(2), "--json wants a value");
    EXPECT_EXIT(parse({"paper_figures", "--json", "a", "--json", "b"}),
                ::testing::ExitedWithCode(2), "--json given twice");
}

} // namespace
} // namespace consim::paper
