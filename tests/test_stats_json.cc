/**
 * @file
 * Tests for the hierarchical statistics registry (nested naming, the
 * text and JSON forms of each kind of stat, recursive reset, typed
 * lookup, duplicate detection), the Histogram percentile edge cases,
 * the JSON writer/parser, and the registry-derived RunResult JSON
 * round trip.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "core/mix.hh"
#include "core/report.hh"
#include "exec/sweep.hh"

namespace consim
{
namespace
{

// --- hierarchical registry ----------------------------------------

TEST(StatsGroup, NestedNamingDotJoinsAncestors)
{
    stats::Group root("sys");
    stats::Group tile("tile03", &root);
    stats::Group l1("l1", &tile);

    EXPECT_EQ(root.fullName(), "sys");
    EXPECT_EQ(tile.fullName(), "sys.tile03");
    EXPECT_EQ(l1.fullName(), "sys.tile03.l1");

    stats::Counter misses;
    l1.add("misses", &misses);
    ++misses;

    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("sys.tile03.l1.misses 1"),
              std::string::npos);
}

TEST(StatsGroup, DumpAndJsonFormsOfEveryKind)
{
    // Stats in name order, then children in registration order. The
    // text prints doubles at stream precision, the JSON at shortest
    // round trip.
    stats::Group root("sys");
    stats::Group net("net", &root);
    stats::Counter top, packets;
    stats::Average latency, idle;
    stats::Histogram dist(10, 4); // overflow at >= 40
    root.add("top", &top);
    net.add("packets", &packets);
    net.add("latency", &latency);
    net.add("idle", &idle);
    net.add("dist", &dist);
    top += 4;
    packets += 3;
    latency.sample(4.0);
    latency.sample(7.0);
    for (const std::uint64_t v : {3, 12, 18, 27, 55, 90})
        dist.sample(v);

    std::ostringstream os;
    root.dump(os);
    EXPECT_EQ(os.str(), "sys.top 4\n"
                        "sys.net.dist.mean 34.1667\n"
                        "sys.net.dist.max 90\n"
                        "sys.net.dist.count 6\n"
                        "sys.net.idle.mean 0\n"
                        "sys.net.idle.count 0\n"
                        "sys.net.latency.mean 5.5\n"
                        "sys.net.latency.count 2\n"
                        "sys.net.packets 3\n");
    // Buckets 1, 2, 1, 0 and 2 overflowed: half the samples lie below
    // 20, and the 95th percentile is in the overflow bucket, which
    // reports the max.
    EXPECT_EQ(root.toJson().dump(),
              "{\"top\":4,\"net\":{"
              "\"dist\":{\"mean\":34.166666666666664,\"max\":90,"
              "\"count\":6,\"p50\":20,\"p95\":90},"
              "\"idle\":{\"mean\":0,\"count\":0},"
              "\"latency\":{\"mean\":5.5,\"count\":2},"
              "\"packets\":3}}");
}

TEST(StatsGroup, TypedLookupByDottedPath)
{
    stats::Group root("sys");
    stats::Group tile("tile00", &root);
    stats::Counter c;
    stats::Average a;
    stats::Histogram h(10, 8);
    tile.add("hits", &c);
    tile.add("latency", &a);
    tile.add("dist", &h);

    EXPECT_EQ(root.findGroup("tile00"), &tile);
    EXPECT_EQ(root.findCounter("tile00.hits"), &c);
    EXPECT_EQ(root.findAverage("tile00.latency"), &a);
    EXPECT_EQ(root.findHistogram("tile00.dist"), &h);

    // Wrong kind, wrong path, wrong group: all null, never a panic.
    EXPECT_EQ(root.findCounter("tile00.latency"), nullptr);
    EXPECT_EQ(root.findCounter("tile00.nope"), nullptr);
    EXPECT_EQ(root.findCounter("tile99.hits"), nullptr);
    EXPECT_EQ(root.findGroup("tile99"), nullptr);
}

TEST(StatsGroup, ResetAllRecursesTheWholeSubtree)
{
    stats::Group root("sys");
    stats::Group child("child", &root);
    stats::Group grandchild("grand", &child);

    stats::Counter c_root, c_deep;
    stats::Average avg;
    stats::Histogram hist(5, 4);
    root.add("top", &c_root);
    grandchild.add("deep", &c_deep);
    grandchild.add("avg", &avg);
    grandchild.add("hist", &hist);

    c_root += 3;
    c_deep += 7;
    avg.sample(2.0);
    hist.sample(12);

    root.resetAll();
    EXPECT_EQ(c_root.value(), 0u);
    EXPECT_EQ(c_deep.value(), 0u);
    EXPECT_EQ(avg.count(), 0u);
    EXPECT_EQ(hist.count(), 0u);
}

TEST(StatsGroup, AddChildReparentsFromPreviousParent)
{
    stats::Group old_root("old");
    stats::Group new_root("new");
    stats::Group child("c");

    old_root.addChild(&child);
    EXPECT_EQ(child.parent(), &old_root);
    new_root.addChild(&child);
    EXPECT_EQ(child.parent(), &new_root);
    EXPECT_TRUE(old_root.children().empty());
    EXPECT_EQ(child.fullName(), "new.c");
}

TEST(StatsGroupDeathTest, DuplicateStatNameAsserts)
{
    stats::Group g("g");
    stats::Counter a, b;
    g.add("hits", &a);
    EXPECT_DEATH(g.add("hits", &b), "duplicate");
}

TEST(StatsGroupDeathTest, ChildNameCollidingWithStatAsserts)
{
    stats::Group g("g");
    stats::Counter c;
    g.add("net", &c);
    stats::Group child("net");
    EXPECT_DEATH(g.addChild(&child), "collide");
}

// --- histogram edge cases -----------------------------------------

TEST(HistogramPercentileEdges, ZeroPercentileSkipsEmptyBuckets)
{
    stats::Histogram h(10, 4);
    h.sample(25); // bucket 2 only
    // p=0 must not report empty bucket 0's edge (the old code's
    // "0 >= 0" matched immediately and returned width_).
    EXPECT_EQ(h.percentile(0.0), 30u);
    EXPECT_EQ(h.percentile(1.0), 30u);
}

TEST(HistogramPercentileEdges, OverflowBucketReportsTrackedMax)
{
    stats::Histogram h(10, 4); // overflow at >= 40
    h.sample(1234);
    EXPECT_EQ(h.max(), 1234u);
    // The old code reported (n+1)*width = 50; the overflow bucket
    // must cap at the tracked maximum instead.
    EXPECT_EQ(h.percentile(0.5), 1234u);
    EXPECT_EQ(h.percentile(1.0), 1234u);
}

TEST(HistogramPercentileEdges, EmptyHistogramIsZero)
{
    stats::Histogram h(10, 4);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(HistogramDeathTest, ZeroBucketWidthAsserts)
{
    EXPECT_DEATH(stats::Histogram(0, 4), "width");
}

// --- JSON writer/parser -------------------------------------------

TEST(Json, WriterEscapesAndParsesBack)
{
    auto v = json::Value::object();
    v.set("text", "line\nbreak \"quoted\" \\slash\x01");
    v.set("neg", std::int64_t{-42});
    v.set("big", std::uint64_t{18446744073709551615ull});
    v.set("frac", 0.1);
    v.set("flag", true);
    v.set("none", nullptr);
    auto arr = json::Value::array();
    arr.push(1);
    arr.push(2);
    v.set("arr", std::move(arr));

    const std::string text = v.dump(2);
    json::Value back;
    std::string err;
    ASSERT_TRUE(json::parse(text, back, &err)) << err;
    EXPECT_EQ(back.find("text")->str(),
              "line\nbreak \"quoted\" \\slash\x01");
    EXPECT_EQ(back.find("neg")->number(), -42.0);
    EXPECT_EQ(back.find("big")->asUint(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(back.find("frac")->number(), 0.1);
    EXPECT_TRUE(back.find("flag")->boolean());
    EXPECT_TRUE(back.find("none")->isNull());
    EXPECT_EQ(back.find("arr")->size(), 2u);
}

TEST(Json, GroupToJsonMirrorsTheTree)
{
    stats::Group root("sys");
    stats::Group net("net", &root);
    stats::Counter pkts;
    stats::Average lat;
    net.add("packets", &pkts);
    net.add("latency", &lat);
    pkts += 5;
    lat.sample(4.0);
    lat.sample(6.0);

    const json::Value doc = root.toJson();
    const json::Value *jnet = doc.find("net");
    ASSERT_NE(jnet, nullptr);
    EXPECT_EQ(jnet->find("packets")->asUint(), 5u);
    EXPECT_DOUBLE_EQ(jnet->find("latency")->find("mean")->number(),
                     5.0);
    EXPECT_EQ(jnet->find("latency")->find("count")->asUint(), 2u);

    // The emitted text is valid JSON.
    json::Value back;
    std::string err;
    EXPECT_TRUE(json::parse(doc.dump(2), back, &err)) << err;
}

// --- RunResult round trip -----------------------------------------

TEST(RunResultJson, EnvelopeRoundTripsRegistryDerivedValues)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.seed = 11;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    const RunResult r = runExperiment(cfg);

    const json::Value doc = runResultJson(cfg, r);
    json::Value back;
    std::string err;
    ASSERT_TRUE(json::parse(doc.dump(2), back, &err)) << err;

    EXPECT_EQ(back.find("schema")->str(), "consim.run.v1");
    const json::Value *jcfg = back.find("config");
    ASSERT_NE(jcfg, nullptr);
    EXPECT_EQ(jcfg->find("policy")->str(), "affinity");
    EXPECT_EQ(jcfg->find("seed")->asUint(), 11u);
    EXPECT_EQ(jcfg->find("machine")->find("sharing")->str(),
              "shared-4-way");

    const json::Value *jres = back.find("result");
    ASSERT_NE(jres, nullptr);
    const json::Value *jvms = jres->find("vms");
    ASSERT_NE(jvms, nullptr);
    ASSERT_EQ(jvms->size(), r.vms.size());
    for (std::size_t i = 0; i < r.vms.size(); ++i) {
        const json::Value &jv = jvms->at(i);
        const VmResult &v = r.vms[i];
        EXPECT_EQ(jv.find("kind")->str(), toString(v.kind));
        EXPECT_EQ(jv.find("transactions")->asUint(), v.transactions);
        EXPECT_EQ(jv.find("l1_misses")->asUint(), v.l1Misses);
        EXPECT_EQ(jv.find("l2_accesses")->asUint(), v.l2Accesses);
        EXPECT_EQ(jv.find("l2_misses")->asUint(), v.l2Misses);
        // Doubles survive exactly: shortest-round-trip formatting.
        EXPECT_EQ(jv.find("cycles_per_transaction")->number(),
                  v.cyclesPerTransaction);
        EXPECT_EQ(jv.find("miss_rate")->number(), v.missRate);
        EXPECT_EQ(jv.find("avg_miss_latency")->number(),
                  v.avgMissLatency);
    }
    EXPECT_EQ(jres->find("net_packets")->asUint(), r.netPackets);
    EXPECT_EQ(jres->find("net_avg_latency")->number(),
              r.netAvgLatency);
    EXPECT_EQ(jres->find("replication")->find("valid_lines")->asUint(),
              r.replication.validLines);
}

TEST(RunResultJson, ExtractionMatchesLiveRegistry)
{
    // The RunResult must be exactly what the registry holds: read the
    // live machine through runExperiment's post-run hook, and the same
    // point through the sweep (single config, single seed).
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::RoundRobin,
                              SharingDegree::Shared4);
    cfg.seed = 3;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    Cycle end = 0;
    std::vector<std::uint64_t> accesses;
    const RunResult a = runExperiment(cfg, [&](const System &sys) {
        end = sys.now();
        for (int v = 0; v < static_cast<int>(cfg.workloads.size()); ++v)
            accesses.push_back(
                sys.statsRoot()
                    .findCounter(indexedName("vm", v) + ".l2_accesses")
                    ->value());
    });
    EXPECT_EQ(end, cfg.warmupCycles + cfg.measureCycles);
    ASSERT_EQ(accesses.size(), a.vms.size());
    for (std::size_t v = 0; v < a.vms.size(); ++v) {
        EXPECT_GT(accesses[v], 0u);
        EXPECT_EQ(accesses[v], a.vms[v].l2Accesses) << "vm " << v;
    }
    const SweepRun b = runSweep({cfg}).front();
    ASSERT_TRUE(b.ok) << b.errorMessage;
    EXPECT_EQ(runResultJson(cfg, a).dump(2),
              runResultJson(cfg, b.result).dump(2));
}

} // namespace
} // namespace consim
